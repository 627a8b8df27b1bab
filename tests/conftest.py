import gc
import sys

import pytest


@pytest.fixture
def python_calls():
    """``count(fn, *args)``: the Python frames ``fn(*args)`` opens on this thread.

    C functions open none. The collector is off meanwhile, so no finalizer
    adds a frame.
    """
    def count(fn, *args):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        gc.disable()
        sys.setprofile(profile)
        try:
            fn(*args)
        finally:
            sys.setprofile(None)
            gc.enable()
        return calls

    return count
