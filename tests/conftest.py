import collections
import gc
import sys

import pytest

from minimon import runner


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


@pytest.fixture
def no_children(monkeypatch):
    """Fail the test if the runner spawns a benchmark child."""
    def spawn(args, **kwargs):
        raise AssertionError(f"a child was spawned: {args}")

    monkeypatch.setattr(runner.subprocess, "run", spawn)


class HookedDeque(collections.deque):
    """A deque that runs a hook before each append, or before each take.

    ``before_append`` models a producer preempted between a lock-free put's
    checks and its append; ``before_take`` runs before each pop of the
    consumer's take or drain. A hook of None is off.
    """

    before_append = None
    before_take = None

    def append(self, record):
        if self.before_append is not None:
            self.before_append()
        super().append(record)

    def popleft(self):
        if self.before_take is not None:
            self.before_take()
        return super().popleft()


@pytest.fixture
def hooked_deque():
    """``hook(queue)``: give a blocking queue a HookedDeque with its records."""
    def hook(queue):
        queue._q = HookedDeque(queue._q, queue._q.maxlen)
        return queue._q

    return hook
