import random
import sys
import threading
import time

import pytest

from minimon.trace_registry import TraceRegistry, reset_trace_id_allocator


@pytest.fixture(autouse=True)
def fresh_allocator():
    reset_trace_id_allocator()


def test_fresh_thread_has_no_trace():
    assert TraceRegistry().enter_method() == (0, 0, 0)


def test_begin_trace_returns_increasing_ids():
    reg = TraceRegistry()
    ids = []
    for _ in range(3):
        ids.append(reg.begin_trace())
        reg.enter_method()
        reg.exit_method()
    assert ids == [0, 1, 2]


def test_next_entry_after_begin_and_end():
    reg = TraceRegistry()
    tid = reg.begin_trace()
    assert reg.enter_method() == (tid, 0, 0)
    reg.exit_method()
    assert reg.enter_method() == (tid + 1, 0, 0)


def test_begin_with_active_trace_is_error():
    reg = TraceRegistry()
    reg.begin_trace()
    with pytest.raises(RuntimeError):
        reg.begin_trace()


def test_linear_chain_of_ten():
    reg = TraceRegistry()
    tid = reg.begin_trace()
    entries = [reg.enter_method() for _ in range(10)]
    assert entries == [(tid, i, i) for i in range(10)]
    for expected_ess in range(9, -1, -1):
        reg.exit_method()
    assert reg.enter_method() == (tid + 1, 0, 0)


def test_nested_exit_leaves_depth():
    reg = TraceRegistry()
    tid = reg.begin_trace()
    reg.enter_method()
    reg.enter_method()
    reg.exit_method()
    # Inner frame exited; trace still active at depth 1.
    assert reg.enter_method() == (tid, 2, 1)
    reg.exit_method()
    reg.exit_method()
    assert reg.enter_method() == (tid + 1, 0, 0)


def test_top_level_siblings_start_fresh_traces():
    # The trace ends when the stack empties, so a second top-level entry
    # belongs to a new trace with its own eoi numbering.
    reg = TraceRegistry()
    first = reg.begin_trace()
    assert reg.enter_method() == (first, 0, 0)
    reg.exit_method()
    second = reg.begin_trace()
    assert second == first + 1
    assert reg.enter_method() == (second, 0, 0)
    reg.exit_method()


def test_enter_without_active_trace_starts_one():
    reg = TraceRegistry()
    reg.begin_trace()
    reg.enter_method()
    reg.exit_method()  # trace 0 ends, so the next entry starts trace 1
    assert reg.enter_method() == (1, 0, 0)
    assert [reg.enter_method() for _ in range(3)] == [(1, 1, 1), (1, 2, 2), (1, 3, 3)]
    with pytest.raises(RuntimeError):
        reg.begin_trace()
    for depth in range(4, 0, -1):
        assert reg.enter_method() == (1, 8 - depth, depth)
        reg.exit_method()
        reg.exit_method()
    assert reg.enter_method() == (2, 0, 0)


def test_unmatched_exit_is_error():
    reg = TraceRegistry()
    with pytest.raises(RuntimeError):
        reg.exit_method()


def test_distinct_ids_across_threads():
    reg = TraceRegistry()
    ids = []
    lock = threading.Lock()

    def worker():
        tid = reg.begin_trace()
        reg.enter_method()
        reg.exit_method()
        with lock:
            ids.append(tid)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(ids) == list(range(8))


def test_ess_matches_explicit_stack_model():
    # Random balanced enter/exit sequences: ess must equal the nesting
    # depth a plain stack model reports at every step.
    rng = random.Random(42)
    reg = TraceRegistry()
    for _ in range(50):
        stack = []
        eoi_seen = []
        tid = reg.begin_trace()
        steps = 0
        while steps < 200:
            if stack and (rng.random() < 0.5 or steps == 199):
                stack.pop()
                reg.exit_method()
                if not stack:
                    break
            else:
                _, eoi, ess = reg.enter_method()
                assert ess == len(stack)
                stack.append(ess)
                eoi_seen.append(eoi)
            steps += 1
        while stack:
            stack.pop()
            reg.exit_method()
        # eoi values are exactly 0..n-1 in call order within the trace
        assert eoi_seen == list(range(len(eoi_seen)))
        assert reg.enter_method() == (tid + 1, 0, 0)
        reg.exit_method()


def test_shared_registry_keeps_each_threads_state_under_forced_switching():
    # More threads than cores and a tiny switch interval, so threads swap
    # between every few bytecodes; each must still see only its own state.
    reg = TraceRegistry()
    deadline = time.monotonic() + 1.0
    trace_ids, errors = [], []

    def worker(seed):
        rng = random.Random(seed)
        mine = []
        try:
            while time.monotonic() < deadline:
                mine.append(reg.begin_trace())
                depth = 0  # the stack model: eoi counts entries, ess nesting
                entries = rng.randint(1, 12)
                for eoi in range(entries):
                    assert reg.enter_method() == (mine[-1], eoi, depth)
                    depth += 1
                    if rng.random() < 0.3 and depth > 1:
                        reg.exit_method()
                        depth -= 1
                # Still open: the next entry keeps the id.
                assert reg.enter_method() == (mine[-1], entries, depth)
                for _ in range(depth + 1):
                    reg.exit_method()
                # Closed: the next entry starts a new trace.
                trace_id, eoi, ess = reg.enter_method()
                assert trace_id > mine[-1] and (eoi, ess) == (0, 0)
                reg.exit_method()
        except AssertionError as exc:
            errors.append(exc)
        trace_ids.extend(mine)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert errors == []
    assert len(trace_ids) == len(set(trace_ids)) > 6
