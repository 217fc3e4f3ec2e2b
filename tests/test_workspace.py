"""The per-thread workspace: scoped bump allocation, and growth."""

import tracemalloc

import numpy as np
import pytest

from repro.model.workspace import Workspace

F32 = np.dtype(np.float32)
MB = 1 << 20


def test_scopes_reuse_bytes_and_nested_takes_do_not_overlap():
    ws = Workspace()
    with ws.scope():
        ws.take((1024,), F32)  # sizes the buffer
    with ws.scope():
        a = ws.take((256,), F32)
        b = ws.take((256,), F32)
        assert not np.shares_memory(a, b)
        with ws.scope():
            c = ws.take((256,), F32)
            assert not np.shares_memory(c, a) and not np.shares_memory(c, b)
        d = ws.take((256,), F32)  # the inner scope's bytes again
        assert np.shares_memory(d, c)
    with ws.scope():
        assert np.shares_memory(ws.take((256,), F32), a)
    for view in (a, b, c, d):
        assert np.shares_memory(view, ws.buffer)


def test_take_outside_a_scope_raises():
    with pytest.raises(RuntimeError):
        Workspace().take((4,), F32)


def test_growth_drops_the_old_buffer_before_touching_the_new_one():
    """A take past the end is a fresh array; the buffer grows when the
    outermost scope exits, with no view alive, so the growth's peak is
    the new buffer, not the old one plus the new one."""
    ws = Workspace()
    tracemalloc.start()
    try:
        with ws.scope():
            ws.take((MB // 4,), F32)  # 1 MB: fresh, then the buffer grows to it
        with ws.scope():
            ws.take((MB // 4,), F32)  # in the buffer
            past = ws.take((16,), F32)  # past its end
            assert not np.shares_memory(past, ws.buffer)
            del past
            tracemalloc.reset_peak()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ws.buffer.size > MB
    assert peak < 1.5 * MB
