"""Per-thread scratch memory for inference temporaries.

Batched scoring and prefill make the same large temporaries in every
block (attention scores, scaled queries, context products, the MLP's
hidden state) and free them again.  Freed, they go back to the C
allocator, which trims the heap top, so the next block faults the same
pages back in.  A :class:`Workspace` keeps one flat buffer alive instead
and hands out views of it:

* ``with ws.scope():`` marks the current top; :meth:`Workspace.take`
  bump-allocates a view past it, and leaving the scope rewinds to the
  mark, so the next scope reuses the same bytes.  A block's attention and
  then its MLP each run in their own scope, and the buffer is as large as
  the largest phase, not the sum of every temporary;
* the buffer is never shrunk.  A take past its end is a fresh array;
  once the outermost scope has exited, the buffer is replaced by one as
  large as the scopes wanted, whose pages are faulted in there and then.
  The old buffer is dropped first, so the peak is the largest call's
  need, not old plus new, and a warm call of the same shape touches no
  fresh page;
* a view never outlives its scope: a caller copies (or computes a fresh
  array from) whatever it returns, stores in a cache or hands a caller.
  Lint rule R11 (``workspace-escape``) checks this statically, and
  ``tests/test_inference_purity.py`` checks it at runtime.

:func:`workspace` returns the calling thread's workspace, shared by every
model on that thread.
"""

from __future__ import annotations

import math
import threading
from typing import Tuple

import numpy as np

#: every take starts on a cache-line boundary
_ALIGN = 64


class Workspace:
    """One flat byte buffer, bump-allocated in nested scopes."""

    def __init__(self) -> None:
        self.buffer = np.empty(0, dtype=np.uint8)
        self._top = 0
        self._depth = 0
        self._need = 0  # bytes the scopes wanted past the buffer's end

    def scope(self) -> "_Scope":
        """``with ws.scope():`` releases the views taken inside, all at
        once, on exit."""
        return _Scope(self)

    def take(self, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """An uninitialized C-contiguous array of ``shape`` and ``dtype``,
        valid until the enclosing scope exits.  A take past the buffer's
        end is a fresh array; the buffer grows to fit it once the
        outermost scope has exited."""
        if not self._depth:
            raise RuntimeError("Workspace.take outside a scope")
        start = self._top
        end = start + math.prod(shape) * dtype.itemsize
        self._top = end + (-end) % _ALIGN
        if end > self.buffer.size:
            self._need = max(self._need, self._top)
            return np.empty(shape, dtype)
        return np.ndarray(shape, dtype, self.buffer, start)

    def _exit(self, mark: int) -> None:
        self._depth -= 1
        self._top = mark
        if not self._depth and self._need:
            # the old buffer's views are dead, so it goes before the new
            # one is made; the new pages fault in here, not next call
            self.buffer = np.empty(0, dtype=np.uint8)
            raw = np.empty(self._need + _ALIGN, dtype=np.uint8)
            skip = -raw.ctypes.data % _ALIGN
            self.buffer = raw[skip : skip + self._need]
            self.buffer.fill(0)
            self._need = 0


class _Scope:
    """A mark on a workspace's top; exiting rewinds to it."""

    __slots__ = ("_ws", "_mark")

    def __init__(self, ws: Workspace) -> None:
        self._ws = ws

    def __enter__(self) -> Workspace:
        self._mark = self._ws._top
        self._ws._depth += 1
        return self._ws

    def __exit__(self, *exc) -> None:
        self._ws._exit(self._mark)


class _PerThread(threading.local):
    def __init__(self) -> None:
        self.workspace = Workspace()


_LOCAL = _PerThread()


def workspace() -> Workspace:
    """The calling thread's workspace."""
    return _LOCAL.workspace
