"""bfloat16 emulation.

Compute dtype = parameter dtype (float32); bf16 is emulated by rounding
float32 parameters.

The paper trains in bf16; NumPy has no native bfloat16, so we emulate the
format's effect by rounding float32 values to the nearest representable
bfloat16 (8-bit exponent, 7-bit mantissa) while keeping float32 storage.
The trainer applies this after each optimizer step when the precision
policy asks for it, reproducing bf16's characteristic quantization of
small parameter updates.
"""

from __future__ import annotations

import numpy as np


def bf16_round(x: np.ndarray) -> np.ndarray:
    """Round float32 array to bfloat16 precision (round-to-nearest-even)."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    bits = x.view(np.uint32)
    # round-to-nearest-even on the truncated 16 mantissa bits
    rounding_bias = ((bits >> 16) & 1) + np.uint32(0x7FFF)
    rounded = (bits + rounding_bias) & np.uint32(0xFFFF0000)
    return rounded.view(np.float32)


def bf16_round_(x: np.ndarray) -> None:
    """In-place variant of :func:`bf16_round`."""
    x[...] = bf16_round(x)

