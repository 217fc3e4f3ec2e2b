"""Data loading: document packing for CPT, padded batching for SFT.

Packing follows the standard pretraining recipe: documents are tokenized,
joined with EOS separators into one long stream, and the stream is sliced
into fixed-length windows.  No token is wasted on padding, and each window
yields ``seq_len`` prediction targets (the shifted window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import new_rng


def pack_documents(
    token_docs: Sequence[Sequence[int]],
    seq_len: int,
    eos_id: int,
) -> np.ndarray:
    """Concatenate documents (EOS-separated) and slice into windows.

    Returns an int64 array of shape ``(n_windows, seq_len + 1)``; window
    ``[i, :-1]`` is the input and ``[i, 1:]`` the target.  The final
    partial window is padded with EOS (EOS predictions are harmless for
    the LM objective), so no token is dropped.
    """
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    stream: List[int] = []
    for doc in token_docs:
        stream.extend(int(t) for t in doc)
        stream.append(eos_id)
    window = seq_len + 1
    n_windows = max(-(-len(stream) // window), 1)
    stream.extend([eos_id] * (n_windows * window - len(stream)))
    return np.asarray(stream, dtype=np.int64).reshape(n_windows, window)


class PackedDataset:
    """Shuffled mini-batch iterator over packed windows.

    Iteration order is reshuffled every epoch from a per-epoch derived seed,
    so runs are reproducible regardless of how many epochs were consumed
    beforehand.
    """

    def __init__(
        self,
        windows: np.ndarray,
        batch_size: int,
        seed: int = 0,
    ) -> None:
        if windows.ndim != 2:
            raise ValueError("windows must be 2-D (n, seq_len+1)")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.windows = windows
        self.batch_size = batch_size
        self.seed = seed
        self.epoch = 0

    def __len__(self) -> int:
        return -(-self.windows.shape[0] // self.batch_size)

    def batches(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(inputs, targets)`` batches for one epoch, then bump epoch."""
        rng = new_rng(self.seed, "epoch", self.epoch)
        order = rng.permutation(self.windows.shape[0])
        for start in range(0, len(order), self.batch_size):
            idx = order[start : start + self.batch_size]
            batch = self.windows[idx]
            yield batch[:, :-1], batch[:, 1:]
        self.epoch += 1


@dataclass
class PaddedBatch:
    """A right-padded SFT batch: inputs, shifted targets, and a loss mask."""

    inputs: np.ndarray  # (B, T) int64
    targets: np.ndarray  # (B, T) int64
    loss_mask: np.ndarray  # (B, T) float32; 1 where the loss applies


def pad_examples(
    examples: Sequence[Tuple[Sequence[int], Sequence[int]]],
    pad_id: int,
    max_len: Optional[int] = None,
) -> PaddedBatch:
    """Assemble (prompt_ids, response_ids) pairs into a masked LM batch.

    The model is trained to predict the response tokens only: positions
    whose *target* falls inside the prompt (or padding) carry zero loss
    mask.  Sequences longer than ``max_len`` are truncated from the right.
    """
    seqs = []
    prompt_lens = []
    for prompt, response in examples:
        seq = list(prompt) + list(response)
        if max_len is not None and len(seq) > max_len:
            seq = seq[:max_len]
        seqs.append(seq)
        prompt_lens.append(min(len(prompt), len(seq)))
    T = max(len(s) for s in seqs)
    if T < 2:
        raise ValueError("examples must contain at least 2 tokens")
    B = len(seqs)
    inputs = np.full((B, T - 1), pad_id, dtype=np.int64)
    targets = np.full((B, T - 1), pad_id, dtype=np.int64)
    mask = np.zeros((B, T - 1), dtype=np.float32)
    for i, (seq, p_len) in enumerate(zip(seqs, prompt_lens)):
        L = len(seq)
        inputs[i, : L - 1] = seq[:-1]
        targets[i, : L - 1] = seq[1:]
        # target position j predicts seq[j+1]; loss applies iff j+1 >= p_len
        start = max(p_len - 1, 0)
        mask[i, start : L - 1] = 1.0
    return PaddedBatch(inputs, targets, mask)
