"""Training metrics: corpus perplexity."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.model.transformer import TransformerLM
from repro.train.dataloader import pack_documents


def corpus_perplexity(
    model: TransformerLM,
    token_docs: Sequence[Sequence[int]],
    eos_id: int,
    seq_len: Optional[int] = None,
    batch_size: int = 16,
    max_windows: Optional[int] = None,
) -> float:
    """Token-level perplexity of ``model`` over packed documents.

    Computes the exact mean negative log-likelihood across all evaluated
    windows (weighted by token count, which is constant per window here).
    """
    seq_len = seq_len or model.config.max_seq_len
    windows = pack_documents(token_docs, seq_len, eos_id)
    if max_windows is not None:
        windows = windows[:max_windows]
    if windows.shape[0] == 0:
        raise ValueError("no evaluation windows produced")
    total_nll = 0.0
    total_tokens = 0
    for start in range(0, windows.shape[0], batch_size):
        batch = windows[start : start + batch_size]
        inputs, targets = batch[:, :-1], batch[:, 1:]
        # a throwaway cache makes this the pure (inference) forward
        logits = model.forward(inputs, cache=model.new_cache())
        loss, _ = model.cross_entropy(logits, targets)
        n = targets.size
        total_nll += loss * n
        total_tokens += n
    return float(np.exp(min(total_nll / total_tokens, 30.0)))
