"""Model architecture configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass
class ModelConfig:
    """Hyperparameters of a decoder-only transformer.

    Defaults follow the LLaMA recipe (RMSNorm + SwiGLU + RoPE, tied
    embeddings off).  The micro zoo instantiates this at toy scale; the
    *relative* capacity ladder across zoo members is what carries the
    paper's 7B/8B/70B structure.
    """

    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 0  # 0 -> derived as the LLaMA 8/3 rule rounded to a multiple of 8
    max_seq_len: int = 256
    rope_theta: float = 10000.0
    norm_eps: float = 1e-5
    tie_embeddings: bool = False
    init_std: float = 0.02

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ValueError("head dimension must be even for RoPE")
        if self.d_ff <= 0:
            raw = int(self.d_model * 8 / 3)
            self.d_ff = max(8, ((raw + 7) // 8) * 8)
        if self.vocab_size <= 0:
            raise ValueError("vocab_size must be positive")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def num_parameters(self) -> int:
        """Exact parameter count of a model built from this config."""
        d, v, f, L = self.d_model, self.vocab_size, self.d_ff, self.n_layers
        embed = v * d
        lm_head = 0 if self.tie_embeddings else d * v
        attn = 4 * d * d
        mlp = 3 * d * f
        norms = 2 * d * L + d
        return embed + lm_head + L * (attn + mlp) + norms


def scaled_config(
    vocab_size: int,
    scale: str,
    max_seq_len: int = 256,
    **overrides: Any,
) -> ModelConfig:
    """Named capacity tiers for the micro zoo.

    ``tiny`` mirrors the 7B tier, ``small`` the 8B tier (slightly larger and
    a better architecture generation), ``large`` the 70B tier.  Absolute
    sizes are toy; the ladder of relative capacities is what matters for the
    forgetting/retention phenomena under study.
    """
    tiers: Dict[str, Dict[str, int]] = {
        "tiny": {"d_model": 64, "n_layers": 3, "n_heads": 4},
        "small": {"d_model": 96, "n_layers": 3, "n_heads": 4},
        "medium": {"d_model": 112, "n_layers": 4, "n_heads": 4},
        "large": {"d_model": 128, "n_layers": 4, "n_heads": 4},
    }
    if scale not in tiers:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(tiers)}")
    params: Dict[str, Any] = dict(tiers[scale])
    params.update(overrides)
    return ModelConfig(vocab_size=vocab_size, max_seq_len=max_seq_len, **params)
