"""Decoder-only transformer language model in pure NumPy.

This package is the reproduction's stand-in for the LLaMA family: a
from-scratch, fully differentiable (manual backprop) implementation of the
LLaMA architecture — RoPE causal attention, RMSNorm, SwiGLU — plus the
training-adjacent machinery the paper relies on (LoRA adapters for the
original AstroLLaMA recipe, bf16 emulation, KV-cache generation for the
full-instruct evaluation method).  Checkpoints use the one SHA-256
manifest format in :mod:`repro.train.checkpointing`.

All hot paths are vectorized over ``(batch, head, position)`` per the HPC
guide idioms; there are no per-token Python loops in forward or backward.

Compute dtype = parameter dtype (float32); bf16 is emulated by rounding
float32 parameters.  Activations, KV caches, logits and gradients all
take the parameters' dtype (``tests/test_dtype_contract.py``; lint rule R8
keeps float64 NumPy scalars out).
"""

from repro.model.config import ModelConfig
from repro.model.layers import Embedding, Linear, Module, RMSNorm
from repro.model.attention import MultiHeadAttention, RotaryEmbedding
from repro.model.kv_cache import (
    KVCache,
    PrefixCache,
    PrefixCacheStore,
    cache_length,
    common_prefix_len,
    debug_cache_guard_enabled,
    fork_cache,
    shared_prefix,
)
from repro.model.mlp import SwiGLU
from repro.model.transformer import TransformerBlock, TransformerLM
from repro.model.sampling import GenerationConfig, generate, greedy_decode
from repro.model.lora import LoRAConfig, LoRALinear, apply_lora, merge_lora
from repro.model.precision import bf16_round

__all__ = [
    "ModelConfig",
    "Module",
    "Linear",
    "Embedding",
    "RMSNorm",
    "RotaryEmbedding",
    "MultiHeadAttention",
    "SwiGLU",
    "TransformerBlock",
    "TransformerLM",
    "KVCache",
    "PrefixCache",
    "PrefixCacheStore",
    "cache_length",
    "common_prefix_len",
    "debug_cache_guard_enabled",
    "fork_cache",
    "shared_prefix",
    "GenerationConfig",
    "generate",
    "greedy_decode",
    "LoRAConfig",
    "LoRALinear",
    "apply_lora",
    "merge_lora",
    "bf16_round",
]
