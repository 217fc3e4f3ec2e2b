"""Shared pytest wiring: the tier marker taxonomy.

Every test belongs to exactly one tier (see ``docs/testing.md``):

* ``tier1`` — fast, deterministic; the blocking CI gate.  Applied
  automatically to any test that doesn't opt into another tier, so new
  tests are tier-1 by default and nothing silently falls out of CI;
* ``slow`` — long-running end-to-end pipelines (opt-in, per module or
  class);
* ``faults`` — the fault-injection recovery matrix (opt-in).

``--strict-markers`` (set in ``pyproject.toml``) turns marker typos into
collection errors instead of silently-unselected tests.

It also holds the model and the step-logit recorder the cache and
decode-parity suites share.
"""

import contextlib

import pytest

from repro.model import ModelConfig, TransformerLM
from repro.model.sampling import DecodeStream

# how far a cached or batched path's logits may be from the full forward's
ATOL = 1e-5


def position_sensitive_model(seed=0):
    """Three blocks at init std 0.1 instead of 0.02.

    At std 0.02 attention is near uniform, so a token attended at the
    wrong RoPE position barely moves the logits.  Here a decode step one
    position early moves them by more than 100x ``ATOL`` (see
    ``test_position_sensitive_fixture_margin`` in ``test_kv_cache.py``),
    while the cached and batched paths still agree with the full forward
    to well within it.
    """
    return TransformerLM(
        ModelConfig(
            vocab_size=120, d_model=32, n_layers=3, n_heads=4,
            max_seq_len=96, init_std=0.1,
        ),
        seed=seed,
    )


@contextlib.contextmanager
def recording_step_logits(engine=None):
    """Record the logits each decode step samples from, by wrapping
    ``DecodeStream.select`` in the block.

    With an ``engine``, yields {request id: its steps' logits} for the
    engine's running requests; without one, a list of every step's
    logits in select order (one ``generate()`` call's, say).  The arrays
    are recorded as the stream holds them, not copied.
    """
    recorded, select = ([] if engine is None else {}), DecodeStream.select

    def spy(stream):
        if engine is None:
            recorded.append(stream.logits)
        else:
            for state in engine.scheduler.running:
                if state.decode is stream:
                    recorded.setdefault(state.request_id, []).append(stream.logits)
        return select(stream)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(DecodeStream, "select", spy)
        yield recorded


_EXPLICIT_TIERS = ("slow", "faults")


def pytest_collection_modifyitems(config, items):
    for item in items:
        if not any(item.get_closest_marker(name) for name in _EXPLICIT_TIERS):
            item.add_marker(pytest.mark.tier1)
