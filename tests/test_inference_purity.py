"""Inference carries no training state.

Every inference entry point runs only the layers' pure calls: it stashes
no activations for a backward, never sets the tied projection's input,
and allocates no gradient buffer (those materialize on first access).
So an inference call may run between a training forward and its
backward without changing a single gradient bit.
"""

import resource
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.model import (
    GenerationConfig,
    PrefixCache,
    PrefixCacheStore,
    TransformerLM,
    generate,
)
import repro.model.transformer as transformer
from repro.model.config import scaled_config
from repro.model.lora import LoRAConfig, apply_lora
from repro.model.workspace import workspace
from repro.serve import InferenceRequest, RequestKind, ServeEngine
from repro.train import corpus_perplexity
from tests.conftest import recording_step_logits

VOCAB = 64
# two rows: the training forward runs them as two shards, the second on a
# lane, so the interplay checks cover a lane's stash as well as the model's
ROW = np.array([[5, 17, 3, 42, 8, 29, 11, 60], [9, 33, 21, 4, 50, 7, 13, 26]])
TARGETS = np.array([[17, 3, 42, 8, 29, 11, 60, 2], [33, 21, 4, 50, 7, 13, 26, 1]])
OTHER = [9, 33, 21, 4, 50, 7, 13, 26]  # a different 8-token prompt
KINDS = ["untied", "tied", "lora"]


def make_model(kind):
    model = TransformerLM(
        scaled_config(VOCAB, "tiny", max_seq_len=64, tie_embeddings=kind == "tied"),
        seed=7,
    )
    if kind == "lora":
        apply_lora(model, LoRAConfig(rank=4), seed=1)
    return model


def cached_forward(model):
    cache = model.new_cache()
    return model.forward(np.array([OTHER]), cache=cache), cache


def generate_after(cover):
    """``generate()`` whose store holds a prefill of ``OTHER[:cover]``
    (``0``: an empty store, so the prompt misses); returns every step's
    logits and the store's entries."""

    def run(model):
        store = PrefixCacheStore()
        if cover:
            store.put(model.prefill(OTHER[:cover]))
        with recording_step_logits() as steps:
            generate(model, OTHER, GenerationConfig(max_new_tokens=4), store=store)
        return steps, store._entries

    return run


def decode_step(model):
    prefix = model.prefill(OTHER)
    cache = prefix.fork()
    return model.forward(np.array([[1]]), start_pos=len(OTHER), cache=cache), cache


def score_many_prefix(model):
    prefix = model.prefill(OTHER[:4])
    return model.next_token_logits_many([OTHER[4:], [], [2, 3]], prefix), prefix


def engine_drain(model):
    engine = ServeEngine(model)
    engine.submit(
        InferenceRequest(
            request_id="g", prompt_ids=tuple(OTHER),
            generation=GenerationConfig(max_new_tokens=4, temperature=0.8, seed=3),
        )
    )
    engine.submit(
        InferenceRequest(
            request_id="s", prompt_ids=tuple(OTHER[:5]), kind=RequestKind.SCORE
        )
    )
    engine.submit(
        InferenceRequest(
            request_id="h", prompt_ids=tuple(OTHER[:6]) + (2,),
            generation=GenerationConfig(max_new_tokens=3),
        )
    )
    states = engine.drain()
    assert len(states) == 3
    return [s.final_logits for s in states], engine.scheduler.prefix_store._entries


#: each entry point returns the arrays it hands out or stores, if any
ENTRY_POINTS = {
    "cached_forward": cached_forward,
    "decode_step": decode_step,
    "prefill": lambda m: m.prefill(OTHER),
    "score_many": lambda m: m.next_token_logits_many([OTHER, OTHER[:3], [2]]),
    "score_many_prefix": score_many_prefix,
    "next_token_logits": lambda m: m.next_token_logits(np.array(OTHER)),
    "corpus_perplexity": lambda m: corpus_perplexity(m, [OTHER, OTHER[:5]], 0, seq_len=6),
    "generate_miss": generate_after(0),
    "generate_partial_cover": generate_after(5),
    "generate_exact_cover": generate_after(len(OTHER)),
    "engine_drain": engine_drain,
    "generate_sampled": lambda m: generate(
        m, OTHER, GenerationConfig(max_new_tokens=4, temperature=0.7, top_p=0.9, seed=2)
    ),
}


def arrays_in(result):
    """Every array in an entry point's result: logits, and the K/V and
    ``last_logits`` of caches and prefix caches."""
    if isinstance(result, np.ndarray):
        yield result
    elif isinstance(result, PrefixCache):
        yield from arrays_in((result.cache, result.last_logits))
    elif isinstance(result, dict):
        yield from arrays_in(list(result.values()))
    elif isinstance(result, (list, tuple)):
        for item in result:
            yield from arrays_in(item)


def training_state(model):
    """Names of modules holding a backward stash or gradient buffers, and
    the training lanes, which only a training forward builds."""
    held = [f"{name or 'model'}._cache" for name, m in model.modules() if m._cache is not None]
    held += [f"{name or 'model'}.grads" for name, m in model.modules() if m._grads]
    if model._tied_cache is not None:
        held.append("model._tied_cache")
    held += [f"lane{i}" for i, _ in enumerate(model._lanes, 1)]
    return held


#: the entry points that score more than one row in one batched call
SHARDED = {"score_many", "score_many_prefix"}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_inference_builds_no_lane_and_starts_no_thread(monkeypatch, entry):
    """No inference entry point builds a lane.  Only batched scoring of
    several rows splits them into shards on the shard pool, and starts at
    most ``SHARDS - 1`` threads; every other entry point never asks for
    the pool and starts no thread."""
    if entry not in SHARDED:

        def no_pool(pid):
            raise AssertionError("inference asked for the shard pool")

        monkeypatch.setattr(transformer, "_shard_pool", no_pool)
    model = make_model("untied")
    threads = threading.active_count()
    ENTRY_POINTS[entry](model)
    assert model._lanes == []
    started = threading.active_count() - threads
    assert started <= (transformer.SHARDS - 1 if entry in SHARDED else 0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_inference_leaves_no_training_state(kind, entry):
    model = make_model(kind)
    assert training_state(model) == []
    ENTRY_POINTS[entry](model)
    assert training_state(model) == []


def step_gradients(model, interrupt=None):
    """One training step's gradients, with ``interrupt(model)`` run
    between the forward and the backward."""
    loss, dlogits = model.cross_entropy(model.forward(ROW), TARGETS)
    if interrupt is not None:
        interrupt(model)
    model.backward(dlogits)
    return loss, model.named_gradients()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_inference_between_forward_and_backward_keeps_gradients(kind, entry):
    want_loss, want = step_gradients(make_model(kind))
    loss, got = step_gradients(make_model(kind), ENTRY_POINTS[entry])
    np.testing.assert_array_equal(loss, want_loss)
    assert got.keys() == want.keys()
    changed = [name for name in want if not np.array_equal(got[name], want[name])]
    assert changed == []


@pytest.mark.parametrize("kind", KINDS)
def test_pure_forward_matches_training_forward_bit_for_bit(kind):
    """An empty cache has nothing to concatenate and a mask offset of 0,
    so the pure forward gives the training forward's bits."""
    model = make_model(kind)
    tokens = np.random.default_rng(0).integers(1, VOCAB, size=(3, 20))
    logits = model.forward(tokens)
    assert np.array_equal(model.forward(tokens, cache=model.new_cache()), logits)
    assert np.array_equal(model.next_token_logits(tokens[0]), logits[0, -1])


def test_gradient_buffers_materialize_on_first_access():
    model = make_model("untied")
    assert not any(m._grads for _, m in model.modules())
    grads = model.named_gradients()
    params = model.named_parameters()
    assert grads.keys() == params.keys()
    for name, g in grads.items():
        assert g.shape == params[name].shape and g.dtype == params[name].dtype
        assert not g.any()
    # made once: later accesses and backward reuse the same arrays
    again = model.named_gradients()
    assert all(again[name] is g for name, g in grads.items())
    model.backward(model.cross_entropy(model.forward(ROW), TARGETS)[1])
    assert all(model.named_gradients()[name] is g for name, g in grads.items())
    assert grads["embed.weight"].any()


def test_batched_scoring_keeps_no_activations():
    """A multi-row ``next_token_logits_many`` keeps nothing once its
    result is dropped.  Stashing every layer's activations kept 1.55 MB
    here; the bound is 64 KB."""
    model = TransformerLM(scaled_config(120, "tiny", max_seq_len=96), seed=0)
    rng = np.random.default_rng(0)
    prefix = model.prefill(rng.integers(1, 120, size=24).tolist())
    rows = [rng.integers(1, 120, size=int(n)).tolist() for n in rng.integers(4, 20, size=16)]
    model.next_token_logits_many(rows, prefix)  # one-time allocations
    for p in (prefix, None):
        tracemalloc.start()
        try:
            out = model.next_token_logits_many(rows, p)
            assert out.shape == (16, 120)
            del out
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 64 * 1024


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_results_do_not_share_the_workspace(kind, entry):
    """What an entry point returns or stores is fresh memory, never a
    view of the thread's workspace, whose bytes the next call reuses."""
    model = make_model(kind)
    ENTRY_POINTS[entry](model)  # sizes the workspace
    result = ENTRY_POINTS[entry](model)
    buffer = workspace().buffer
    shared = [a.shape for a in arrays_in(result) if np.shares_memory(a, buffer)]
    assert shared == []


def test_scoring_results_survive_the_next_call():
    model = make_model("untied")
    prefix = model.prefill(OTHER[:4])
    first = model.next_token_logits_many([OTHER[4:], [2, 3]], prefix)
    kept = first.copy()
    model.next_token_logits_many([[7, 8, 9, 10, 11], OTHER, [1]], prefix)
    model.next_token_logits_many([OTHER[::-1]])
    assert np.array_equal(first, kept)


def test_threads_score_in_their_own_workspaces():
    """Each thread takes from its own workspace: threads scoring at once,
    switching often, get the bits a lone caller gets."""
    model = make_model("untied")
    prefix = model.prefill(OTHER[:4])
    rng = np.random.default_rng(1)
    batches = [
        [rng.integers(1, VOCAB, size=int(n)).tolist() for n in rng.integers(1, 12, size=6)]
        for _ in range(6)
    ]
    want = [model.next_token_logits_many(rows, prefix) for rows in batches]
    got = {}

    def score(i):
        for _ in range(5):
            got[i] = model.next_token_logits_many(batches[i], prefix)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=score, args=(i,)) for i in range(len(batches))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, logits in enumerate(want):
        np.testing.assert_array_equal(got[i], logits)


def test_warm_batched_scoring_takes_no_page_faults():
    """Bench shape (large tier, vocab 803, a 76-token prefix, 32 rows of
    20-40 tokens): once the workspace is warm, a scoring call allocates
    nothing that the C allocator must fault back in.  Freeing every
    temporary per block (no workspace) took about 6,000 minor faults per
    call here."""
    model = TransformerLM(scaled_config(803, "large", max_seq_len=256), seed=1)
    rng = np.random.default_rng(0)
    prefix = model.prefill(rng.integers(1, 803, size=76).tolist())
    rows = [rng.integers(1, 803, size=int(n)).tolist() for n in rng.integers(20, 41, size=32)]
    model.next_token_logits_many(rows, prefix)  # warm
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    model.next_token_logits_many(rows, prefix)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 64
