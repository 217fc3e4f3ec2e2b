"""Row shards, in training and in batched scoring: the same bits at any
thread count.

``TransformerLM.forward`` (training) and ``backward`` split a batch of B
rows into ``min(SHARDS, B)`` contiguous shards.  Shard 0 runs on the
model, every other shard on a lane (a replica sharing the model's
arrays), on a helper thread when a second core is usable.  The loss runs
once over the whole batch and the lanes' gradients are added into the
model's in shard order, so the bits depend on the shard count only:
never on the thread count or the order in which shards finish.

``next_token_logits_many`` splits its forwarded rows the same way, cut
by token count, and runs the shards on the model itself on the same
pool; each shard projects into its own rows of the result.
"""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro.model.transformer as transformer
from repro.model import ModelConfig, TransformerLM
from repro.model.config import scaled_config
from repro.model.lora import LoRAConfig, LoRALinear, apply_lora
from repro.train import Trainer, TrainingConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VOCAB = 40
# the tolerances of test_train.py's grad_accum equivalence: one lane and
# two lanes sum the same terms in a different order
RTOL, ATOL = 1e-4, 1e-6


def small_model(seed=0, **overrides):
    config = dict(vocab_size=VOCAB, d_model=32, n_layers=2, n_heads=4, max_seq_len=32)
    config.update(overrides)
    return TransformerLM(ModelConfig(**config), seed=seed)


def batch(rows=4, length=12, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.integers(1, VOCAB, size=(rows, length))
    return x, np.roll(x, -1, axis=1)


def step(model, x, t, mask=None):
    """One forward, loss and backward from zeroed gradients; returns the
    loss and a copy of the gradients."""
    model.zero_grad()
    loss, dlogits = model.cross_entropy(model.forward(x), t, mask)
    model.backward(dlogits)
    return loss, {k: g.copy() for k, g in model.named_gradients().items()}


def one_lane(monkeypatch):
    monkeypatch.setattr(transformer, "SHARDS", 1)


def assert_grads_close(got, want):
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=RTOL, atol=ATOL, err_msg=name)


def assert_grads_equal(got, want):
    assert got.keys() == want.keys()
    assert [n for n in want if not np.array_equal(got[n], want[n])] == []


@pytest.fixture
def own_pool(monkeypatch):
    """A one-thread pool of the test's own, so the shards run on two
    threads whatever the host's core count."""
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(transformer, "_shard_pool", lambda pid: pool)
    yield pool
    pool.shutdown()


def no_pool(monkeypatch):
    monkeypatch.setattr(transformer, "_shard_pool", lambda pid: None)


# -- the split --------------------------------------------------------------
@pytest.mark.parametrize("tied", [False, True])
def test_two_lanes_match_one_lane(monkeypatch, tied):
    x, t = batch(rows=5)
    loss2, g2 = step(small_model(tie_embeddings=tied), x, t)
    one_lane(monkeypatch)
    loss1, g1 = step(small_model(tie_embeddings=tied), x, t)
    np.testing.assert_array_equal(loss2, loss1)
    assert_grads_close(g2, g1)


def test_lanes_share_every_array_and_own_their_buffers():
    model = small_model()
    x, t = batch()
    step(model, x, t)
    (lane,) = model._lanes
    mine, theirs = model.named_parameters(), lane.named_parameters()
    assert all(theirs[k] is a for k, a in mine.items())
    assert lane.rope is model.rope
    grads, lane_grads = model.named_gradients(), lane.named_gradients()
    assert not any(np.shares_memory(lane_grads[k], g) for k, g in grads.items())
    assert all(
        m is not l for (_, m), (_, l) in zip(model.modules(), lane.modules())
    )


def test_one_row_runs_on_the_model_alone_with_the_unsplit_bits():
    """B = 1 is one shard on the model: the bits of the unsplit forward
    and backward, and no lane is built."""
    model = small_model()
    x, t = batch(rows=1)
    loss, grads = step(model, x, t)
    assert model._lanes == []

    ref = small_model()
    h = ref.embed.forward(x)
    for block in ref.blocks:
        h = block.forward(h)
    logits = ref.head_forward(h)
    np.testing.assert_array_equal(logits, model.forward(x))
    want_loss, dlogits = ref.cross_entropy(logits, t)
    dx = ref.head_backward(dlogits)
    for block in reversed(ref.blocks):
        dx = block.backward(dx)
    ref.embed.backward(dx)
    np.testing.assert_array_equal(loss, want_loss)
    assert_grads_equal(grads, ref.named_gradients())


# -- the masked mean ----------------------------------------------------------
MASKS = {
    # SFT-style: prompt positions masked, answers of different lengths, so
    # the two shards hold 14 and 3 active tokens
    "unequal": np.array(
        [[0] * 4 + [1] * 8, [0] * 6 + [1] * 6, [0] * 10 + [1] * 2, [0] * 11 + [1]]
    ),
    "second-shard-empty": np.array([[0] * 3 + [1] * 9, [1] * 12, [0] * 12, [0] * 12]),
}


@pytest.mark.parametrize("label", sorted(MASKS))
def test_masked_mean_is_over_the_whole_batch(monkeypatch, label):
    mask = MASKS[label]
    x, t = batch()
    loss2, g2 = step(small_model(), x, t, mask)
    one_lane(monkeypatch)
    loss1, g1 = step(small_model(), x, t, mask)
    np.testing.assert_array_equal(loss2, loss1)
    assert_grads_close(g2, g1)


def test_grad_accum_with_two_lanes(monkeypatch):
    """Microbatches accumulate on top of each other: the lane sum adds
    into the model's gradients, it does not replace them."""
    x, t = batch(rows=8, seed=3)
    micro = [(x[:4], t[:4], None), (x[4:], t[4:], None)]
    config = TrainingConfig(learning_rate=1e-3, total_steps=1, grad_accum=2, clip_norm=0)

    def train():
        model = small_model(seed=2)
        history = Trainer(model, config).train(lambda: iter(micro))
        return history.losses, model.named_gradients()  # the step's sum

    losses2, g2 = train()
    one_lane(monkeypatch)
    losses1, g1 = train()
    np.testing.assert_array_equal(losses2, losses1)
    assert_grads_close(g2, g1)


# -- stale lanes ------------------------------------------------------------
def test_lanes_follow_apply_lora(monkeypatch):
    """Lanes built before ``apply_lora`` would train the replaced
    projections; they are rebuilt, and the adapters train as on one
    lane, with the frozen weights unchanged."""
    x, t = batch()

    def adapter_grads():
        model = small_model(seed=5)
        step(model, x, t)  # builds the lanes when sharding
        apply_lora(model, LoRAConfig(rank=4), seed=1)
        frozen = {
            name: m.frozen_weight.copy()
            for name, m in model.modules()
            if isinstance(m, LoRALinear)
        }
        _, grads = step(model, x, t)
        Trainer(model, TrainingConfig(learning_rate=1e-2, total_steps=2)).train(
            lambda: iter([(x, t, None)] * 2)
        )
        for name, m in model.modules():
            if isinstance(m, LoRALinear):
                np.testing.assert_array_equal(m.frozen_weight, frozen[name])
        return model, grads

    model, g2 = adapter_grads()
    assert any(isinstance(m, LoRALinear) for _, m in model._lanes[0].modules())
    one_lane(monkeypatch)
    _, g1 = adapter_grads()
    assert any("lora_A" in name for name in g2)
    assert_grads_close(g2, g1)


def test_lanes_follow_a_rebound_parameter(monkeypatch):
    """A float64 copy of a trained model rebinds every parameter (its
    lanes, copied with it, share the params dicts but hold float32
    gradient buffers): the lanes are rebuilt and train in float64."""
    from tests.test_model_grads import float64_copy

    x, t = batch()
    model = small_model()
    step(model, x, t)
    twin = float64_copy(model)
    _, grads = step(twin, x, t)
    (lane,) = twin._lanes
    assert all(g.dtype == np.float64 for g in lane.named_gradients().values())
    assert all(g.dtype == np.float64 for g in grads.values())
    one_lane(monkeypatch)
    _, want = step(float64_copy(small_model()), x, t)
    assert_grads_close(grads, want)


# -- threads ------------------------------------------------------------------
def test_threaded_shards_equal_the_same_shards_in_order(monkeypatch, own_pool):
    x, t = batch(rows=6, seed=4)
    threaded = step(small_model(), x, t)
    no_pool(monkeypatch)
    in_order = step(small_model(), x, t)
    np.testing.assert_array_equal(threaded[0], in_order[0])
    assert_grads_equal(threaded[1], in_order[1])


@pytest.mark.parametrize("last", ["model", "lane"])
def test_completion_order_does_not_change_the_bits(monkeypatch, own_pool, last):
    """The shard that finishes last, on the forward and on the backward,
    does not change the parameters after two optimizer steps."""
    x, t = batch(rows=4, seed=6)
    config = TrainingConfig(learning_rate=1e-2, total_steps=2)

    def train():
        model = small_model(seed=1)
        Trainer(model, config).train(lambda: iter([(x, t, None)] * 2))
        return model.named_parameters()

    no_pool(monkeypatch)
    want = train()

    monkeypatch.setattr(transformer, "_shard_pool", lambda pid: own_pool)
    for name in ("_lane_forward", "_lane_backward"):
        run = getattr(TransformerLM, name)
        done = threading.Event()

        def ordered(self, *args, _run=run, _done=done, **kwargs):
            # the lane has no lanes of its own; the model has one
            is_model = bool(self._lanes)
            if is_model == (last == "model"):
                assert _done.wait(timeout=30)
                _done.clear()
                return _run(self, *args, **kwargs)
            try:
                return _run(self, *args, **kwargs)
            finally:
                _done.set()

        monkeypatch.setattr(TransformerLM, name, ordered)
    assert_grads_equal(train(), want)


def test_more_shards_than_cores_under_fast_switching(monkeypatch):
    """Four shards on a three-thread pool (more workers than cores), the
    interpreter switching threads every microsecond: the lanes share the
    parameter arrays and the logits array, and the bits still equal the
    same four shards run in order."""
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(transformer, "SHARDS", 4)
    x, t = batch(rows=7, seed=8)
    no_pool(monkeypatch)
    want = step(small_model(), x, t)
    pool = ThreadPoolExecutor(3)
    monkeypatch.setattr(transformer, "_shard_pool", lambda pid: pool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        model = small_model()
        got = [step(model, x, t) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert len(model._lanes) == 3
    for loss, grads in got:
        np.testing.assert_array_equal(loss, want[0])
        assert_grads_equal(grads, want[1])


def test_pool_is_bounded_by_the_shard_count(monkeypatch):
    """On a 64-core affinity the pool still holds ``SHARDS - 1``
    threads; none is started to check it."""
    before = threading.active_count()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    pool = transformer._shard_pool.__wrapped__(-1)
    try:
        assert pool._max_workers == transformer.SHARDS - 1
        assert not pool._threads
        assert threading.active_count() == before
    finally:
        pool.shutdown()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert transformer._shard_pool.__wrapped__(-1) is None


CPT_STEPS = """
import json, os, sys
import numpy as np
if sys.argv[2] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from repro.model import ModelConfig, TransformerLM
from repro.model.config import scaled_config
from repro.train import ContinualPretrainer, CPTConfig
model = TransformerLM(
    ModelConfig(vocab_size=50, d_model=32, n_layers=2, n_heads=4, max_seq_len=32), seed=3
)
rng = np.random.default_rng(7)
docs = [rng.integers(1, 50, size=int(n)).tolist() for n in rng.integers(10, 40, 10)]
config = CPTConfig(
    learning_rate=3e-3, total_batch_size=4, max_token_length=24, bf16=False, seed=1
)
steps = ContinualPretrainer(config).run(model, docs, eos_id=0).steps
np.savez(sys.argv[1], **model.named_parameters())
print(json.dumps({"steps": steps, "cpus": len(os.sched_getaffinity(0))}))
"""


def test_cpt_bits_equal_on_one_and_all_cpus(tmp_path):
    """Three CPT steps in a process pinned to one cpu (no helper thread:
    the shards run in order) give the parameters of the same steps on
    every usable cpu.  BLAS is pinned to one thread in both, as
    perfbench pins it, so only the shard threads differ."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable cpu: both runs would be the same")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    params, cpus = {}, {}
    for mode in ("one", "all"):
        out = tmp_path / f"{mode}.npz"
        proc = subprocess.run(
            [sys.executable, "-c", CPT_STEPS, str(out), mode],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        facts = json.loads(proc.stdout.splitlines()[-1])
        assert facts["steps"] == 3
        cpus[mode] = facts["cpus"]
        with np.load(out) as saved:
            params[mode] = {k: saved[k] for k in saved.files}
    assert cpus["one"] == 1 and cpus["all"] >= 2
    assert_grads_equal(params["all"], params["one"])


# -- batched scoring ----------------------------------------------------------
SCORE_VOCAB = 300


def scoring_case(seed=0, rows=32):
    """A Table-I-shaped scoring call: the large tier, a 76-token prefix
    and ``rows`` suffixes of 20-39 tokens in ascending length, as
    ``predict_many`` sorts them.  Returns the model, the prefix and the
    suffixes."""
    model = TransformerLM(scaled_config(SCORE_VOCAB, "large", max_seq_len=128), seed=seed)
    rng = np.random.default_rng(seed)
    prefix = model.prefill(rng.integers(1, SCORE_VOCAB, 76).tolist())
    lengths = sorted(int(n) for n in rng.integers(20, 40, rows))
    suffixes = [rng.integers(1, SCORE_VOCAB, n).tolist() for n in lengths]
    return model, prefix, suffixes


def fail_pool(pid):
    raise AssertionError("a one-shard call asked for the shard pool")


def test_token_cut_balances_tokens_and_leaves_every_shard_a_row():
    lengths = [20, 21, 22, 25, 30, 33, 38, 39]  # 228 tokens
    first, second = transformer._token_shards(lengths, 2)
    # 20 + 21 + 22 + 25 = 88 < 114 <= 118: the cut follows the fifth row
    assert (first, second) == (slice(0, 5), slice(5, 8))
    assert transformer._token_shards([1, 100], 2) == [slice(0, 1), slice(1, 2)]
    assert transformer._token_shards([100, 1], 2) == [slice(0, 1), slice(1, 2)]
    assert transformer._token_shards([5] * 3, 1) == [slice(0, 3)]
    cuts = transformer._token_shards([1, 1, 1, 100], 4)
    assert cuts == [slice(i, i + 1) for i in range(4)]


def test_threaded_scoring_shards_equal_the_same_shards_in_order(monkeypatch, own_pool):
    model, prefix, suffixes = scoring_case()
    batches = [suffixes, suffixes[:7] + [[]] + suffixes[7:]]
    threaded = [model.next_token_logits_many(b, prefix) for b in batches]
    no_pool(monkeypatch)
    for batch_, got in zip(batches, threaded):
        np.testing.assert_array_equal(got, model.next_token_logits_many(batch_, prefix))


@pytest.mark.parametrize("last", ["caller", "helper"])
def test_scoring_completion_order_does_not_change_the_bits(monkeypatch, own_pool, last):
    """Either shard finishing its projection last gives the same bits:
    each writes its own rows of the result."""
    model, prefix, suffixes = scoring_case(seed=1)
    no_pool(monkeypatch)
    want = model.next_token_logits_many(suffixes, prefix)

    monkeypatch.setattr(transformer, "_shard_pool", lambda pid: own_pool)
    run = TransformerLM._project_logits
    done = threading.Event()

    def ordered(self, *args, **kwargs):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (last == "caller"):
            assert done.wait(timeout=30)
            return run(self, *args, **kwargs)
        try:
            return run(self, *args, **kwargs)
        finally:
            done.set()

    monkeypatch.setattr(TransformerLM, "_project_logits", ordered)
    np.testing.assert_array_equal(model.next_token_logits_many(suffixes, prefix), want)
    assert done.is_set()


def test_more_scoring_shards_than_cores_under_fast_switching(monkeypatch):
    """Four scoring shards on a three-thread pool, the interpreter
    switching threads every microsecond: the shards share the model, the
    prefix and the result array, each thread its own workspace, and the
    bits equal the same four shards run in order."""
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(transformer, "SHARDS", 4)
    model, prefix, suffixes = scoring_case(seed=5, rows=13)
    no_pool(monkeypatch)
    want = model.next_token_logits_many(suffixes, prefix)
    pool = ThreadPoolExecutor(3)
    monkeypatch.setattr(transformer, "_shard_pool", lambda pid: pool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [model.next_token_logits_many(suffixes, prefix) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    for logits in got:
        np.testing.assert_array_equal(logits, want)


SCORE_PINNED = """
import json, os, sys
import numpy as np
if sys.argv[2] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from repro.model import TransformerLM
from tests.test_train_shards import scoring_case
model, prefix, suffixes = scoring_case()
shards, run = [], TransformerLM._last_hidden
def spy(self, rows, *args, **kwargs):
    shards.append(len(rows))
    return run(self, rows, *args, **kwargs)
TransformerLM._last_hidden = spy
np.save(sys.argv[1], model.next_token_logits_many(suffixes, prefix))
print(json.dumps({"shards": sorted(shards), "cpus": len(os.sched_getaffinity(0))}))
"""


def test_scoring_bits_equal_on_one_and_all_cpus(tmp_path):
    """A process pinned to one cpu (no helper thread: the shards run in
    order) cuts the same shards and scores the same bits as one on every
    usable cpu, BLAS pinned to one thread in both."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable cpu: both runs would be the same")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(REPO_ROOT, "src"), REPO_ROOT]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    logits, facts = {}, {}
    for mode in ("one", "all"):
        out = tmp_path / f"{mode}.npy"
        proc = subprocess.run(
            [sys.executable, "-c", SCORE_PINNED, str(out), mode],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        facts[mode] = json.loads(proc.stdout.splitlines()[-1])
        logits[mode] = np.load(out)
    assert facts["one"]["cpus"] == 1 and facts["all"]["cpus"] >= 2
    assert facts["one"]["shards"] == facts["all"]["shards"]
    assert len(facts["all"]["shards"]) == transformer.SHARDS
    np.testing.assert_array_equal(logits["all"], logits["one"])


@pytest.mark.parametrize("empty", [False, True])
def test_one_shard_gives_the_unsplit_bits(monkeypatch, empty):
    """``SHARDS`` at 1: one unsplit pass over the forwarded rows, which
    never asks for the pool; empty suffixes take the prefix's logits."""
    model, prefix, suffixes = scoring_case(seed=2)
    batch_ = [[]] + suffixes[:10] + [[]] + suffixes[10:] if empty else suffixes
    live = [i for i, s in enumerate(batch_) if s]
    want = np.repeat(prefix.last_logits[None], len(batch_), axis=0)
    want[live] = model._project_logits(
        model._last_hidden([batch_[i] for i in live], prefix.length, prefix.cache)
    )
    monkeypatch.setattr(transformer, "SHARDS", 1)
    monkeypatch.setattr(transformer, "_shard_pool", fail_pool)
    np.testing.assert_array_equal(model.next_token_logits_many(batch_, prefix), want)


def test_one_forwarded_row_scores_as_prefill(monkeypatch):
    """One row, and one live row among empty suffixes, are one shard on
    the calling thread: a lone row scores ``prefill(row).last_logits``;
    beside empty suffixes it scores as it does alone, and the empty rows
    are the prefix's ``last_logits``."""
    model, prefix, suffixes = scoring_case(seed=3)
    monkeypatch.setattr(transformer, "_shard_pool", fail_pool)
    row = suffixes[5]
    np.testing.assert_array_equal(
        model.next_token_logits_many([row])[0], model.prefill(row).last_logits
    )
    alone = model.next_token_logits_many([row], prefix)[0]
    got = model.next_token_logits_many([[], row, []], prefix)
    np.testing.assert_array_equal(got[1], alone)
    np.testing.assert_array_equal(got[[0, 2]], np.stack([prefix.last_logits] * 2))


def test_helpers_call_no_traced_entry_point(monkeypatch, own_pool):
    """The benchmark's tracer wraps ``next_token_logits_many``,
    ``forward`` and ``prefill`` and keeps one span stack for all threads,
    so during a sharded score only the calling thread may enter them;
    the helper runs a shard's ``_last_hidden``."""
    seen = {}
    for name in ("next_token_logits_many", "forward", "prefill", "_last_hidden"):

        def spy(self, *args, _run=getattr(TransformerLM, name), _name=name, **kwargs):
            seen.setdefault(_name, set()).add(threading.current_thread())
            return _run(self, *args, **kwargs)

        monkeypatch.setattr(TransformerLM, name, spy)
    model, prefix, suffixes = scoring_case(seed=4)
    model.next_token_logits_many(suffixes, prefix)
    model.next_token_logits_many(suffixes[:3] + [[]] + suffixes[3:], prefix)
    main = threading.main_thread()
    for name in ("next_token_logits_many", "forward", "prefill"):
        assert seen.get(name, set()) <= {main}, name
    assert len(seen["_last_hidden"]) == 2 and main in seen["_last_hidden"]
