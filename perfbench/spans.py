"""Span tracing from the benchmark's side of the layer boundaries.

The program under test carries no instrumentation.  :class:`Tracer`
replaces public functions of each layer with wrappers that record one
span per call (name, start, end, parent span, request id) in memory;
:func:`install_layer_spans` lists the functions.  Spans are written out
when the run ends, and :func:`self_times` turns them into time spent in
each layer itself, not in the layers it called.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from typing import Callable, Dict, List, Optional, Sequence

ROOT = -1  # parent index of a span opened with no enclosing span


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "phase", "attrs")

    def __init__(self, name, start, parent, rid, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.phase = phase
        self.attrs = None

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; wraps functions so each call opens one.

    ``phase`` tags every span opened while it is set (``"setup"``,
    ``"run"``), so set-up cost and the measured window can be told
    apart.  Spans are only recorded while ``enabled``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.phase = "setup"
        self.enabled = True
        self._stack: List[int] = []
        self._patches: list = []

    # -- recording ------------------------------------------------------
    def open(self, name: str, rid: Optional[str] = None) -> int:
        parent = self._stack[-1] if self._stack else ROOT
        if rid is None and parent != ROOT:
            rid = self.spans[parent].rid
        self.spans.append(Span(name, self.clock(), parent, rid, self.phase))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped} open)")

    # -- wrapping -------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        rid_of: Optional[Callable] = None,
        attrs_of: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``rid_of(args)`` names the request a call serves; ``attrs_of(args,
        kwargs, result)`` stores extra facts on the span (shapes, outcomes).
        Generator functions get one span per item drawn from them.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    if not tracer.enabled:
                        item = next(inner, StopIteration)
                    else:
                        index = tracer.open(name)
                        try:
                            item = next(inner, StopIteration)
                        finally:
                            tracer.close(index)
                    if item is StopIteration:
                        return
                    yield item

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                index = tracer.open(name, rid_of(args) if rid_of else None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
                if attrs_of is not None:
                    tracer.spans[index].attrs = attrs_of(args, kwargs, result)
                return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output ---------------------------------------------------------
    def write(self, path: str) -> None:
        """One JSON object per span, in the order the spans were opened."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "rid": s.rid,
                            "phase": s.phase,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged before being
    subtracted, so overlapping or overhanging children are not counted
    twice.
    """
    children: Dict[int, List[tuple]] = {}
    for s in spans:
        if s.parent != ROOT:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, s.start), min(end, s.end)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.duration - covered)
    return out


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports.

    Functions a module imports by name are wrapped where they are bound
    (``generate`` and ``parse_model_answer`` in ``repro.eval.full_instruct``,
    ``clip_grad_norm`` in ``repro.train.trainer``), since that is the name
    the caller looks up.
    """
    from repro.core.world import MicroWorld
    from repro.corpus import datasets
    from repro.eval import full_instruct
    from repro.eval.runner import BatchedEvaluationRunner
    from repro.eval.token_pred import TokenPredictionEvaluator
    from repro.model.kv_cache import PrefixCacheStore
    from repro.model.transformer import TransformerLM
    from repro.serve.admission import AdmissionQueue
    from repro.serve.engine import ServeEngine
    from repro.serve.scheduler import ContinuousBatchingScheduler
    from repro.tokenizer.word import WordTokenizer
    from repro.train import trainer as trainer_mod
    from repro.train.cpt import ContinualPretrainer
    from repro.train.dataloader import PackedDataset
    from repro.train.optimizer import AdamW

    w = tracer.wrap
    w(MicroWorld, "build", "core.world:build")
    w(datasets, "build_summary_dataset", "corpus:build_summary_dataset")
    w(TransformerLM, "__init__", "model.transformer:init")

    w(ServeEngine, "submit", "serve.engine:submit", rid_of=lambda a: a[1].request_id)
    w(ServeEngine, "step", "serve.engine:step")
    w(AdmissionQueue, "push", "serve.admission:push", rid_of=lambda a: a[1].request_id)
    w(AdmissionQueue, "pop", "serve.admission:pop")
    w(ContinuousBatchingScheduler, "step", "serve.scheduler:step")
    # admission prefill of one request; private, but it is the only
    # boundary that knows which request a prefill serves
    w(ContinuousBatchingScheduler, "_start", "serve.scheduler:start",
      rid_of=lambda a: a[1].request_id)

    w(PrefixCacheStore, "match", "model.kv_cache:match")
    w(PrefixCacheStore, "put", "model.kv_cache:put")
    w(TransformerLM, "forward", "model.transformer:forward", attrs_of=_forward_attrs)
    w(TransformerLM, "backward", "model.transformer:backward")
    w(TransformerLM, "prefill", "model.transformer:prefill")
    w(TransformerLM, "next_token_logits", "model.transformer:next_token_logits")
    w(TransformerLM, "next_token_logits_many", "model.transformer:next_token_logits_many")
    w(full_instruct, "generate", "model.sampling:generate")

    w(WordTokenizer, "encode", "tokenizer:encode")
    w(WordTokenizer, "decode", "tokenizer:decode")

    w(BatchedEvaluationRunner, "run", "eval.runner:run")
    w(TokenPredictionEvaluator, "predict_many", "eval.token_pred:predict_many")
    w(TokenPredictionEvaluator, "predict", "eval.token_pred:predict")
    w(full_instruct.FullInstructEvaluator, "answer", "eval.full_instruct:answer")
    w(full_instruct, "parse_model_answer", "eval.parsing:parse",
      attrs_of=lambda a, k, r: {"stage": r.stage})

    w(ContinualPretrainer, "run", "train.cpt:run")
    w(trainer_mod.Trainer, "train", "train.trainer:train")
    w(PackedDataset, "batches", "train.dataloader:next")
    w(AdamW, "step", "train.optimizer:step")
    w(trainer_mod, "clip_grad_norm", "train.optimizer:clip")


def _forward_attrs(args, kwargs, result) -> dict:
    """Batch rows, new positions and, for an incremental forward, the K/V
    bytes the attention re-materialises.

    The attention layer rebinds each layer's cache to freshly
    concatenated ``(B, H, L + T, hd)`` keys and values, so every
    incremental forward copies the whole cache once.  The byte count is
    computed from the shapes of the rebound arrays, not measured.
    """
    tokens = args[1]
    cache = kwargs.get("cache", args[3] if len(args) > 3 else None)
    shape = tokens.shape if hasattr(tokens, "shape") else (len(tokens),)
    rows, new = (1, shape[0]) if len(shape) == 1 else (shape[0], shape[1])
    out = {"rows": int(rows), "t": int(new), "cached": cache is not None, "kv_bytes": 0}
    if cache:
        k = cache[0].get("k")
        if k is not None:
            b, h, length, hd = k.shape
            out["kv_bytes"] = int(2 * len(cache) * b * h * length * hd * k.itemsize)
    return out


def layer_metrics(tracer: Tracer, setup_repeats: int) -> Dict[str, float]:
    """Per-layer figures from the recorded spans.

    Figures of the measured window come from ``run``-phase spans;
    ``setup.*`` and ``tokenizer.setup_encode_ms`` are per set-up, from
    ``setup``-phase spans.  A layer the workload never reaches reads 0.
    """
    from measure import mean, percentile

    spans = tracer.spans
    run: Dict[str, List[Span]] = {}
    setup: Dict[str, List[Span]] = {}
    for s in spans:
        (run if s.phase == "run" else setup).setdefault(s.name, []).append(s)

    def ms(group):
        return [1e3 * s.duration for s in group]

    def pct(values, p):
        return percentile(values, p) if values else 0.0

    def per_setup_ms(name):
        return sum(ms(setup.get(name, []))) / setup_repeats

    forwards = run.get("model.transformer:forward", [])
    decode = [s for s in forwards if s.attrs["cached"] and s.attrs["t"] == 1]
    prefill = run.get("model.transformer:prefill", []) + [
        s for s in forwards if s.attrs["cached"] and s.attrs["t"] > 1
    ]
    train_fwd = [
        s
        for s in forwards
        if s.parent != ROOT and spans[s.parent].name == "train.trainer:train"
    ]
    steps = ms(run.get("serve.engine:step", []))
    parses = run.get("eval.parsing:parse", [])
    stages = [s.attrs["stage"] for s in parses]
    out = {
        "serve.engine.step_ms_p50": pct(steps, 50),
        "serve.engine.step_ms_p99": pct(steps, 99),
        "serve.engine.steps": len(steps),
        "model.kv_cache.bytes_copied_per_token": mean([s.attrs["kv_bytes"] for s in decode]),
        "model.transformer.prefill_ms": mean(ms(prefill)),
        "model.transformer.prefill_calls": len(prefill),
        "model.transformer.decode_forward_ms_p50": pct(ms(decode), 50),
        "model.transformer.decode_rows_per_call": mean([s.attrs["rows"] for s in decode]),
        "model.transformer.score_batch_ms": mean(ms(run.get("model.transformer:next_token_logits_many", []))),
        "model.transformer.train_fwd_ms": mean(ms(train_fwd)),
        "model.transformer.train_bwd_ms": mean(ms(run.get("model.transformer:backward", []))),
        "model.sampling.generate_ms": mean(ms(run.get("model.sampling:generate", []))),
        "tokenizer.encode_ms": mean(ms(run.get("tokenizer:encode", []))),
        "tokenizer.encode_calls": len(run.get("tokenizer:encode", [])),
        "tokenizer.decode_ms": mean(ms(run.get("tokenizer:decode", []))),
        "tokenizer.decode_calls": len(run.get("tokenizer:decode", [])),
        "tokenizer.setup_encode_ms": per_setup_ms("tokenizer:encode"),
        "eval.token_pred.predict_many_ms": mean(ms(run.get("eval.token_pred:predict_many", []))),
        "eval.parsing.parse_ms": mean(ms(parses)),
        "eval.parsing.interpreter_frac": stages.count("interpreter") / len(stages) if stages else 0.0,
        "eval.parsing.fail_frac": stages.count("failed") / len(stages) if stages else 0.0,
        "train.dataloader.wait_ms": mean(ms(run.get("train.dataloader:next", []))),
        "train.optimizer.step_ms": mean(ms(run.get("train.optimizer:step", []))),
        "train.optimizer.clip_ms": mean(ms(run.get("train.optimizer:clip", []))),
        "setup.world_build_ms": per_setup_ms("core.world:build"),
        "setup.dataset_build_ms": per_setup_ms("corpus:build_summary_dataset"),
        "setup.model_init_ms": per_setup_ms("model.transformer:init"),
    }
    own = self_times(spans)
    for i, s in enumerate(spans):
        if s.phase == "run":
            key = f"{s.layer}.self_s"
            out[key] = out.get(key, 0.0) + own[i]
    return out
