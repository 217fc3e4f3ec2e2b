"""Tests for ``repro.lint`` — the AST-based invariant checker.

Layout mirrors the acceptance contract: one minimal violating fixture
per rule (each triggers *exactly* that rule), clean counterparts that
must stay silent, suppression-comment behavior, a JSON-reporter golden,
CLI exit codes, and the "clean repo" gate asserting the checked-in tree
lints clean.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.lint import (
    LintConfig,
    all_rules,
    json_report,
    lint_source,
    run_lint,
    text_report,
)
from repro.lint.engine import PARSE_ERROR_RULE

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MODEL_PATH = "src/repro/model/snippet.py"
PARALLEL_PATH = "src/repro/parallel/snippet.py"
EVAL_PATH = "src/repro/eval/snippet.py"
SERVE_PATH = "src/repro/serve/snippet.py"


def rules_fired(source, path=EVAL_PATH, config=None):
    return [f.rule for f in lint_source(textwrap.dedent(source), path, config)]


#: (rule, violating fixture, lint path) — each must fire exactly its rule
VIOLATIONS = {
    "R1-subscript-write": (
        "R1",
        """
        from repro.model.kv_cache import KVCache

        def corrupt(cache: KVCache):
            cache[0]["k"][:, :, 0, :] = 0.0
        """,
        MODEL_PATH,
    ),
    "R1-augassign-slot": (
        "R1",
        """
        def scale(pc):
            forked = pc.fork(length=2)
            for layer in forked:
                layer["v"] += 1.0
        """,
        MODEL_PATH,
    ),
    "R1-extracted-tensor": (
        "R1",
        """
        def poke(layer_cache):
            k = layer_cache["k"]
            k[..., 0] = 9
        """,
        MODEL_PATH,
    ),
    "R1-out-kwarg": (
        "R1",
        """
        import numpy as np

        def exp_into(prefix_cache):
            kk = prefix_cache[0].get("k")
            np.exp(kk, out=kk)
        """,
        MODEL_PATH,
    ),
    "R1-nested-write-reported-once": (
        "R1",
        """
        def clear(cache, ready):
            for layer in cache:
                if ready:
                    layer["k"].fill(0.0)
        """,
        MODEL_PATH,
    ),
    "R2-rank-branch": (
        "R2",
        """
        def step(comm, rank):
            if rank == 0:
                comm.all_reduce([1])
        """,
        PARALLEL_PATH,
    ),
    "R2-rank-trip-count": (
        "R2",
        """
        def drain(comm, group_rank):
            for _ in range(group_rank):
                comm.broadcast(0)
        """,
        "src/repro/train/snippet.py",
    ),
    "R3-global-state": (
        "R3",
        """
        import numpy as np

        def sample():
            np.random.seed(0)
        """,
        EVAL_PATH,
    ),
    "R3-unseeded": (
        "R3",
        """
        import numpy as np

        def fresh():
            return np.random.default_rng()
        """,
        EVAL_PATH,
    ),
    "R4-inexact-literal": (
        "R4",
        """
        def check(score):
            return score == 64.7
        """,
        EVAL_PATH,
    ),
    "R4-division": (
        "R4",
        """
        def ratio(a, b, c):
            return a / b != c
        """,
        EVAL_PATH,
    ),
    "R5-phantom-export": (
        "R5",
        """
        __all__ = ["ghost"]
        """,
        EVAL_PATH,
    ),
    "R5-unlisted-def": (
        "R5",
        """
        __all__ = []

        def visible():
            pass
        """,
        EVAL_PATH,
    ),
    "R6-adhoc-raise": (
        "R6",
        """
        from repro.faults import TransientCollectiveError

        def all_reduce_with_chaos(buffers, step):
            raise TransientCollectiveError("all_reduce", step, 1)
        """,
        PARALLEL_PATH,
    ),
    "R6-bare-reraise-type": (
        "R6",
        """
        def preempt(step, world_rank):
            raise PreemptionError(step, world_rank)
        """,
        "src/repro/train/snippet.py",
    ),
    "R7-time-call": (
        "R7",
        """
        import time

        def step_duration(self):
            return time.monotonic() - self.started
        """,
        SERVE_PATH,
    ),
    "R7-aliased-import": (
        "R7",
        """
        import time as _t

        def now():
            return _t.perf_counter_ns()
        """,
        SERVE_PATH,
    ),
    "R7-from-import": (
        "R7",
        """
        from time import perf_counter

        def stamp(event):
            return (perf_counter(), event)
        """,
        SERVE_PATH,
    ),
    "R7-datetime-now": (
        "R7",
        """
        from datetime import datetime

        def stamp(event):
            return (datetime.now(), event)
        """,
        SERVE_PATH,
    ),
    "R8-attention-scale": (
        "R8",
        """
        import numpy as np

        class Attention:
            def forward(self, q, k):
                scale = 1.0 / np.sqrt(self.head_dim)
                return (q @ k) * scale
        """,
        MODEL_PATH,
    ),
    "R8-init-std": (
        "R8",
        """
        import numpy as np

        def out_std(config):
            return config.init_std / np.sqrt(2.0 * config.n_layers)
        """,
        MODEL_PATH,
    ),
    "R8-float64-literal": (
        "R8",
        """
        def step(p, g):
            p -= g / (abs(g) + np.float64(1e-8))
        """,
        "src/repro/train/snippet.py",
    ),
    "R8-aliased-numpy": (
        "R8",
        """
        import numpy as xp

        def loss_floor(x):
            return x - xp.log(len(x))
        """,
        "src/repro/train/snippet.py",
    ),
    "R9-unused-import": (
        "R9",
        """
        import numpy as np

        def total(xs):
            return sum(xs)
        """,
        MODEL_PATH,
    ),
    "R11-returned-view": (
        "R11",
        """
        from repro.model.workspace import workspace

        def next_token_logits_many(self, rows):
            logits = self._project_logits(self._last_hidden(rows))
            out = workspace().take(logits.shape, logits.dtype)
            out[...] = logits
            return out
        """,
        MODEL_PATH,
    ),
    "R10-stash-in-pure-call": (
        "R10",
        """
        class Linear:
            def __call__(self, x):
                self._cache = (x,)
                return x @ self.weight
        """,
        MODEL_PATH,
    ),
    "R10-training-call-reached-from-entry-point": (
        "R10",
        """
        class LM:
            def prefill(self, ids):
                return self._hidden(ids)

            def _hidden(self, ids):
                return self.block.forward(self.embed(ids))
        """,
        MODEL_PATH,
    ),
    "R10-gradient-read": (
        "R10",
        """
        class Linear:
            def __call__(self, x):
                return x @ (self.weight - self.grads["weight"])
        """,
        MODEL_PATH,
    ),
    "R11-reshaped-view-returned-via-out": (
        "R11",
        """
        import numpy as np

        def scores(q, k, ws):
            s = np.matmul(q, k, out=ws.take((4, 4), q.dtype))
            return s.reshape(-1)
        """,
        MODEL_PATH,
    ),
    "R11-attribute": (
        "R11",
        """
        def hidden(self, x, ws):
            h = ws.take(x.shape, x.dtype).T
            self.last_hidden = h
        """,
        MODEL_PATH,
    ),
    "R11-kv-store": (
        "R11",
        """
        def attend(self, x, layer):
            with workspace().scope() as ws:
                k = self._keys(x, ws)
                layer["k"] = k[:, :4]
        """,
        MODEL_PATH,
    ),
    "R11-padded-kv-store": (
        "R11",
        """
        def attend(self, x, rows, layer, ws):
            k = rows.pad(self._keys(x), out=ws.take(x.shape, x.dtype))
            layer["k"] = k
        """,
        MODEL_PATH,
    ),
    "R11-list-append": (
        "R11",
        """
        def rows(x, ws):
            kept = []
            for row in ws.take(x.shape, x.dtype):
                kept.append(row)
            return len(kept)
        """,
        MODEL_PATH,
    ),
    "R13-accumulate-in-callback": (
        "R13",
        """
        def backward(self, dlogits, pool):
            grads = self.named_gradients()

            def shard(lane):
                for name, g in lane.grads_of(dlogits).items():
                    grads[name] += g

            for future in [pool.submit(shard, lane) for lane in self.lanes]:
                future.result()
        """,
        MODEL_PATH,
    ),
    "R13-as-completed": (
        "R13",
        """
        import concurrent.futures as cf

        def losses(pool, shards):
            futures = [pool.submit(s.loss) for s in shards]
            return [f.result() for f in cf.as_completed(futures)]
        """,
        "src/repro/train/snippet.py",
    ),
    "R13-callback-handed-to-a-helper": (
        "R13",
        """
        def run_shards(pool, work, n):
            for future in [pool.submit(work, i) for i in range(n)]:
                future.result()

        def step(pool, replicas, batch):
            losses = []
            run_shards(pool, lambda i: losses.append(replicas[i].loss(batch[i])), 2)
            return losses
        """,
        PARALLEL_PATH,
    ),
}

#: clean counterparts: the same constructs used the sanctioned way
CLEAN = {
    "R1-rebind": (
        """
        import numpy as np

        def extend(cache, k, v):
            kp = cache.get("k")
            if kp is not None:
                k = np.concatenate([kp, k], axis=2)
            cache["k"], cache["v"] = k, v
        """,
        MODEL_PATH,
    ),
    "R1-rebound-in-branch": (
        """
        import numpy as np

        def reset(cache, fresh):
            k = cache[0]["k"]
            if fresh:
                k = np.zeros(k.shape)
                k.fill(1.0)
            return k
        """,
        MODEL_PATH,
    ),
    "R2-symmetric": (
        """
        def step(comm, n):
            for _ in range(n):
                comm.all_reduce([1])
        """,
        PARALLEL_PATH,
    ),
    "R2-outside-scope": (
        """
        def step(comm, rank):
            if rank == 0:
                comm.all_reduce([1])
        """,
        EVAL_PATH,
    ),
    "R3-seeded": (
        """
        import numpy as np

        def sample(seed):
            return np.random.default_rng(seed).normal()
        """,
        EVAL_PATH,
    ),
    "R3-rng-wrapper-exempt": (
        """
        import numpy as np

        np.random.seed(0)
        """,
        "src/repro/utils/rng.py",
    ),
    "R4-dyadic-sentinel": (
        """
        def greedy(temperature, accuracy):
            return temperature == 0.0 and accuracy == 1.0
        """,
        EVAL_PATH,
    ),
    "R5-consistent": (
        """
        from os import path

        __all__ = ["path", "thing"]

        def thing():
            pass

        def _helper():
            pass
        """,
        EVAL_PATH,
    ),
    "R6-registry-itself": (
        """
        def on_step_start(self, step):
            for event in self._preemptions_at(step):
                raise PreemptionError(step, event.rank)
        """,
        "src/repro/faults/snippet.py",
    ),
    "R6-hook-dispatch": (
        """
        def _pre_op(self, op, buffers):
            factor = 1.0
            for hook in self._hooks:
                factor *= hook(op, self._op_counter)
            if not buffers:
                raise ValueError("empty collective")
            return factor
        """,
        PARALLEL_PATH,
    ),
    "R7-clock-adapter-exempt": (
        """
        import time

        class WallClock:
            def now(self):
                return time.monotonic()
        """,
        "src/repro/serve/clock.py",
    ),
    "R7-injected-clock": (
        """
        def step(self):
            now = self.clock.now()
            self.clock.advance(self.cost.duration(0, 1))
            return now
        """,
        SERVE_PATH,
    ),
    "R7-outside-scope": (
        """
        import time

        def bench():
            return time.perf_counter()
        """,
        EVAL_PATH,
    ),
    "R7-sleep-allowed": (
        """
        import time

        def backoff(hint):
            time.sleep(hint)
        """,
        SERVE_PATH,
    ),
    "R8-float32-constant": (
        """
        import numpy as np

        class Attention:
            def __init__(self, head_dim):
                self.scale = np.float32(1.0 / np.sqrt(head_dim))
        """,
        MODEL_PATH,
    ),
    "R8-math-module": (
        """
        import math

        def out_std(config):
            return config.init_std / math.sqrt(2.0 * config.n_layers)
        """,
        MODEL_PATH,
    ),
    "R8-array-argument": (
        """
        import numpy as np

        def silu(x, w):
            return x / (1.0 + np.exp(-x)) + np.sqrt(w.T)
        """,
        MODEL_PATH,
    ),
    "R8-astype-and-float": (
        """
        import numpy as np

        def init(rng, self):
            a = (rng.normal(size=(4, 2)) / np.sqrt(self.d_in)).astype(np.float32)
            return a, float(np.log(2.0))
        """,
        MODEL_PATH,
    ),
    "R8-outside-scope": (
        """
        import numpy as np

        def z_score(self, x):
            return x / np.sqrt(self.n)
        """,
        EVAL_PATH,
    ),
    "R9-used-forms": (
        """
        from __future__ import annotations

        import os.path
        from typing import TYPE_CHECKING

        from repro.model.config import ModelConfig

        __all__ = ["ModelConfig", "size"]

        if TYPE_CHECKING:
            from repro.model.transformer import TransformerLM

        def size(model: "TransformerLM") -> int:
            import json
            return os.path.getsize(model.path)
        """,
        MODEL_PATH,
    ),
    "R9-package-init-exempt": (
        """
        from repro.model.config import ModelConfig
        """,
        "src/repro/model/__init__.py",
    ),
    "R10-pure-and-cached-calls": (
        """
        class LM:
            def __call__(self, x, cache):
                return self.head(self.block(x, 0, cache))

            def next_token_logits(self, ids):
                return self.forward(ids, cache=self.new_cache())[0, -1]

            def forward(self, ids, cache=None):
                self._tied_cache = ids
                return self.block.forward(ids)
        """,
        MODEL_PATH,
    ),
    "R10-training-code-outside-model": (
        """
        class Step:
            def __call__(self, model, x):
                model.zero_grad()
                model.backward(model.forward(x))
                return model.grads
        """,
        "src/repro/train/snippet.py",
    ),
    "R11-fresh-results": (
        """
        import numpy as np

        from repro.model.workspace import workspace

        def attend(self, q, k, layer, out):
            with workspace().scope() as ws:
                s = np.matmul(q, k, out=ws.take((4, 4), q.dtype))
                s *= self.scale
                s[..., 0] = 0.0
                np.copyto(out, s)
                layer["k"] = s.copy()
                self.total = float(s.sum())
                return self.wo(s, out=out), s + 1.0
        """,
        MODEL_PATH,
    ),
    "R11-private-helper": (
        """
        def _scores(q, ws):
            return ws.take(q.shape, q.dtype).reshape(-1)

        def scores(q, ws):
            return _scores(q, ws).sum()
        """,
        MODEL_PATH,
    ),
    "R13-shard-order-on-the-caller": (
        """
        def backward(self, dlogits, pool, rows):
            def shard(i):
                total = 0.0
                self.lanes[i].zero_grad()
                self.lanes[i].run(dlogits[rows[i]], out=self.logits[rows[i]])
                total += 1.0
                kept = []
                kept.append(total)

            futures = [pool.submit(shard, i) for i in range(len(rows))]
            for future in futures:
                future.result()
            grads = self.named_gradients()
            for lane in self.lanes:
                for name, g in lane.named_gradients().items():
                    grads[name] += g
        """,
        MODEL_PATH,
    ),
    "R13-outside-training-code": (
        """
        from concurrent.futures import as_completed

        def score_all(pool, batches, model):
            return [f.result() for f in as_completed(pool.submit(model.score, b) for b in batches)]
        """,
        EVAL_PATH,
    ),
}


class TestRuleFixtures:
    @pytest.mark.parametrize("label", sorted(VIOLATIONS))
    def test_fixture_triggers_exactly_its_rule(self, label):
        rule, source, path = VIOLATIONS[label]
        fired = rules_fired(source, path)
        assert fired == [rule], f"{label}: expected [{rule}], got {fired}"

    @pytest.mark.parametrize("label", sorted(CLEAN))
    def test_clean_fixture_is_silent(self, label):
        source, path = CLEAN[label]
        assert rules_fired(source, path) == []

    def test_every_rule_has_a_firing_fixture(self):
        covered = {rule for rule, _, _ in VIOLATIONS.values()}
        assert covered == {cls.code for cls in all_rules()}

    @pytest.mark.parametrize(
        "rule_cls",
        [cls for cls in all_rules() if cls.paths or cls.exempt],
        ids=lambda cls: cls.code,
    )
    def test_scope_has_fixtures_on_both_sides(self, rule_cls):
        """Each ``paths`` fragment holds a firing fixture; a rule with
        ``paths`` has a silent fixture outside them, and each ``exempt``
        suffix a silent fixture under it.  Every such silent fixture fires
        once moved into scope, so it is the scope that silences it."""
        rule = rule_cls()
        fired = [path for code, _, path in VIOLATIONS.values() if code == rule.code]
        for fragment in rule.paths:
            assert any(fragment in "/" + path for path in fired), fragment
        skipped = [
            (source, path)
            for label, (source, path) in CLEAN.items()
            if label.split("-")[0] == rule.code and not rule.applies_to(path)
        ]
        if rule.paths:
            assert any(
                not any(frag in "/" + path for frag in rule.paths)
                for _, path in skipped
            )
        for suffix in rule.exempt:
            assert any(path.endswith(suffix) for _, path in skipped), suffix
        in_scope = f"src/repro{rule.paths[0] if rule.paths else '/eval/'}snippet.py"
        for source, path in skipped:
            assert rule.code in rules_fired(source, in_scope), path

    def test_finding_carries_location_and_metadata(self):
        findings = lint_source(
            "def check(s):\n    return s == 64.7\n", EVAL_PATH
        )
        (finding,) = findings
        assert finding.rule == "R4"
        assert finding.name == "float-equality"
        assert (finding.line, finding.path) == (2, EVAL_PATH)


class TestSuppressions:
    def test_trailing_comment_suppresses_own_line(self):
        src = "def f(s):\n    return s == 64.7  # lint: disable=R4 (exact)\n"
        assert lint_source(src, EVAL_PATH) == []

    def test_standalone_comment_suppresses_next_line(self):
        src = (
            "def f(s):\n"
            "    # lint: disable=float-equality (bit-identity by construction)\n"
            "    return s == 64.7\n"
        )
        assert lint_source(src, EVAL_PATH) == []

    def test_suppression_is_line_scoped(self):
        src = (
            "def f(s, t):\n"
            "    a = s == 64.7  # lint: disable=R4 (exact)\n"
            "    return t == 64.7\n"
        )
        findings = lint_source(src, EVAL_PATH)
        assert [f.line for f in findings] == [3]

    def test_wrong_rule_does_not_suppress(self):
        src = "def f(s):\n    return s == 64.7  # lint: disable=R1 (nope)\n"
        assert [f.rule for f in lint_source(src, EVAL_PATH)] == ["R4"]

    def test_file_wide_directive(self):
        src = (
            "# lint: disable-file=R4 (golden comparisons throughout)\n"
            "def f(s, t):\n"
            "    return s == 64.7 or t == 0.1\n"
        )
        assert lint_source(src, EVAL_PATH) == []

    def test_disable_all(self):
        src = "def f(s):\n    return s == 64.7  # lint: disable=all (fixture)\n"
        assert lint_source(src, EVAL_PATH) == []

    def test_directive_inside_string_is_inert(self):
        src = (
            'MSG = "# lint: disable-file=R4 (not a comment)"\n'
            "def f(s):\n"
            "    return s == 64.7\n"
        )
        assert [f.rule for f in lint_source(src, EVAL_PATH)] == ["R4"]


class TestConfig:
    def test_select_narrows_rules(self):
        rule, source, path = VIOLATIONS["R3-global-state"]
        config = LintConfig(select={"R4"})
        assert rules_fired(source, path, config) == []

    def test_disable_drops_rule(self):
        rule, source, path = VIOLATIONS["R4-inexact-literal"]
        config = LintConfig(disable={"R4"})
        assert rules_fired(source, path, config) == []

    def test_unknown_rule_identifier_rejected(self):
        with pytest.raises(ValueError):
            LintConfig.from_cli(select=["R99"])

    def test_rules_ordered_by_code_number(self):
        # R12 is held for batch invariance (ROADMAP item 2)
        codes = [f"R{n}" for n in range(1, 12)] + ["R13"]
        assert [cls.code for cls in all_rules()] == codes
        assert [rule.code for rule in LintConfig().enabled_rules()] == codes


class TestReporters:
    SRC = "def f(s):\n    return s == 64.7\n"

    def _result(self, tmp_path):
        target = tmp_path / "eval"
        target.mkdir()
        (target / "mod.py").write_text(self.SRC)
        return run_lint([str(target)])

    def test_json_reporter_golden(self, tmp_path):
        result = self._result(tmp_path)
        payload = json.loads(json_report(result))
        path = (tmp_path / "eval" / "mod.py").as_posix()
        assert payload == {
            "version": 2,
            "files_checked": 1,
            "findings": [
                {
                    "rule": "R4",
                    "name": "float-equality",
                    "path": path,
                    "line": 2,
                    "col": 11,
                    "message": (
                        "float equality (== with inexact float literal 64.7); "
                        "floating-point results are not stable under "
                        "reassociation — compare with a tolerance"
                    ),
                }
            ],
            "summary": {"total": 1, "by_rule": {"R4": 1}},
        }

    def test_text_reporter_mentions_location_and_summary(self, tmp_path):
        result = self._result(tmp_path)
        report = text_report(result)
        assert "mod.py:2:12: R4 float equality (== with" in report
        assert "1 finding (R4=1) in 1 files" in report

    def test_clean_text_report(self):
        result = run_lint([os.path.join(REPO_ROOT, "src", "repro", "utils")])
        assert text_report(result).startswith("clean: 0 findings")


class TestEngine:
    def test_syntax_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        result = run_lint([str(bad)])
        assert [f.rule for f in result.findings] == [PARSE_ERROR_RULE]
        assert result.exit_code() == 1

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_lint([os.path.join(REPO_ROOT, "no-such-dir")])

    def test_findings_sorted_and_deterministic(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1 == 64.7\n")
        (tmp_path / "a.py").write_text("__all__ = ['ghost']\ny = 2 != 0.1\n")
        first = run_lint([str(tmp_path)])
        second = run_lint([str(tmp_path)])
        assert [f.to_dict() for f in first.findings] == [
            f.to_dict() for f in second.findings
        ]
        assert [f.path.rsplit("/", 1)[-1] for f in first.findings] == [
            "a.py",
            "a.py",
            "b.py",
        ]


class TestCleanRepo:
    """The checked-in tree must satisfy its own invariants."""

    def test_src_and_tests_lint_clean(self):
        result = run_lint(
            [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tests")]
        )
        assert result.findings == [], text_report(result)

    def test_cli_exits_zero_on_src(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "tests"],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean: 0 findings" in proc.stdout

    def test_cli_fails_on_violation(self, tmp_path):
        mod = tmp_path / "viol.py"
        mod.write_text("def f(s):\n    return s == 64.7\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(mod)],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "R4" in proc.stdout

    def test_cli_list_rules(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for code in ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"):
            assert code in proc.stdout
        # every row's slug and description start at the same offsets
        rows = proc.stdout.splitlines()
        rules = {cls.code: cls for cls in all_rules()}
        assert len(rows) == len(rules)
        slug_at, desc_at = set(), set()
        for row in rows:
            rule = rules[row.split()[0]]
            slug_at.add(row.index(rule.name, len(rule.code)))
            desc_at.add(row.index(rule.description))
        assert len(slug_at) == 1 and len(desc_at) == 1
