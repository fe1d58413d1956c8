"""Span tracing for the benchmark's traced run.

The tracer wraps public functions and methods of the latticerl modules from
outside the library: each wrapper replaces the name where its callers look it
up (every ``latticerl.*`` module namespace holding the same function object,
or the class attribute for methods). Spans are kept in memory as
``[name, start, end, parent index, run id, count]`` and written out once at
the end. Self time is a span's duration minus its direct children's.
"""

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Layers are the latticerl modules envs, exploration, policy, buffer,
# trainer, analysis and cli: a span's layer is its name up to the first dot.
# (span name, module under latticerl, attribute path in that module)
TARGETS = (
    ("envs.step", "envs", "FlexExtArm.step"),
    ("envs.step", "envs", "PointReacher.step"),
    ("envs.reset", "envs", "FlexExtArm.reset"),
    ("envs.reset", "envs", "PointReacher.reset"),
    ("exploration.resample_perturbations", "exploration",
     "resample_perturbations"),
    ("policy.dist_internals", "policy", "dist_internals"),
    ("policy.log_prob", "policy", "log_prob"),
    ("policy.log_prob_and_grad", "policy", "log_prob_and_grad"),
    ("policy.entropy_and_grad", "policy", "entropy_and_grad"),
    ("policy.Mlp.forward", "policy", "Mlp.forward"),
    ("policy.Mlp.backward", "policy", "Mlp.backward"),
    ("policy.GradientTape.zero_", "policy", "GradientTape.zero_"),
    ("policy.GradientTape.clip_global_norm", "policy",
     "GradientTape.clip_global_norm"),
    ("policy.GradientTape.all_finite", "policy", "GradientTape.all_finite"),
    ("buffer.compute_gae", "buffer", "compute_gae"),
    ("trainer.Adam.step", "trainer", "Adam.step"),
    ("trainer.fit", "trainer", "PPOTrainer.fit"),
    ("trainer.collect_rollout", "trainer", "PPOTrainer.collect_rollout"),
    ("trainer.ppo_update", "trainer", "PPOTrainer.ppo_update"),
    ("trainer.evaluate_policy", "trainer", "evaluate_policy"),
    ("trainer.save_checkpoint", "trainer", "save_checkpoint"),
    ("trainer.load_checkpoint", "trainer", "load_checkpoint"),
    ("cli.main", "cli", "main"),
    ("cli.collect_action_log", "cli", "collect_action_log"),
    ("cli.run_analysis", "cli", "run_analysis"),
    ("analysis.covariance_report", "analysis", "covariance_report"),
    ("analysis.matched_dual_sim", "analysis", "matched_dual_sim"),
)

# Work counted at a span boundary: span name -> (metric, count(args, result)).
# Each count is exact, so it repeats bit-for-bit between runs.
COUNTS = {
    # one standard normal per entry of P_x (N_x^2) and P_a (N_a * N_x)
    "exploration.resample_perturbations": (
        "exploration.normals_drawn",
        lambda args, result: result.P_x.size + result.P_a.size),
    "policy.dist_internals": (
        "policy.dist_internals.rows", lambda args, result: result.x.shape[0]),
    "trainer.save_checkpoint": (
        "trainer.checkpoint_bytes",
        lambda args, result: os.path.getsize(args[0])),
}

# Spans that open a training phase; spans below them are attributed to it.
PHASES = {"trainer.collect_rollout": "rollout", "trainer.ppo_update": "update"}

# Reported per-layer metrics: (name, unit, better). Values describe one
# set-up plus one repetition of the workload (medians over repetitions).
PER_LAYER = (
    ("envs.step.calls", "count", "lower"),
    ("envs.step.s", "s", "lower"),
    ("envs.reset.calls", "count", "lower"),
    ("envs.self_s", "s", "lower"),
    ("exploration.resample_perturbations.calls", "count", "lower"),
    ("exploration.resample_perturbations.s", "s", "lower"),
    ("exploration.normals_drawn", "count", "lower"),
    ("exploration.self_s", "s", "lower"),
    ("policy.dist_internals.calls", "count", "lower"),
    ("policy.dist_internals.rows", "count", "lower"),
    ("policy.dist_internals.s", "s", "lower"),
    ("policy.dist_internals.rollout.calls", "count", "lower"),
    ("policy.dist_internals.rollout.s", "s", "lower"),
    ("policy.dist_internals.update.calls", "count", "lower"),
    ("policy.dist_internals.update.s", "s", "lower"),
    ("policy.log_prob.s", "s", "lower"),
    ("policy.log_prob_and_grad.s", "s", "lower"),
    ("policy.entropy_and_grad.s", "s", "lower"),
    ("policy.Mlp.forward.s", "s", "lower"),
    ("policy.Mlp.backward.s", "s", "lower"),
    ("policy.GradientTape.zero_.s", "s", "lower"),
    ("policy.GradientTape.clip_global_norm.s", "s", "lower"),
    ("policy.GradientTape.all_finite.s", "s", "lower"),
    ("policy.rollout.self_s", "s", "lower"),
    ("policy.update.self_s", "s", "lower"),
    ("policy.self_s", "s", "lower"),
    ("buffer.compute_gae.s", "s", "lower"),
    ("buffer.self_s", "s", "lower"),
    ("trainer.Adam.step.calls", "count", "lower"),
    ("trainer.Adam.step.s", "s", "lower"),
    ("trainer.collect_rollout.s", "s", "lower"),
    ("trainer.collect_rollout.self_s", "s", "lower"),
    ("trainer.ppo_update.s", "s", "lower"),
    ("trainer.ppo_update.self_s", "s", "lower"),
    ("trainer.evaluate_policy.s", "s", "lower"),
    ("trainer.save_checkpoint.s", "s", "lower"),
    ("trainer.load_checkpoint.calls", "count", "lower"),
    ("trainer.load_checkpoint.s", "s", "lower"),
    ("trainer.checkpoint_bytes", "bytes", "lower"),
    ("trainer.self_s", "s", "lower"),
    ("cli.collect_action_log.s", "s", "lower"),
    ("cli.run_analysis.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("analysis.covariance_report.s", "s", "lower"),
    ("analysis.matched_dual_sim.s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.steps_per_s", "env-steps/s", "higher"),
)

# Counts that must be equal in every repetition of a run.
EXACT_COUNTS = ("envs.step.calls", "exploration.normals_drawn",
                "policy.dist_internals.rows", "trainer.Adam.step.calls",
                "trainer.checkpoint_bytes")


class Tracer:
    """Span recorder; records only between install() and uninstall() and
    while not paused. Segments label spans with a run id such as 'rep-2'."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run_id = "none"
        self.recording = False
        self._patched = []

    @contextmanager
    def segment(self, kind: str, index: int):
        self.run_id = f"{kind}-{index}"
        try:
            yield
        finally:
            self.run_id = "none"

    @contextmanager
    def paused(self):
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    # ------------------------------------------------------------ patching

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "latticerl" or name.startswith("latticerl.")]
        for span_name, module, attr in TARGETS:
            owner = sys.modules[f"latticerl.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._set(cls, meth, fn, self.wrap(span_name, fn))
                continue
            fn = getattr(owner, attr)
            wrapped = self.wrap(span_name, fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, name, fn, wrapped)
        self.recording = True

    def uninstall(self):
        self.recording = False
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _set(self, owner, name, original, wrapped):
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapped)

    def wrap(self, span_name, fn):
        tracer = self
        counter = COUNTS.get(span_name, (None, None))[1]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.run_id, 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, result)
            return result

        return traced

    # ------------------------------------------------------------- metrics

    def segment_totals(self) -> dict:
        """run id -> metric -> summed value over that segment's spans."""
        child = [0.0] * len(self.spans)
        phase = [None] * len(self.spans)
        for i, (name, t0, t1, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += t1 - t0
                phase[i] = phase[parent]
            phase[i] = PHASES.get(name, phase[i])
        totals = defaultdict(lambda: defaultdict(float))
        for i, (name, t0, t1, _, run_id, count) in enumerate(self.spans):
            dur = t1 - t0
            own = dur - child[i]
            layer = name.split(".", 1)[0]
            seg = totals[run_id]
            seg[f"{name}.calls"] += 1
            seg[f"{name}.s"] += dur
            seg[f"{name}.self_s"] += own
            seg[f"{layer}.self_s"] += own
            seg["trace.spans"] += 1
            if phase[i] is not None:
                seg[f"{layer}.{phase[i]}.self_s"] += own
                seg[f"{name}.{phase[i]}.calls"] += 1
                seg[f"{name}.{phase[i]}.s"] += dur
            if name in COUNTS:
                seg[COUNTS[name][0]] += count
        return totals

    def layer_metrics(self) -> tuple[dict, list[str]]:
        """Per-layer metric values (median set-up plus median repetition)
        and the exact counts that differed between repetitions."""
        totals = self.segment_totals()
        by_kind = defaultdict(list)
        for run_id, seg in totals.items():
            by_kind[run_id.split("-", 1)[0]].append(seg)
        values = {}
        for name, unit, _ in PER_LAYER:
            value = sum(
                statistics.median(seg.get(name, 0.0) for seg in segs)
                for kind, segs in by_kind.items() if kind in ("setup", "rep"))
            exact = unit in ("count", "bytes") and float(value).is_integer()
            values[name] = int(value) if exact else value
        unsteady = [name for name in EXACT_COUNTS
                    if len({seg.get(name, 0.0)
                            for seg in by_kind["rep"]}) > 1]
        return values, unsteady

    def dump(self, path):
        """Write the spans as JSON: a name table and one row per span."""
        names = sorted({s[0] for s in self.spans})
        runs = sorted({s[4] for s in self.spans})
        name_ix = {n: i for i, n in enumerate(names)}
        run_ix = {r: i for i, r in enumerate(runs)}
        rows = [[name_ix[n], t0, t1, parent, run_ix[r], count]
                for n, t0, t1, parent, r, count in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id",
                                  "count"],
                       "names": names, "run_ids": runs, "spans": rows}, fh)
