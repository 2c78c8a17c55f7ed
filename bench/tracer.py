"""The traced run: spans and counts at every layer boundary of fairfedsim.

Each hook replaces a module attribute where the *caller* looks the name up
(``harness.train`` for ``baselines.train``, ``baselines.server_round`` for
``aggregation.server_round``), so the program's source stays untouched and
every call goes through the wrapper. Coarse calls record a span (name,
start, end, parent, self time); fine-grained calls, such as the ~257k
cosines of a K=100 run, are only counted and timed in aggregate.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import statistics
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

# Fields of an upload that identify or describe it rather than carry data.
_METADATA_FIELDS = frozenset({"client_id", "n_params"})


def count_numbers(obj) -> int:
    """Numbers an object carries: array elements plus numeric fields."""
    if isinstance(obj, np.ndarray):
        return int(obj.size)
    if isinstance(obj, (int, float, np.number)):
        return 1
    if isinstance(obj, dict):
        return sum(count_numbers(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(count_numbers(v) for v in obj)
    if hasattr(obj, "__dict__"):
        return sum(count_numbers(v) for k, v in vars(obj).items() if k not in _METADATA_FIELDS)
    return 0


class Tracer:
    """In-memory spans for coarse calls, counts and summed times for fine ones.

    A span is (id, name, start, end, parent id, self seconds); self time is
    the duration minus the time spent in traced calls made inside it.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.in_step = 0
        self._open: list[list] = []  # [span id or None, child seconds, name]
        self._next_id = 0

    def _enclosing_span(self) -> tuple[Optional[int], str]:
        for sid, _, name in reversed(self._open):
            if sid is not None:
                return sid, name
        return None, ""

    def _close(self, start: float) -> float:
        """Pop the innermost frame and charge its time to the enclosing one."""
        end = time.perf_counter()
        self._open.pop()
        if self._open:
            self._open[-1][1] += end - start
        return end

    def span(self, name: str, fn: Callable, post: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so every call records a span; ``post`` sees the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._enclosing_span()[0]
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0.0, name]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._close(start)
                self.spans.append((sid, name, start, end, parent, end - start - frame[1]))
            return result if post is None else post(result)

        return traced

    def counted(self, name: str, fn: Callable, post: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so calls are counted and timed in aggregate, both per
        name and per name and enclosing span (``name@span``)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            per_span = f"{name}@{self._enclosing_span()[1]}"
            self._open.append([None, 0.0, name])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self._close(start) - start
                for key in (name, per_span):
                    self.calls[key] += 1
                    self.busy[key] += elapsed
            return result if post is None else post(result)

        return traced

    # -- layer-specific hooks ----------------------------------------------

    def _stepping(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def step(*args, **kwargs):
            self.in_step += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.in_step -= 1

        return step

    def _step_backward(self, result):
        """Count a backward pass made inside a client's local step."""
        if self.in_step:
            self.calls["model.backward_in_step"] += 1
        return result

    def _batch_outputs_post(self, result):
        probs, losses, weighted_grad = result
        return probs, losses, self.counted("model.backward", weighted_grad, self._step_backward)

    def _upload_post(self, result):
        self.samples["client.upload_floats"].append(count_numbers(result))
        return result

    def _stats_post(self, result):
        self.samples["fairness.keys"].append(len(result.groups))
        return result

    def _sweep_post(self, result):
        self.samples["aggregation.pair_tests"].append(len(result.tests))
        self.samples["aggregation.adjustments"].append(result.n_adjustments)
        return result

    def hooks(self) -> list[tuple[str, str, Callable]]:
        """(module where the caller looks the name up, attribute, wrapper)."""
        s, c = self.span, self.counted
        return [
            ("fairfedsim.harness", "run", lambda f: s("harness.run", f)),
            ("fairfedsim.harness", "run_cell", lambda f: s("harness.run_cell", f)),
            ("fairfedsim.harness", "build_data", lambda f: s("harness.build_data", f)),
            ("fairfedsim.harness", "evaluate_run", lambda f: s("harness.evaluate_run", f)),
            ("fairfedsim.harness", "train", lambda f: s("baselines.train", f)),
            ("fairfedsim.baselines", "server_round", lambda f: s("aggregation.server_round", f)),
            ("fairfedsim.client", "compute_statistics",
             lambda f: s("client.compute_statistics", f, self._upload_post)),
            ("fairfedsim.client", "lagrangian_grad",
             lambda f: s("client.lagrangian_grad", self._stepping(f))),
            ("fairfedsim.model", "loss_and_grad",
             lambda f: c("model.loss_and_grad", f, self._step_backward)),
            ("fairfedsim.model", "batch_outputs",
             lambda f: c("model.batch_outputs", f, self._batch_outputs_post)),
            ("fairfedsim.model", "predict_proba", lambda f: c("model.predict_proba", f)),
            ("fairfedsim.fairness", "compute_statistics_for_metric",
             lambda f: s("fairness.compute_statistics_for_metric", f, self._stats_post)),
            ("fairfedsim.fairness", "constraint_grads", lambda f: s("fairness.constraint_grads", f)),
            ("fairfedsim.fairness:FairnessStatistics", "merge_all",
             lambda f: staticmethod(c("fairness.merge_all", f))),
            ("fairfedsim.aggregation", "diminish_conflicts",
             lambda f: s("aggregation.diminish_conflicts", f, self._sweep_post)),
            ("fairfedsim.aggregation", "build_order", lambda f: s("aggregation.build_order", f)),
            ("fairfedsim.aggregation", "lagrangian_losses", lambda f: c("aggregation.lagrangian_losses", f)),
            ("fairfedsim.aggregation", "cosine", lambda f: c("aggregation.cosine", f)),
            ("fairfedsim.aggregation", "ema_update", lambda f: c("aggregation.ema_update", f)),
        ]


def _resolve(target: str):
    """``package.module`` or ``package.module:Class``."""
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


@contextlib.contextmanager
def install(tracer: Tracer):
    """Install a tracer's hooks for the duration of the block; yields the
    hooks the program no longer has (skipped, their metrics read 0)."""
    saved, missing = [], []
    try:
        for target, attr, wrap in tracer.hooks():
            owner = _resolve(target)
            original = vars(owner).get(attr)
            if original is None:
                missing.append(f"{target}.{attr}")
                continue
            inner = original.__func__ if isinstance(original, staticmethod) else original
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(inner))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def tail_percentile(n: int) -> int:
    """The highest percentile at most 90 with at least ten of ``n`` samples
    beyond it, and never below the median."""
    return max(50, min(90, math.floor(100 * (n - 10) / n)))


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced grid, and the sample counts behind them."""
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span[1]].append(span)

    def durations(name):
        return [end - start for _, _, start, end, _, _ in by_name[name]]

    def total(name):
        return float(sum(durations(name)))

    def self_total(name):
        return float(sum(sp[5] for sp in by_name[name]))

    def median_sample(name):
        values = tracer.samples[name]
        return float(statistics.median(values)) if values else 0.0

    # a round runs from the previous server_round return (or the start of
    # the training run) to its own server_round return
    rounds = []
    starts = {sid: start for sid, _, start, _, _, _ in by_name["baselines.train"]}
    last_end: dict[int, float] = {}
    for _, _, _, end, parent, _ in sorted(by_name["aggregation.server_round"], key=lambda sp: sp[3]):
        if parent in starts:
            rounds.append(end - last_end.get(parent, starts[parent]))
            last_end[parent] = end

    train_s = total("baselines.train")
    client_s = total("client.compute_statistics")
    server_s = total("aggregation.server_round")
    steps = len(by_name["client.lagrangian_grad"])
    pair_tests = sum(tracer.samples["aggregation.pair_tests"])
    adjustments = sum(tracer.samples["aggregation.adjustments"])
    forward = (
        tracer.calls["model.loss_and_grad"] + tracer.calls["model.batch_outputs"]
        + tracer.calls["model.predict_proba"]
    )
    backward = tracer.calls["model.loss_and_grad"] + tracer.calls["model.backward"]
    model_busy = sum(
        tracer.busy[n] for n in ("model.loss_and_grad", "model.batch_outputs", "model.backward", "model.predict_proba")
    )

    metrics = {
        "harness.evaluate_s": total("harness.evaluate_run"),
        "harness.output_s": self_total("harness.run"),
        "baselines.train_s": train_s,
        "baselines.client_share": client_s / train_s if train_s else 0.0,
        "baselines.server_share": server_s / train_s if train_s else 0.0,
        "client.step_s.p50": float(np.median(durations("client.lagrangian_grad"))) if steps else 0.0,
        "client.steps": steps,
        "client.upload_floats": median_sample("client.upload_floats"),
        "model.forward_calls": forward,
        "model.backward_calls": backward,
        "model.backward_per_step": tracer.calls["model.backward_in_step"] / steps if steps else 0.0,
        "model.busy_s": model_busy,
        "fairness.stats_self_s": self_total("fairness.compute_statistics_for_metric"),
        "fairness.constraint_grads_s": total("fairness.constraint_grads"),
        "fairness.keys": median_sample("fairness.keys"),
        "fairness.merge_s": tracer.busy["fairness.merge_all"],
        "aggregation.self_s": self_total("aggregation.server_round"),
        "aggregation.sweep_s": total("aggregation.diminish_conflicts"),
        "aggregation.order_s": total("aggregation.build_order")
        + tracer.busy["aggregation.lagrangian_losses@aggregation.server_round"],
        "aggregation.cosine_calls": tracer.calls["aggregation.cosine"],
        "aggregation.cosine_s": tracer.busy["aggregation.cosine"],
        "aggregation.ema_updates": tracer.calls["aggregation.ema_update"],
        "aggregation.ema_s": tracer.busy["aggregation.ema_update"],
        "aggregation.pair_tests": pair_tests,
        "aggregation.adjustments": adjustments,
        "aggregation.adjust_ratio": adjustments / pair_tests if pair_tests else 0.0,
        "trace.spans": len(tracer.spans),
    }
    detail = {"client.step_s": {"n": steps}}
    tails = {
        "baselines.round_s": rounds,
        "client.round_s": durations("client.compute_statistics"),
        "aggregation.server_round_s": durations("aggregation.server_round"),
    }
    for name, values in tails.items():
        q = tail_percentile(len(values)) if values else 50
        metrics[f"{name}.p50"] = float(np.percentile(values, 50)) if values else 0.0
        metrics[f"{name}.p90"] = float(np.percentile(values, q)) if values else 0.0
        detail[name] = {"n": len(values), "tail_percentile": q}
    return metrics, detail


def write_spans(tracer: Tracer, path, rep: int) -> None:
    """Append the spans as JSON lines (times relative to the first span)."""
    origin = min((sp[2] for sp in tracer.spans), default=0.0)
    with open(path, "a", encoding="utf-8") as fh:
        for sid, name, start, end, parent, self_s in tracer.spans:
            fh.write(json.dumps({
                "rep": rep, "id": sid, "name": name, "parent": parent,
                "start": start - origin, "end": end - origin, "self": self_s,
            }) + "\n")
