"""Span tracing for the traced run, installed from outside hedgelab.

hedgelab modules import each other's functions by name (``from .paths
import generate_brownian``), so a caller looks a function up on its own
module. The tracer therefore replaces every attribute a caller looks up
(``SITES``) with a wrapper that records a span: name, start, end and
parent. Spans stay in memory until the run ends. No hedgelab source is
edited; ``Tracer.uninstall`` restores the original attributes.

A span's self time is its duration minus the durations of its child
spans (calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import importlib
import time

import numpy as np


def _normals_drawn(result):
    return result.increments.size


def _normals_refined(result):
    return result[1].increments.size


def _size(result):
    return int(np.size(result))


# (module, attribute, span name, counter on the result). comp_cumsum's
# span name is picked per call from its argument's rank, see _cumsum_name.
SITES = (
    ("hedgelab.cli", "run", "cli.run", None),
    ("hedgelab.cli", "generate_brownian", "paths.generate_brownian", _normals_drawn),
    ("hedgelab.cli", "gbm_path", "paths.gbm_path", None),
    ("hedgelab.cli", "delta_hedge", "strategies.delta_hedge", None),
    ("hedgelab.cli", "write_ledger_csv", "ledger.write_ledger_csv", None),
    ("hedgelab.cli", "defect_refinement_study", "experiments.defect_refinement_study", None),
    ("hedgelab.cli", "martingale_test", "experiments.martingale_test", None),
    ("hedgelab.cli", "write_result_csv", "experiments.write_result_csv", None),
    ("hedgelab.experiments", "generate_brownian", "paths.generate_brownian", _normals_drawn),
    ("hedgelab.experiments", "refine", "paths.refine", _normals_refined),
    ("hedgelab.experiments", "gbm_path", "paths.gbm_path", None),
    ("hedgelab.experiments", "comp_cumsum", None, _size),
    ("hedgelab.experiments", "bs_delta", "strategies.bs_delta", _size),
    ("hedgelab.paths", "generate_brownian", "paths.generate_brownian", _normals_drawn),
    ("hedgelab.paths", "gbm_path", "paths.gbm_path", None),
    ("hedgelab.paths", "refine", "paths.refine", _normals_refined),
    ("hedgelab.paths", "comp_cumsum", None, _size),
    ("hedgelab.strategies", "bs_delta", "strategies.bs_delta", _size),
    ("hedgelab.strategies", "delta_hedge", "strategies.delta_hedge", None),
    ("hedgelab.ledger", "comp_cumsum", None, _size),
    ("hedgelab.ledger", "enforce_self_financing", "ledger.enforce_self_financing", None),
    ("hedgelab.ledger", "self_financing_defect", "ledger.self_financing_defect", None),
    ("hedgelab.ledger", "ito_expansion_terms", "ledger.ito_expansion_terms", None),
    ("hedgelab.ledger", "write_ledger_csv", "ledger.write_ledger_csv", None),
)

# What each span's count is called in the per-layer metrics.
COUNT_NAMES = {
    "paths.generate_brownian": "normals",
    "paths.refine": "normals",
    "accum.comp_cumsum_1d": "elements",
    "accum.comp_cumsum_nd": "elements",
    "strategies.bs_delta": "elements",
}

SPAN_NAMES = (
    "paths.generate_brownian", "paths.gbm_path", "paths.refine",
    "accum.comp_cumsum_1d", "accum.comp_cumsum_nd",
    "strategies.bs_delta", "strategies.delta_hedge",
    "ledger.enforce_self_financing", "ledger.self_financing_defect",
    "ledger.ito_expansion_terms", "ledger.write_ledger_csv",
    "experiments.defect_refinement_study", "experiments.martingale_test",
    "experiments.write_result_csv", "cli.run",
)
LAYERS = ("paths", "accum", "strategies", "ledger", "experiments", "cli")


def _cumsum_name(args, kwargs):
    terms = args[0] if args else kwargs["terms"]
    return "accum.comp_cumsum_1d" if np.ndim(terms) == 1 else "accum.comp_cumsum_nd"


class Tracer:
    """Records one span per wrapped call; install before the call, uninstall after."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, count]
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name or _cumsum_name(args, kwargs), 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(result)
            return result

        return traced

    def install(self):
        for module_name, attr, name, counter in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics of the recorded spans for a call of `wall_s` seconds."""
        metrics = {f"{name}.self_s": 0.0 for name in SPAN_NAMES}
        metrics.update({f"{name}.calls": 0 for name in SPAN_NAMES})
        metrics.update({f"{name}.{kind}": 0 for name, kind in COUNT_NAMES.items()})
        self_s = [end - start for _, start, end, _, _ in self.spans]
        root_s = 0.0
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
            else:
                root_s += end - start
        for (name, _, _, _, count), own in zip(self.spans, self_s):
            metrics[f"{name}.self_s"] += own
            metrics[f"{name}.calls"] += 1
            if name in COUNT_NAMES:
                metrics[f"{name}.{COUNT_NAMES[name]}"] += count
        # Computed from shapes, not measured: each N-D element is read once
        # and written once as float64.
        metrics["accum.comp_cumsum_nd.bytes_computed"] = 16 * metrics["accum.comp_cumsum_nd.elements"]
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                metrics[f"{name}.self_s"] for name in SPAN_NAMES if name.startswith(layer + ".")
            )
        metrics["trace.wall_s"] = wall_s
        metrics["trace.unattributed_s"] = wall_s - root_s
        return metrics

    def write(self, dest, run_id: str, origin: float) -> None:
        """Write the spans as CSV; times are seconds from `origin`."""
        with open(dest, "w") as fh:
            fh.write("run_id,span,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{run_id},{i},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")
