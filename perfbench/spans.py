"""In-memory spans and counts around pcsgd's public calls.

`install` wraps functions and methods from the outside, so pcsgd itself is
unchanged.  Each call becomes a span (name, parent, start, end); spans stay
in memory until `write` saves them at the end of the run.  A layer's self
time is its spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

RUN = "sgd.run"
ENERGIES = "estimators.energies"


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _rows(germs) -> int:
    return np.atleast_2d(germs).shape[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, fn, name, count=None):
        """`fn` recorded as span `name`.

        `count(tracer, args, kwargs, result)` runs after the span has closed,
        when `parent_name` is again the caller's span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def self_times(self, roots: tuple[str, ...]) -> dict[str, float]:
        """Self time per span name, over spans under a root named in `roots`."""
        child_time = defaultdict(float)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        keep = [False] * len(self.spans)
        totals: dict[str, float] = defaultdict(float)
        for i, (name, parent, start, end) in enumerate(self.spans):
            keep[i] = name in roots if parent < 0 else keep[parent]
            if keep[i]:
                totals[name] += end - start - child_time[i]
        return dict(totals)

    def inclusive_time(self, name: str, parent_name: str) -> float:
        """Total duration of spans `name` opened directly under a `parent_name` span."""
        return sum(
            end - start
            for n, parent, start, end in self.spans
            if n == name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def write(self, path: str):
        with open(path, "w") as out:
            for name, parent, start, end in self.spans:
                out.write(json.dumps({"name": name, "parent": parent, "start": start, "end": end}))
                out.write("\n")


# -- counters, run after the span has closed ------------------------------------


def _count_sample(tracer, args, kwargs, result):
    tracer.counts["random_field.sample_batch_calls"] += 1
    if _arg(args, kwargs, 3, "purpose") == "gradient" and tracer.parent_name() == RUN:
        tracer.counts["sgd.iterations"] += 1


def _count_psi(tracer, args, kwargs, result):
    tracer.counts["pc_basis.psi_germs"] += _rows(_arg(args, kwargs, 1, "y"))


def _count_kernel(tracer, args, kwargs, result):
    tracer.counts["estimators.germs_evaluated"] += _rows(_arg(args, kwargs, 2, "germs"))


def _count_energies(tracer, args, kwargs, result):
    rows = _rows(_arg(args, kwargs, 2, "germs"))
    tracer.counts["estimators.germs_evaluated"] += rows
    if tracer.parent_name() == RUN:
        tracer.counts["sgd.monitor_germs"] += rows


def _count_blocks(tracer, args, kwargs, result):
    tracer.counts["sgd.block_solves"] += _arg(args, kwargs, 0, "blocks").shape[0]
    tracer.counts["sgd.block_fallbacks"] += result[1]


def _count_eval(position, name):
    def count(tracer, args, kwargs, result):
        tracer.counts["evaluation.germs"] += int(_arg(args, kwargs, position, name))

    return count


def install(pcsgd) -> Tracer:
    """Wrap pcsgd's public layer calls; returns the tracer that records them."""
    tracer = Tracer()
    rf, est, sgd = pcsgd.random_field, pcsgd.estimators, pcsgd.sgd

    def method(cls, attr, name, count=None):
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, count))

    def function(module, attr, name, count=None):
        # every pcsgd module that imported the function holds its own reference
        original = getattr(module, attr)
        wrapped = tracer.wrap(original, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "pcsgd" and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    method(rf.GermSampler, "sample_batch", "random_field.sample_batch", _count_sample)
    for cls in (rf.TrigLogNormalField, rf.HomogeneousLogNormalField):
        method(cls, "values", "random_field.kappa")
    method(rf.HomogeneousLogNormalField, "scalar_values", "random_field.kappa")

    function(pcsgd.pc_basis, "eval_all", "pc_basis.psi", _count_psi)

    for attr in ("quadrature_points", "hat_tables", "lifting_tables"):
        function(pcsgd.fem1d, attr, "fem1d.tables")

    method(est.Kernel, "solution_values", "estimators.solution_values")
    method(est.Kernel, "gradient_parts", "estimators.gradient_parts", _count_kernel)
    method(est.Kernel, "gradient_batch", "estimators.gradient_parts")
    method(est.Kernel, "cv_auxiliary_batch", "estimators.cv", _count_kernel)
    method(est.Kernel, "cv_known_mean", "estimators.cv")
    method(est.Kernel, "cv_gradient_batch", "estimators.cv")
    function(est, "estimate_cv_lambda", "estimators.cv")
    method(est.Kernel, "averaged_hessian_blocks", "estimators.hessian_blocks", _count_kernel)
    method(est.Kernel, "energies", ENERGIES, _count_energies)

    function(sgd, "run", RUN)
    function(sgd, "precondition_solve", "sgd.precondition_solve", _count_blocks)

    ev = pcsgd.evaluation
    function(ev, "estimate_energy", "evaluation.estimate_energy", _count_eval(4, "n_samples"))
    function(ev, "pointwise_l2_error", "evaluation.pointwise_l2_error", _count_eval(5, "n_samples"))
    function(ev, "empirical_cdf", "evaluation.empirical_cdf", _count_eval(6, "n_samples"))
    return tracer
