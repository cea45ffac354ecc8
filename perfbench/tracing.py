"""Per-layer tracing from outside the program.

``Tracer.install`` wraps public functions of the bcvhelix modules and
rebinds every module-level name that refers to them, so calls through
``from .oracle import sample_mesh`` in ``cli`` are seen as well as calls
inside ``oracle``.  Coarse boundaries record spans (name, start, end, parent,
job); hot functions only bump counters.  Spans stay in memory and are reduced
to per-job metrics by ``layer_metrics``.  ``uninstall`` restores every name.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np
from bcvhelix.errors import BcvHelixError

# (span name, module, function) -- timed boundaries
SPANS = [
    ("cli.make_chart", "cli", "make_chart"),
    ("cli.write", "cli", "write_json"),
    ("cli.write", "cli", "write_profile_csv"),
    ("cli.write", "cli", "write_mesh_csv"),
    ("cli.write", "cli", "write_obj"),
    ("cmc.resolve", "cmc", "cmc_U"),
    ("cmc.resolve", "cmc", "minimal_U"),
    ("cmc.residual", "cmc", "cmc_residual"),
    ("bour.validity_scan", "bour", "domain_of_validity"),
    ("bour.build_chart", "bour", "build_chart"),
    ("oracle.sample_mesh", "oracle", "sample_mesh"),
    ("oracle.mean_curvature", "oracle", "mean_curvature_extrinsic"),
    ("oracle.first_form", "oracle", "first_form_numeric"),
    ("oracle.isometry_deviation", "oracle", "isometry_deviation"),
    ("spaces.christoffels", "spaces", "christoffels"),
]

# (span name, module, class, method)
METHOD_SPANS = [
    ("numerics.cumquad", "numerics", "CumulativeQuadrature", "__call__"),
]

# (counter name, module, function, span whose open calls are counted apart)
COUNTERS = [
    ("bour.integrand_evals", "bour", "xi2_integrand", "numerics.cumquad"),
    ("bour.integrand_evals", "bour", "theta0_integrand", "numerics.cumquad"),
    ("spaces.metric.calls", "spaces", "metric_cartesian", None),
]

# (counter name, module, class, method, span whose open calls are counted apart)
METHOD_COUNTERS = [
    ("bour.chart_evals", "bour", "NaturalChart", "xi1", None),
    ("bour.chart_evals", "bour", "NaturalChart", "xi2", None),
    ("bour.chart_evals", "bour", "NaturalChart", "theta0", None),
    ("oracle.point_evals", "oracle", "SurfaceChart", "point", None),
]

# metric name -> unit, in the order they are reported
UNITS = {
    "cli.make_chart.s": "s/job",
    "cli.make_chart.calls": "calls/job",
    "cli.write.s": "s/job",
    "cli.write.bytes": "bytes/job",
    "cmc.resolve.s": "s/job",
    "cmc.residual.s": "s/job",
    "cmc.residual.calls": "calls/job",
    "bour.validity_scan.s": "s/job",
    "bour.build_chart.s": "s/job",
    "bour.chart_evals": "calls/job",
    "bour.integrand_evals": "calls/job",
    "numerics.cumquad.s": "s/job",
    "numerics.cumquad.calls": "calls/job",
    "numerics.integrand_evals_per_cumquad": "1",
    "oracle.sample_mesh.s": "s/job",
    "oracle.mean_curvature.s": "s/job",
    "oracle.mean_curvature.calls": "calls/job",
    "oracle.mean_curvature.ms_per_call": "ms",
    "oracle.first_form.s": "s/job",
    "oracle.first_form.calls": "calls/job",
    "oracle.first_form.us_per_call": "us",
    "oracle.isometry_deviation.s": "s/job",
    "oracle.isometry_deviation.calls": "calls/job",
    "oracle.isometry_deviation.ms_per_call": "ms",
    "oracle.point_evals": "calls/job",
    "oracle.point_evals_per_h": "1",
    "oracle.h_ext_valid_ratio": "1",
    "oracle.errors": "errors/job",
    "spaces.christoffels.s": "s/job",
    "spaces.christoffels.calls": "calls/job",
    "spaces.metric.calls": "calls/job",
    "trace.jobs_per_s": "1/s",
    "trace.overhead": "1",
}


def _module(name: str):
    return sys.modules[f"bcvhelix.{name}"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans and counters for one traced phase of a workload."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job, nested]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # oracle errors by class
        self.job = None
        self._stack: list[int] = []
        self._open: Counter = Counter()  # open spans by name
        self._undo: list[tuple] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack, open_ = self.spans, self._stack, self._open
        count_errors = name.startswith("oracle.")

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else None, self.job, open_[name] > 0]
            stack.append(len(spans))
            spans.append(rec)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            except BcvHelixError as exc:
                if count_errors and not getattr(exc, "_traced", False):
                    exc._traced = True
                    self.errors[type(exc).__name__] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
                open_[name] -= 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn, inside):
        counts, open_ = self.counts, self._open
        if inside is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            inner = f"{name}@{inside}"

            def wrapper(*args, **kwargs):
                counts[name] += 1
                if open_[inside]:
                    counts[inner] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _after_write(self, args, result):
        self.counts["cli.write.bytes"] += os.path.getsize(args[0])

    def _after_mesh(self, args, mesh):
        self.counts["oracle.h_ext.finite"] += int(np.count_nonzero(np.isfinite(mesh.h_ext)))
        self.counts["oracle.h_ext.vertices"] += int(mesh.h_ext.size)

    # -- install / uninstall ---------------------------------------------

    def _rebind(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "bcvhelix" and not modname.startswith("bcvhelix."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch_method(self, cls, method: str, replacement):
        self._undo.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, replacement)

    def install(self):
        hooks = {
            "write_json": self._after_write,
            "write_profile_csv": self._after_write,
            "write_mesh_csv": self._after_write,
            "write_obj": self._after_write,
            "sample_mesh": self._after_mesh,
        }
        for name, mod, fn_name in SPANS:
            original = getattr(_module(mod), fn_name)
            self._rebind(original, self._span(name, original, hooks.get(fn_name)))
        for name, mod, cls_name, method in METHOD_SPANS:
            cls = getattr(_module(mod), cls_name)
            self._patch_method(cls, method, self._span(name, cls.__dict__[method]))
        for name, mod, fn_name, inside in COUNTERS:
            original = getattr(_module(mod), fn_name)
            self._rebind(original, self._counter(name, original, inside))
        for name, mod, cls_name, method, inside in METHOD_COUNTERS:
            cls = getattr(_module(mod), cls_name)
            self._patch_method(cls, method, self._counter(name, cls.__dict__[method], inside))

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- reduction -------------------------------------------------------

    def span_totals(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Inclusive time skips spans nested in a span of the same name; self
        time is a span's duration minus the time its child spans cover.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, job, nested in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, parent, job, nested) in enumerate(self.spans):
            calls[name] += 1
            if not nested:
                incl[name] += end - start
            self_s[name] += end - start - covered[i]
        return calls, incl, self_s

    def layer_metrics(self, jobs: int) -> dict:
        """Per-job per-layer metrics; keys are those of UNITS except trace.*."""
        calls, incl, self_s = self.span_totals()
        c = self.counts
        per_job = lambda v: _ratio(v, jobs)
        out = {
            "cli.make_chart.s": per_job(incl["cli.make_chart"]),
            "cli.make_chart.calls": per_job(calls["cli.make_chart"]),
            "cli.write.s": per_job(incl["cli.write"]),
            "cli.write.bytes": per_job(c["cli.write.bytes"]),
            "cmc.resolve.s": per_job(incl["cmc.resolve"]),
            "cmc.residual.s": per_job(incl["cmc.residual"]),
            "cmc.residual.calls": per_job(calls["cmc.residual"]),
            "bour.validity_scan.s": per_job(incl["bour.validity_scan"]),
            "bour.build_chart.s": per_job(self_s["bour.build_chart"]),
            "bour.chart_evals": per_job(c["bour.chart_evals"]),
            "bour.integrand_evals": per_job(c["bour.integrand_evals"]),
            "numerics.cumquad.s": per_job(incl["numerics.cumquad"]),
            "numerics.cumquad.calls": per_job(calls["numerics.cumquad"]),
            "numerics.integrand_evals_per_cumquad": _ratio(
                c["bour.integrand_evals@numerics.cumquad"], calls["numerics.cumquad"]
            ),
            "oracle.sample_mesh.s": per_job(incl["oracle.sample_mesh"]),
            "oracle.mean_curvature.s": per_job(incl["oracle.mean_curvature"]),
            "oracle.mean_curvature.calls": per_job(calls["oracle.mean_curvature"]),
            "oracle.mean_curvature.ms_per_call": 1e3 * _ratio(
                incl["oracle.mean_curvature"], calls["oracle.mean_curvature"]
            ),
            "oracle.first_form.s": per_job(incl["oracle.first_form"]),
            "oracle.first_form.calls": per_job(calls["oracle.first_form"]),
            "oracle.first_form.us_per_call": 1e6 * _ratio(
                incl["oracle.first_form"], calls["oracle.first_form"]
            ),
            "oracle.isometry_deviation.s": per_job(incl["oracle.isometry_deviation"]),
            "oracle.isometry_deviation.calls": per_job(calls["oracle.isometry_deviation"]),
            "oracle.isometry_deviation.ms_per_call": 1e3 * _ratio(
                incl["oracle.isometry_deviation"], calls["oracle.isometry_deviation"]
            ),
            "oracle.point_evals": per_job(c["oracle.point_evals"]),
            "oracle.point_evals_per_h": _ratio(
                c["oracle.point_evals"], calls["oracle.mean_curvature"]
            ),
            "oracle.h_ext_valid_ratio": _ratio(
                c["oracle.h_ext.finite"], c["oracle.h_ext.vertices"]
            ),
            "oracle.errors": per_job(sum(self.errors.values())),
            "spaces.christoffels.s": per_job(incl["spaces.christoffels"]),
            "spaces.christoffels.calls": per_job(calls["spaces.christoffels"]),
            "spaces.metric.calls": per_job(c["spaces.metric.calls"]),
        }
        return out

    def details(self, jobs: int) -> dict:
        """Every span's per-job calls, inclusive and self time, plus error classes."""
        calls, incl, self_s = self.span_totals()
        return {
            "spans_recorded": len(self.spans),
            "per_job": {
                name: {
                    "calls": _ratio(calls[name], jobs),
                    "incl_s": _ratio(incl[name], jobs),
                    "self_s": _ratio(self_s[name], jobs),
                }
                for name in sorted(calls)
            },
            "oracle_errors_by_class": dict(sorted(self.errors.items())),
        }
