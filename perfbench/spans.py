"""Span recording from outside the package.

Public functions and methods of ``fusiongain`` are wrapped at run time.
Every module that imported a wrapped function by name gets the wrapper
too (``mean_utility.crossfit_predict`` as well as
``nuisance.crossfit_predict``), so no call path escapes the trace.  A span
is (name, start, end, parent index, operation id, work), where work counts
what the layer processed: query x training pairs or parsed rows.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field


def _pairs(query: str, train):
    """Work counter: rows of argument ``query`` x rows of the training sample."""
    def count(bound, result):
        return len(bound.arguments[query]) * len(train(bound.arguments))
    return count


def _rows(bound, result):
    return result.n


# span name -> (module, dotted attribute, work counter or None)
TARGETS = {
    "cli": ("fusiongain.cli", "main", None),
    "cli.parse_csv": ("fusiongain.cli", "parse_csv", _rows),
    "nuisance.local_linear.predict": (
        "fusiongain.nuisance", "LocalLinearRegressor.predict",
        _pairs("x", lambda a: a["self"].x_train)),
    "nuisance.knn.predict": (
        "fusiongain.nuisance", "KnnRegressor.predict",
        _pairs("x", lambda a: a["self"].x_train)),
    "nuisance.cond_kde": (
        "fusiongain.nuisance", "cond_kde_profile",
        _pairs("x_queries", lambda a: a["x_sample"])),
    "nuisance.silverman_bandwidth": ("fusiongain.nuisance", "silverman_bandwidth", None),
    "nuisance.fit_conditional_mean": ("fusiongain.nuisance", "fit_conditional_mean", None),
    "nuisance.crossfit_predict": ("fusiongain.nuisance", "crossfit_predict", None),
    "nuisance.make_split_plan": ("fusiongain.nuisance", "make_split_plan", None),
    "rng.fisher_yates": ("fusiongain.rng", "fisher_yates", None),
    "rng.substream": ("fusiongain.rng", "substream", None),
    "simulation.generate_dgp": ("fusiongain.simulation", "generate_dgp", None),
    "simulation.true_theta": ("fusiongain.simulation", "true_theta", None),
    "simulation.run_monte_carlo": ("fusiongain.simulation", "run_monte_carlo", None),
    "mean_utility.compute_mean_intermediates": (
        "fusiongain.mean_utility", "compute_mean_intermediates", None),
    "mean_utility.split_estimate_mean": ("fusiongain.mean_utility", "split_estimate_mean", None),
    "mean_utility.variance_mean": ("fusiongain.mean_utility", "variance_mean", None),
    "quantile_utility.compute_quantile_intermediates": (
        "fusiongain.quantile_utility", "compute_quantile_intermediates", None),
    "quantile_utility.split_estimate_quantile": (
        "fusiongain.quantile_utility", "split_estimate_quantile", None),
    "quantile_utility.variance_quantile": (
        "fusiongain.quantile_utility", "variance_quantile", None),
    "linreg_utility.fit_components": ("fusiongain.linreg_utility", "fit_components", None),
    "linreg_utility.variance_linreg": ("fusiongain.linreg_utility", "variance_linreg", None),
    # core is one layer: every wrapped core function records a "core" span
    "core": ("fusiongain.core", "wald_interval", None),
    "core#ratio": ("fusiongain.core", "ratio_estimate", None),
    "core#relative": ("fusiongain.core", "relative_utility", None),
    "core#from_raw": ("fusiongain.core", "UtilityEstimate.from_raw", None),
}

_COMMON = {"cli", "nuisance.fit_conditional_mean", "nuisance.crossfit_predict",
           "nuisance.make_split_plan", "rng.fisher_yates", "rng.substream", "core",
           "mean_utility.compute_mean_intermediates", "mean_utility.split_estimate_mean",
           "mean_utility.variance_mean"}
_QUANTILE = {"quantile_utility.compute_quantile_intermediates",
             "quantile_utility.split_estimate_quantile", "quantile_utility.variance_quantile",
             "nuisance.cond_kde", "nuisance.silverman_bandwidth",
             "nuisance.local_linear.predict"}
_LINREG = {"linreg_utility.fit_components", "linreg_utility.variance_linreg"}

# Spans that must fire at least once in a traced run of each workload.
EXPECTED = {
    "assess-kernel": _COMMON | _QUANTILE | {"cli.parse_csv", "nuisance.knn.predict"},
    "assess-linear": _COMMON | _LINREG | {"cli.parse_csv"},
    "simulate-grid": _COMMON | _QUANTILE | _LINREG | {
        "simulation.generate_dgp", "simulation.true_theta", "simulation.run_monte_carlo"},
}


def layer(name: str) -> str:
    return name.split("#", 1)[0]


@dataclass
class Recorder:
    """In-memory span list; spans nest strictly because calls are single-threaded."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    originals: list = field(default_factory=list)
    op_id: int = -1

    def wrap(self, name: str, fn, work=None):
        signature = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = [name, start, end, parent, self.op_id, 0]
            if work is not None:
                self.spans[index][5] = work(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target; return the targets that no longer exist."""
        missing = []
        for name, (module_name, dotted, work) in TARGETS.items():
            module = sys.modules.get(module_name)
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = None if owner is None else inspect.getattr_static(owner, attr, None)
            if raw is None:
                missing.append(f"{module_name}.{dotted}")
            elif isinstance(raw, classmethod):
                self._rebind(owner, attr, classmethod(self.wrap(layer(name), raw.__func__, work)))
            elif owner_name:
                self._rebind(owner, attr, self.wrap(layer(name), raw, work))
            else:
                wrapper = self.wrap(layer(name), raw, work)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "fusiongain":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._rebind(mod, key, wrapper)
        return missing

    def _rebind(self, owner, attr, value) -> None:
        self.originals.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self.originals:
            owner, attr, value = self.originals.pop()
            setattr(owner, attr, value)

    def summary(self, n_ops: int) -> dict:
        """Per span name: calls, inclusive and self seconds, work; totals over the run."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, work in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, parent, op, work), covered in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
            entry["work"] += work
        return {"ops": n_ops, "spans": out}
