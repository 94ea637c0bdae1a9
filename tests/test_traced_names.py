"""The helper names that the benchmark's span recorder wraps still exist and fire.

``perfbench/spans.py`` wraps package functions by module and name; a renamed
or bypassed helper would otherwise surface only in a traced benchmark run.
The same spans pin each assessment's cross-fits, so a stage that refits fails here.
This test reads ``perfbench/`` and changes nothing there.
"""

from collections import Counter
from pathlib import Path

import fusiongain.cli  # noqa: F401  (install() wraps modules already imported)
from fusiongain import nuisance
from fusiongain.mean_utility import assess_mean
from fusiongain.quantile_utility import assess_quantile
from fusiongain.simulation import DgpConfig, generate_dgp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

UTILITY_SPANS = {
    "mean_utility.compute_mean_intermediates",
    "mean_utility.split_estimate_mean",
    "mean_utility.variance_mean",
    "quantile_utility.compute_quantile_intermediates",
    "quantile_utility.split_estimate_quantile",
    "quantile_utility.variance_quantile",
}


def test_utility_spans_fire_once_per_assessment(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    # the folds of each fit: a fold group stacks its folds' training rows
    folds_fitted = []
    fit = nuisance.fit_conditional_mean

    def counted(x, z, kind):
        folds_fitted.append(1 if x.ndim == 2 else len(x))
        return fit(x, z, kind)

    monkeypatch.setattr(nuisance, "fit_conditional_mean", counted)
    recorder = spans.Recorder()
    data = generate_dgp(DgpConfig(b=0.5, n=120, seed=2))
    counts, folds = [], []
    try:
        assert recorder.install() == []
        for assess in (lambda: assess_mean(data, nu=0.5, regressor="local-linear"),
                       lambda: assess_quantile(data, nu=0.5)):
            start = len(recorder.spans)
            folds_fitted.clear()
            assess()
            counts.append(Counter(name for name, *_ in recorder.spans[start:]))
            folds.append(sum(folds_fitted))
    finally:
        recorder.uninstall()
    calls = {name: sum(count[name] for count in counts) for name in UTILITY_SPANS}
    assert calls == {name: 1 for name in UTILITY_SPANS}
    # one cross-fit of 5 folds each: both split cores reduce the point
    # core's squares, and the quantile fits its two indicators in one pass.
    # At n = 120 the cross-fit's folds fit one block, so one fit each
    for count, fitted in zip(counts, folds):
        assert count["nuisance.crossfit_predict"] == 1
        assert count["nuisance.fit_conditional_mean"] == 1
        assert fitted == 5
