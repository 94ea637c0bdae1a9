"""The helper names that the benchmark's span recorder wraps still exist and fire.

``perfbench/spans.py`` wraps package functions by module and name; a renamed
or bypassed helper would otherwise surface only in a traced benchmark run.
This test reads ``perfbench/`` and changes nothing there.
"""

from pathlib import Path

import fusiongain.cli  # noqa: F401  (install() wraps modules already imported)
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

    recorder = spans.Recorder()
    try:
        assert recorder.install() == []
        data = generate_dgp(DgpConfig(b=0.5, n=120, seed=2))
        assess_mean(data, nu=0.5, regressor="local-linear")
        assess_quantile(data, nu=0.5)
    finally:
        recorder.uninstall()
    calls = {name: 0 for name in UTILITY_SPANS}
    for name, *_ in recorder.spans:
        if name in calls:
            calls[name] += 1
    assert calls == {name: 1 for name in UTILITY_SPANS}
