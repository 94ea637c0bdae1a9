"""The README's library examples run against the package as it is, and the
package exports the names that section documents."""

import re
import types
from pathlib import Path

import fusiongain

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_blocks() -> list[str]:
    """The python code blocks under "## Library", in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_examples_run():
    blocks = _library_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:  # later blocks use the names earlier ones bind
        exec(compile(block, str(README), "exec"), namespace)


# The names the Library section documents, and nothing more.
SURFACE = [
    "assess_mean", "assess_quantile", "assess_linreg",
    "Dataset", "UtilityEstimate", "Interval", "relative_utility", "RelativeUtility",
    "METHODS", "DgpConfig", "generate_dgp", "MonteCarloCell", "run_monte_carlo",
    "true_theta_mean", "true_theta_quantile", "true_theta_linreg",
    "FusionGainError",
]


def test_package_exports_only_the_library_surface():
    assert sorted(fusiongain.__all__) == sorted(SURFACE)
    assert not [name for name in fusiongain.__all__
                if isinstance(getattr(fusiongain, name), types.ModuleType)]
