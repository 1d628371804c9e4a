"""The package root exports only the names its callers import from it.

Every other name is imported from its module, so a name removed from the
root cannot come back without a change here.
"""

import ast
import re
import types
from pathlib import Path

import classim

ROOT = Path(__file__).resolve().parent.parent


def _readme_names() -> set[str]:
    """The names the README's library example imports from ``classim``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^from classim import \(([^)]*)\)", text, re.MULTILINE)
    assert block, "README has no `from classim import (...)` block"
    return {name.strip() for name in block.group(1).split(",") if name.strip()}


def _benchmark_names() -> set[str]:
    """The names ``perfbench/workloads.py`` reads as ``classim.<name>``."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "classim"}


def test_readme_example_names_resolve_from_root():
    names = _readme_names()
    assert names == {"DiseaseParams", "ScenarioConfig", "SynthConfig",
                     "default_kernel_params", "generate", "sweep"}
    for name in sorted(names):
        assert hasattr(classim, name), name


def test_root_exports_only_what_callers_import():
    bench = _benchmark_names()
    assert bench == {"__version__", "load_observation", "TrackFormat", "pairwise_rates",
                     "default_kernel_params"}
    public = {name for name, value in vars(classim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public | {"__version__"} == _readme_names() | bench
