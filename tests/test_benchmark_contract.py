"""The names of classim that the benchmark under ``perfbench/`` reaches.

The benchmark's tracer wraps module attributes by name, its hooks read
call arguments by parameter name, and its workloads call the library
directly.  A rename or deletion of any of these ends a benchmark child
with an error, so each one is checked here.  The tracer is only imported,
never installed: installing it would patch classim for every later test.
"""

import ast
import functools
import inspect
import sys
from pathlib import Path

import pytest

import classim
import classim.cli  # noqa: F401  (the package does not import its command line)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import tracer  # noqa: E402

#: Parameters the tracer's hooks read from a call's bound arguments.
HOOK_PARAMS = {
    "trajectory.load_observation": ("path",),
    "trajectory.save_observation": ("csv_path",),
    "kernel.pairwise_rates": (),
    "scenario.run_simulation": ("sc", "cal"),
    "epidemic.simulate_session": ("state",),
}

#: Library names the workloads call; ``EpidemicState.counts`` is read off a
#: state object, so no scan of the source finds it.
WORKLOAD_NAMES = (
    "classim.load_observation",
    "classim.pairwise_rates",
    "classim.default_kernel_params",
    "classim.TrackFormat.RAW_TAGS",
    "classim.kernel.relative_geometry",
    "classim.kernel.pair_rate",
    "classim.epidemic.new_epidemic_state",
    "classim.epidemic.seed_patient_zero",
    "classim.epidemic.simulate_session",
    "classim.epidemic.EpidemicState.counts",
    "classim.synthgen.generate",
)


def _resolve(dotted: str):
    """The object a dotted name starting at the ``classim`` package names."""
    _, *attrs = dotted.split(".")
    return functools.reduce(getattr, attrs, classim)


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracer.TRACED])
def test_every_traced_name_resolves(module, attr):
    assert callable(_resolve(f"classim.{module}.{attr}"))


@pytest.mark.parametrize("name", sorted(HOOK_PARAMS))
def test_hook_parameters_exist(name):
    assert name in tracer._HOOKS
    params = inspect.signature(_resolve(f"classim.{name}")).parameters
    for param in HOOK_PARAMS[name]:
        assert param in params, f"{name} has no parameter {param!r}"


def test_every_hook_is_listed():
    assert set(tracer._HOOKS) == set(HOOK_PARAMS)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_name_resolves(name):
    _resolve(name)


def test_every_library_attribute_in_workloads_resolves():
    # workloads.py imports classim, or its modules by their own names,
    # inside functions; every attribute chain rooted at one of them resolves
    roots = {"classim", "cli", "epidemic", "kernel", "synthgen", "trajectory"}
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in roots:
            prefix = "classim" if node.id == "classim" else f"classim.{node.id}"
            chains.add(".".join([prefix, *reversed(parts)]))
    assert {"classim.load_observation", "classim.kernel.pair_rate"} <= chains
    for chain in sorted(chains):
        _resolve(chain)
