"""Fuzz ``classim simulate`` over config JSON values and command-line flags.

Whatever the input, the command exits 0, 1 or 2; a nonzero exit prints
exactly one stderr line, starting ``error:``; nothing ever ends in a
traceback.  Runs replay a tiny observation (4 people x 30 s) with small
replicate counts and horizons, so every example stays cheap.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from classim.cli import DEFAULT_CONFIG, main

SCALARS = st.sampled_from([
    None, True, False, 0, 1, 2, -1, 1.5, -1.0, 0.0, 2.0, 1e308, -1e308, 1e-308,
    float("nan"), float("inf"), float("-inf"), "", "x", "1", "droplet", "airborne",
    "full-novax", "poisson_days", "geometric_steps",
])
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=2),
    st.dictionaries(st.sampled_from(["a", "path", "mode", "r0"]), SCALARS, max_size=2),
)
KEY_PATHS = [(key,) for key in DEFAULT_CONFIG] + [
    (section, key)
    for section in ("kernel", "disease", "calibration")
    for key in DEFAULT_CONFIG[section]
]
#: Valid settings that keep a run small; fuzzed keys override them.
SMALL = {"reps": 1, "horizon_days": 1, "scenarios": ["full-novax", "half-vax"]}
FLAG_VALUES = st.sampled_from(["1", "2", "0", "-1", "1.5", "x", "", "nan", "1e3"])
FLAGS = {
    "--reps": FLAG_VALUES,
    "--horizon-days": FLAG_VALUES,
    "--base-seed": FLAG_VALUES,
    "--workers": st.sampled_from(["1", "0", "-1", "1.5", "x", ""]),
    "--scenarios": st.sampled_from(["full-novax", "half-vax,full-vax", "", "x", "full-novax,"]),
}


def _nest(overrides) -> dict:
    config = dict(SMALL)
    for path, value in overrides:
        if len(path) == 1:
            config[path[0]] = value
        elif isinstance(section := config.setdefault(path[0], {}), dict):
            section[path[1]] = value
    return config


@st.composite
def configs(draw, obs_path):
    """A config file's JSON value, and whether to name the observation on the command line."""
    inner = draw(st.lists(st.tuples(st.sampled_from(KEY_PATHS), VALUES), max_size=3).map(_nest))
    shape = draw(st.sampled_from(["config", "manifest", "not an object"]))
    if shape == "not an object":
        return draw(VALUES.filter(lambda v: not isinstance(v, dict))), True
    if shape == "config":
        return inner, True
    inputs = draw(st.one_of(VALUES, st.just([{"path": str(obs_path)}])))
    return {"parameters": draw(st.one_of(st.just(inner), VALUES)), "inputs": inputs}, draw(
        st.booleans())


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    obs = root / "class.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["synth", "--children", "3", "--teachers", "1", "--length", "30",
                     "--seed", "1", "--out", str(obs)])
    assert code == 0
    return root, obs


def _simulate(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process ``classim`` call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


def _check(code, err):
    assert code in (0, 1, 2), (code, err)
    if code == 0:
        assert err == ""
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_simulate_any_config_or_flags_exits_cleanly(tiny, data):
    root, obs = tiny
    config, name_obs = data.draw(configs(obs))
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(config))
    flags = data.draw(st.lists(st.sampled_from(sorted(FLAGS)), max_size=3, unique=True))
    values = {"--workers": "1"} | {flag: data.draw(FLAGS[flag]) for flag in flags}
    argv = ["simulate", "--config", str(cfg), "--out", str(root / "out")]
    argv += [str(obs)] if name_obs else []
    argv += [f"{flag}={value}" for flag, value in values.items()]
    _check(*_simulate(argv))


#: Out-of-range numbers and wrong types, tried at every config key in turn.
EDGE_VALUES = [-1, 0, 1.5, -1e308, 1e308, 1e-308, float("nan"), float("inf"), "x", None, [1], True]


def test_simulate_every_key_with_every_edge_value(tiny):
    root, obs = tiny
    cfg = root / "edge.json"
    failed = []
    for path in KEY_PATHS:
        for value in EDGE_VALUES:
            config = _nest([(path, value)])
            cfg.write_text(json.dumps(config))
            code, err = _simulate(["simulate", str(obs), "--config", str(cfg),
                                   "--out", str(root / "edge"), "--workers", "1"])
            try:
                _check(code, err)
            except AssertionError:
                failed.append((config, code, err.splitlines()[-1:]))
    assert not failed, failed


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("config", [
    {"base_seed": 1.5},
    {"horizon_days": 1.5},
    {"reps": 1.5},
    {"parameters": 3},
    {"disease": {"dt_s": 2.0}},
    [1, 2],
    {"kernel": 3},
    {"parameters": {}, "inputs": 3},
    {"vaccine_efficacy": True},
    {"kernel": {"sigma_theta_deg": True}},
    {"disease": {"p_symptomatic": False}},
])
def test_simulate_bad_config_value_is_one_error_line(tiny, config, workers):
    root, obs = tiny
    cfg = root / "bad.json"
    cfg.write_text(json.dumps(config))
    code, err = _simulate(["simulate", str(obs), "--config", str(cfg),
                           "--out", str(root / "bad"), "--workers", workers])
    assert code == 1
    _check(code, err)
