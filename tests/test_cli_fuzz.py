"""Fuzz ``classim simulate`` over config JSON values, command-line flags,
observation sidecars and the coordinates inside fused and raw-tag files.

Whatever the input, the command exits 0, 1 or 2; a nonzero exit prints
exactly one stderr line, starting ``error:``; nothing ever ends in a
traceback.  Runs replay a tiny observation (4 people x 30 s) with small
replicate counts and horizons, so every example stays cheap.
"""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from classim.cli import DEFAULT_CONFIG, main
from classim.trajectory import FUSED_HEADER, RAW_HEADER

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
    "--horizon-days": st.one_of(FLAG_VALUES, st.just("100000000")),
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
    {"scenarios": []},
])
def test_simulate_bad_config_value_is_one_error_line(tiny, config, workers):
    root, obs = tiny
    cfg = root / "bad.json"
    cfg.write_text(json.dumps(config))
    code, err = _simulate(["simulate", str(obs), "--config", str(cfg),
                           "--out", str(root / "bad"), "--workers", workers])
    assert code == 1
    _check(code, err)


@st.composite
def sidecars(draw, valid: dict):
    """A sidecar's JSON value: the tiny observation's own, with keys fuzzed."""
    if draw(st.booleans()) and draw(st.booleans()):
        return draw(VALUES.filter(lambda v: not isinstance(v, dict)))
    meta = dict(valid)
    fields = {
        "room_area_m2": st.one_of(SCALARS, st.just(64.0)),
        "class_id": VALUES,
        "roster": st.one_of(VALUES, st.lists(st.one_of(
            SCALARS,
            st.sampled_from(valid["roster"]),
            st.fixed_dictionaries({"person_id": st.one_of(SCALARS, st.just("c01")),
                                   "role": st.one_of(SCALARS, st.just("child"))}),
        ), max_size=5)),
        "activity": st.one_of(VALUES, st.lists(st.one_of(SCALARS, st.fixed_dictionaries({
            "start_s": SCALARS, "end_s": st.one_of(SCALARS, st.just(20)),
            "label": st.sampled_from(["structured", "unstructured", "x", None, 1]),
        })), max_size=3)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(fields)), max_size=3, unique=True)):
        if draw(st.booleans()):
            meta[key] = draw(fields[key])
        else:
            meta.pop(key, None)
    return meta


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_simulate_any_sidecar_exits_cleanly(tiny, data):
    root, obs = tiny
    csv_path = root / "side.csv"
    if not csv_path.exists():
        shutil.copy(obs, csv_path)
    valid = json.loads(obs.with_suffix(".meta.json").read_text())
    meta = data.draw(sidecars(valid))
    csv_path.with_suffix(".meta.json").write_text(json.dumps(meta))
    _check(*_simulate(["simulate", str(csv_path), "--out", str(root / "side"),
                       "--reps", "1", "--horizon-days", "1", "--scenarios",
                       "full-novax,half-vax", "--workers", "1"]))


#: Cell values at the edges of a double and of the 1e6-m coordinate bound.
EDGE_CELLS = [
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1e200, -1e200,
    5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1e6, -1e6, 1000000.0000000001,
    1.0000001, 0.6, 0.8, 1.0, -1.0,
]
CELLS = st.one_of(st.sampled_from(EDGE_CELLS), st.floats(-3.0, 3.0), st.floats())
#: Valid rows that the edits below damage: two people, a facing b, over two
#: seconds.  Fused rows hold (x, y, facing_x, facing_y); raw rows hold the
#: (x, y) of one hip tag, left then right.
FUSED_ROWS = [("a,teacher,1", (0.0, 0.0, 1.0, 0.0)), ("b,child,1", (1.0, 0.0, -1.0, 0.0))]
RAW_ROWS = [("a,teacher,L", (0.0, 0.2)), ("a,teacher,R", (0.0, -0.2)),
            ("b,child,L", (1.0, -0.2)), ("b,child,R", (1.0, 0.2))]


def _damaged_csv(raw: bool, edits) -> str:
    """A two-second fused or raw-tag file with cell k % (cell count) set to each edit's value."""
    header, times, keyed = ((RAW_HEADER, (0.0, 1.0), RAW_ROWS) if raw
                            else (FUSED_HEADER, (0, 1), FUSED_ROWS))
    rows = [f"{t!r},{key}" for t in times for key, _ in keyed]
    cells = [c for _ in times for _, row in keyed for c in row]
    for k, value in edits:
        cells[k % len(cells)] = value
    width = len(keyed[0][1])
    lines = [",".join(header)] + [
        row + "," + ",".join(repr(float(c)) for c in cells[r * width:(r + 1) * width])
        for r, row in enumerate(rows)
    ]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=st.booleans(), edits=st.lists(st.tuples(st.integers(0, 15), CELLS), max_size=3))
# a facing whose square overflows; positions whose squared distance overflows
@example(raw=False, edits=[(2, 1e308)])
@example(raw=False, edits=[(0, 1e200), (4, -1e200)])
@example(raw=True, edits=[(0, 1e308), (4, -1e308)])
def test_any_coordinates_exit_cleanly(tiny, raw, edits):
    root, _ = tiny
    meta = json.dumps({"room_area_m2": 20.0})
    fused = root / "coords.csv"
    if raw:
        src = root / "coords_raw.csv"
        src.write_text(_damaged_csv(True, edits))
        src.with_suffix(".meta.json").write_text(meta)
        code, err = _simulate(["fuse", "--input", str(src), "--out", str(fused)])
        _check(code, err)
        if code:
            return
    else:
        fused.write_text(_damaged_csv(False, edits))
        fused.with_suffix(".meta.json").write_text(meta)
    _check(*_simulate(["simulate", str(fused), "--out", str(root / "coords"), "--reps", "1",
                       "--horizon-days", "1", "--scenarios", "full-novax", "--workers", "1"]))


#: Flag values at the edges of each synth input: room sides past the 1e6-m
#: coordinate bound or not finite, speeds that are not finite, negative and
#: huge seeds, and schedules that do not tile the session.
SYNTH_FLAGS = {
    "--room": st.one_of(
        st.sampled_from(["8x8", "infx5", "1e308x1e308", "2e6x5", "1e6x1e6", "1000000.0000000001x1",
                         "0x1", "-1x1", "nanx1", "1e-300x1e-300", "5e-324x1", "x", "1x1x1", ""]),
        st.tuples(st.floats(), st.floats()).map(lambda wh: f"{wh[0]!r}x{wh[1]!r}")),
    "--speed": st.one_of(
        st.sampled_from(["0.3:1.2", "1:inf", "inf:inf", "nan:1", "0:1", "2:1", "1e308:1e308",
                         "1e-300:1e-300", "1", "x:y", ""]),
        st.tuples(st.floats(), st.floats()).map(lambda s: f"{s[0]!r}:{s[1]!r}")),
    "--seed": st.sampled_from(["0", "1", "-1", str(2**64), str(10**30), f"-{2**63}", "1.5",
                               "x", ""]),
    "--schedule": st.sampled_from(["0-10:structured", "0-5:structured,5-10:unstructured",
                                   "10-0:structured", "0-10:x", "0-1e3:structured",
                                   "-5-10:structured", "0-10", "", f"0-{10**20}:unstructured"]),
}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_synth_any_flags_exits_cleanly(tiny, data):
    root, _ = tiny
    out = root / "synth" / "class.csv"
    shutil.rmtree(out.parent, ignore_errors=True)
    argv = ["synth", "--children", str(data.draw(st.integers(0, 3))),
            "--teachers", str(data.draw(st.integers(0, 2))),
            "--length", str(data.draw(st.sampled_from([0, 1, 5, 10]))), "--out", str(out)]
    for flag in data.draw(st.lists(st.sampled_from(sorted(SYNTH_FLAGS)), max_size=4, unique=True)):
        argv.append(f"{flag}={data.draw(SYNTH_FLAGS[flag])}")
    code, err = _simulate(argv)
    _check(code, err)
    assert out.exists() == (code == 0)
