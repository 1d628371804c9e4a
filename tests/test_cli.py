import hashlib
import json
import math
import os

import numpy as np
import pytest

from classim import cli
from classim.cli import main
from classim.trajectory import TrackFormat
from reference_trajectory import load_rowwise, save_rowwise


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def test_calibrate_defaults(capsys):
    code, out, _ = _run(capsys, "calibrate")
    assert code == 0
    kv = _kv(out)
    assert float(kv["beta_max_per_day"]) == pytest.approx(8.176054419356268, rel=1e-12)
    assert float(kv["rho_daily_per_m2"]) == pytest.approx(0.009913944154037586, rel=1e-12)
    assert float(kv["beta_max_per_s"]) == pytest.approx(9.463025948329014e-05, rel=1e-12)


def test_calibrate_zero_r0(capsys):
    code, out, _ = _run(capsys, "calibrate", "--r0", "0")
    assert code == 0
    assert float(_kv(out)["beta_max_per_day"]) == 0.0


def test_calibrate_radius_in_feet_vs_meters(capsys):
    _, out_ft, _ = _run(capsys, "calibrate", "--contact-radius", "6ft")
    _, out_m, _ = _run(capsys, "calibrate", "--contact-radius", f"{6 * 0.3048}m")
    assert _kv(out_ft)["beta_max_per_day"] == _kv(out_m)["beta_max_per_day"]


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--r0", "not-a-number"])
    assert exc.value.code == 2


def test_unknown_command_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_density_and_files(tmp_path, capsys):
    out = tmp_path / "obs.csv"
    code, stdout, _ = _run(capsys, "synth", "--children", "12", "--teachers", "3",
                           "--room", "8x8", "--length", "60", "--out", str(out))
    assert code == 0
    assert float(_kv(stdout)["density_per_m2"]) == pytest.approx(15 / 64)
    assert out.exists()
    assert out.with_suffix(".meta.json").exists()


def test_synth_teachers_only(tmp_path, capsys):
    out = tmp_path / "obs.csv"
    code, _, _ = _run(capsys, "synth", "--children", "0", "--teachers", "2",
                      "--length", "30", "--out", str(out))
    assert code == 0
    from classim.trajectory import load_observation
    obs = load_observation(out)
    assert obs.n_people == 2


def test_synth_same_seed_identical_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _run(capsys, "synth", "--length", "40", "--seed", "5", "--out", str(a))
    _run(capsys, "synth", "--length", "40", "--seed", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_synth_bad_schedule_exit_1(tmp_path, capsys):
    code, _, err = _run(capsys, "synth", "--length", "100",
                        "--schedule", "0-50:structured", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "error" in err


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------

def test_fuse_raw_to_fused(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "t_s,person_id,role,side,x_m,y_m\n"
        "0.0,p1,child,L,-0.2,0.0\n"
        "0.0,p1,child,R,0.2,0.0\n"
        "1.0,p1,child,L,0.8,1.0\n"
        "1.0,p1,child,R,1.2,1.0\n"
    )
    (tmp_path / "raw.meta.json").write_text('{"class_id": "raw", "room_area_m2": 12.0}')
    out = tmp_path / "fused.csv"
    code, stdout, _ = _run(capsys, "fuse", "--input", str(raw), "--out", str(out))
    assert code == 0
    assert _kv(stdout)["people"] == "1"
    from classim.trajectory import load_observation
    obs = load_observation(out)
    assert obs.session_length_s == 2
    assert obs.positions[0, 0, 0] == 0.0
    assert obs.facings[0, 0, 1] == 1.0


def test_fuse_output_bytes_match_rowwise_reference(tmp_path, capsys):
    # p1: a within-stream tie at t=1, the right tag silent over 2-4 s (unpaired
    # left reports), then both tags silent for 7 s (absent, not interpolated)
    p1_left = [0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 11.0, 11.5, 12.0]
    p1_right = [0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 4.0, 11.0, 11.25, 12.0]
    # "p,2": reports tied across the two tags, coincident tags at t=6
    p2_both = [0.25 * k for k in range(1, 50)]
    rng = np.random.default_rng(3)
    rows = []
    for pid, role, side, times in (("p1", "child", "L", p1_left), ("p1", "child", "R", p1_right),
                                   ('"p,2"', "teacher", "L", p2_both),
                                   ('"p,2"', "teacher", "R", p2_both)):
        for t in times:
            x, y = rng.uniform(-3.0, 3.0, 2).tolist()
            if pid != "p1" and t == 6.0:
                x, y = 1.0, 1.0
            rows.append(f"{t!r},{pid},{role},{side},{x!r},{y!r}")
    rows = [rows[k] for k in rng.permutation(len(rows))]
    raw = tmp_path / "raw.csv"
    raw.write_text("t_s,person_id,role,side,x_m,y_m\n" + "\n".join(rows) + "\n")
    (tmp_path / "raw.meta.json").write_text('{"class_id": "raw", "room_area_m2": 12.0}')
    out = tmp_path / "fused.csv"
    code, _, _ = _run(capsys, "fuse", "--input", str(raw), "--out", str(out))
    assert code == 0
    save_rowwise(load_rowwise(raw, TrackFormat.RAW_TAGS), tmp_path / "ref.csv")
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "fused.meta.json").read_bytes() == (tmp_path / "ref.meta.json").read_bytes()
    text = out.read_text()
    assert "7,p1,child,0,,,,\n" in text and "3,p1,child,1," in text


def test_fuse_missing_file_exit_1(tmp_path, capsys):
    code, _, err = _run(capsys, "fuse", "--input", str(tmp_path / "nope.csv"),
                        "--out", str(tmp_path / "out.csv"))
    assert code == 1
    assert "error" in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@pytest.fixture()
def small_obs(tmp_path):
    path = tmp_path / "class.csv"
    code = main(["synth", "--children", "4", "--teachers", "1", "--length", "120",
                 "--seed", "3", "--class-id", "demo", "--out", str(path)])
    assert code == 0
    return path


def test_simulate_row_counts_and_filter(tmp_path, small_obs, capsys):
    out_dir = tmp_path / "out"
    code, stdout, _ = _run(capsys, "simulate", str(small_obs), "--out", str(out_dir),
                           "--reps", "2", "--horizon-days", "7", "--workers", "1")
    assert code == 0
    lines = (out_dir / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 2 * 4  # header + roster x reps x scenarios
    scenarios = {line.split(",")[0] for line in lines[1:]}
    assert scenarios == {"full-novax", "half-novax", "full-vax", "half-vax"}

    only = tmp_path / "only"
    code, _, _ = _run(capsys, "simulate", str(small_obs), "--out", str(only),
                      "--reps", "2", "--horizon-days", "7", "--workers", "1",
                      "--scenarios", "full-novax")
    assert code == 0
    lines = (only / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 2
    assert {line.split(",")[0] for line in lines[1:]} == {"full-novax"}


def test_simulate_outputs_schema(tmp_path, small_obs, capsys):
    out_dir = tmp_path / "out"
    code, _, _ = _run(capsys, "simulate", str(small_obs), "--out", str(out_dir),
                      "--reps", "1", "--horizon-days", "7", "--workers", "1",
                      "--scenarios", "full-novax")
    assert code == 0
    from classim.metrics import CURVES_HEADER, EMERGENCE_HEADER, SUMMARY_HEADER
    assert (out_dir / "summary.csv").read_text().splitlines()[0] == ",".join(SUMMARY_HEADER)
    assert (out_dir / "curves.csv").read_text().splitlines()[0] == ",".join(CURVES_HEADER)
    assert (out_dir / "emergence.csv").read_text().splitlines()[0] == ",".join(EMERGENCE_HEADER)
    curves = (out_dir / "curves.csv").read_text().splitlines()
    assert len(curves) == 1 + (7 * 24 + 1)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["tool"] == "classim"
    assert manifest["inputs"][0]["sha256"] == _digest(small_obs)


def test_simulate_manifest_reproduces_bitwise(tmp_path, small_obs, capsys):
    first = tmp_path / "first"
    code, _, _ = _run(capsys, "simulate", str(small_obs), "--out", str(first),
                      "--reps", "2", "--horizon-days", "7", "--workers", "2",
                      "--base-seed", "9")
    assert code == 0
    second = tmp_path / "second"
    code, _, _ = _run(capsys, "simulate", "--config", str(first / "manifest.json"),
                      "--out", str(second), "--workers", "1")
    assert code == 0
    for name in ("summary.csv", "curves.csv", "emergence.csv", "manifest.json"):
        assert _digest(first / name) == _digest(second / name), name


def test_simulate_invalid_observation_cleans_up(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t_s,person_id,role,present,x_m,y_m,facing_x,facing_y\n"
                   "0,a,child,1,0.0,0.0,2.0,0.0\n")  # non-unit facing
    (tmp_path / "bad.meta.json").write_text('{"room_area_m2": 10.0}')
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "simulate", str(bad), "--out", str(out_dir), "--workers", "1")
    assert code == 1
    assert "error" in err
    assert not any(out_dir.glob("*.csv"))


def _synth_class(tmp_path, name, class_id, children):
    path = tmp_path / f"{name}.csv"
    assert main(["synth", "--children", str(children), "--teachers", "1", "--length", "120",
                 "--seed", "3", "--class-id", class_id, "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("same_file", [False, True])
def test_simulate_duplicate_class_id_exit_1(tmp_path, capsys, same_file):
    # outputs are grouped by class_id: two observations sharing one would
    # merge into one group, so the run stops before writing anything
    first = _synth_class(tmp_path, "a", "same", 3)
    second = first if same_file else _synth_class(tmp_path, "b", "same", 5)
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, "simulate", str(first), str(second), "--out", str(out_dir),
                        "--reps", "1", "--horizon-days", "7", "--workers", "1")
    assert code == 1
    _one_error_line(err)
    assert "'same'" in err and str(first) in err and str(second) in err
    assert not out_dir.exists()


def test_simulate_two_observations_write_a_group_each(tmp_path, capsys):
    first = _synth_class(tmp_path, "a", "room-a", 3)
    second = _synth_class(tmp_path, "b", "room-b", 5)
    out_dir = tmp_path / "out"
    code, _, _ = _run(capsys, "simulate", str(first), str(second), "--out", str(out_dir),
                      "--reps", "1", "--horizon-days", "7", "--workers", "1",
                      "--scenarios", "full-novax,half-vax")
    assert code == 0
    summary = (out_dir / "summary.csv").read_text().splitlines()[1:]
    assert len(summary) == (4 + 6) * 2
    assert {line.split(",")[1] for line in summary} == {"room-a", "room-b"}
    groups = {f"{cid}:{cell}" for cid in ("room-a", "room-b")
              for cell in ("full-novax", "half-vax")}
    curves = (out_dir / "curves.csv").read_text().splitlines()[1:]
    assert {line.split(",")[0] for line in curves} == groups
    assert len(curves) == 4 * (7 * 24 + 1)
    emergence = (out_dir / "emergence.csv").read_text().splitlines()[1:]
    assert {line.split(",")[0] for line in emergence} == groups
    assert len(emergence) == 4 * 3


def test_simulate_no_observations_exit_1(tmp_path, capsys):
    code, _, err = _run(capsys, "simulate", "--out", str(tmp_path / "o"), "--workers", "1")
    assert code == 1
    assert "no observation" in err


def test_simulate_unknown_scenario_exit_1(tmp_path, small_obs, capsys):
    code, _, err = _run(capsys, "simulate", str(small_obs), "--out", str(tmp_path / "o"),
                        "--scenarios", "full-maybe", "--workers", "1")
    assert code == 1
    assert "unknown scenario" in err


def test_simulate_config_overrides_and_flag_precedence(tmp_path, small_obs, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reps": 3, "horizon_days": 7, "scenarios": ["full-novax"]}))
    out_dir = tmp_path / "out"
    code, _, _ = _run(capsys, "simulate", str(small_obs), "--config", str(cfg),
                      "--out", str(out_dir), "--reps", "1", "--workers", "1")
    assert code == 0
    lines = (out_dir / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 5  # flag --reps 1 beats config reps 3
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["parameters"]["reps"] == 1
    assert manifest["parameters"]["horizon_days"] == 7


def test_simulate_rejects_unknown_config_keys(tmp_path, small_obs, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"repz": 3}))
    code, _, err = _run(capsys, "simulate", str(small_obs), "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--workers", "1")
    assert code == 1
    assert "unknown config keys" in err


# ---------------------------------------------------------------------------
# bad parameters: exit 1 with one error line, no traceback
# ---------------------------------------------------------------------------

def _one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: ")


def test_calibrate_negative_r0_exit_1(capsys):
    code, _, err = _run(capsys, "calibrate", "--r0", "-1")
    assert code == 1
    _one_error_line(err)
    assert "r0" in err


def test_calibrate_bad_radius_exit_1(capsys):
    code, _, err = _run(capsys, "calibrate", "--contact-radius", "six feet")
    assert code == 1
    _one_error_line(err)


@pytest.mark.parametrize("value", ["x", "0", "-2"])
def test_simulate_bad_workers_env_exit_1(tmp_path, small_obs, capsys, monkeypatch, value):
    monkeypatch.setenv("CLASSIM_WORKERS", value)
    out_dir = tmp_path / "o"
    code, _, err = _run(capsys, "simulate", str(small_obs), "--out", str(out_dir))
    assert code == 1
    _one_error_line(err)
    assert "CLASSIM_WORKERS" in err
    assert not out_dir.exists()


def test_default_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.delenv("CLASSIM_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._workers(None) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._workers(None) == 8


@pytest.mark.parametrize("command", ["simulate", "synth"])
def test_output_path_under_a_file_exit_1(tmp_path, small_obs, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = [str(small_obs), "--workers", "1"] if command == "simulate" else []
    code, _, err = _run(capsys, command, *args, "--out", str(blocker / "out"))
    assert code == 1
    _one_error_line(err)


def test_simulate_workers_flag_below_one_exit_1(tmp_path, small_obs, capsys):
    code, _, err = _run(capsys, "simulate", str(small_obs), "--out", str(tmp_path / "o"),
                        "--workers", "0")
    assert code == 1
    _one_error_line(err)
    assert "--workers" in err


@pytest.mark.parametrize("override", [
    {"disease": {"p_symptomatic": 2}},
    {"disease": {"p_symptomatic": "most"}},
    {"kernel": {"sigma_r_m": -1.0}},
    {"kernel": {"mode": "telepathic"}},
    {"calibration": {"r0": -1}},
])
def test_simulate_bad_parameter_in_config_exit_1(tmp_path, small_obs, capsys, override):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    code, _, err = _run(capsys, "simulate", str(small_obs), "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--workers", "1")
    assert code == 1
    _one_error_line(err)


# ---------------------------------------------------------------------------
# non-finite timestamps: exit 1 with one error line naming the line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_simulate_non_finite_t_exit_1(tmp_path, capsys, t):
    bad = tmp_path / "bad.csv"
    bad.write_text("t_s,person_id,role,present,x_m,y_m,facing_x,facing_y\n"
                   "0,a,child,1,0.0,0.0,1.0,0.0\n"
                   f"{t},a,child,1,0.0,0.0,1.0,0.0\n")
    (tmp_path / "bad.meta.json").write_text('{"room_area_m2": 10.0}')
    code, _, err = _run(capsys, "simulate", str(bad), "--out", str(tmp_path / "o"),
                        "--workers", "1")
    assert code == 1
    _one_error_line(err)
    assert "line 3" in err


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_fuse_non_finite_t_exit_1(tmp_path, capsys, t):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "t_s,person_id,role,side,x_m,y_m\n"
        "0.0,p1,child,L,-0.2,0.0\n"
        "0.0,p1,child,R,0.2,0.0\n"
        f"{t},p1,child,L,0.8,1.0\n"
        f"{t},p1,child,R,1.2,1.0\n"
    )
    (tmp_path / "raw.meta.json").write_text('{"room_area_m2": 12.0}')
    code, _, err = _run(capsys, "fuse", "--input", str(raw), "--out", str(tmp_path / "f.csv"))
    assert code == 1
    _one_error_line(err)
    assert "line 4" in err


@pytest.mark.parametrize("t, code", [("86399.9", 0), ("86400", 1), ("1e15", 1)])
def test_fuse_raw_t_must_be_below_one_day(tmp_path, capsys, t, code):
    # a raw file is resampled onto 0..t_max: 1e15 once asked numpy for 7 PiB
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "t_s,person_id,role,side,x_m,y_m\n"
        "0.0,p1,child,L,-0.2,0.0\n"
        "0.0,p1,child,R,0.2,0.0\n"
        f"{t},p1,child,L,0.8,1.0\n"
        f"{t},p1,child,R,1.2,1.0\n"
    )
    (tmp_path / "raw.meta.json").write_text('{"room_area_m2": 12.0}')
    got, _, err = _run(capsys, "fuse", "--input", str(raw), "--out", str(tmp_path / "f.csv"))
    assert got == code
    if code:
        _one_error_line(err)
        assert "line 4" in err and "below 86400 s" in err
    else:
        assert err == ""


# ---------------------------------------------------------------------------
# bytes that are not UTF-8: exit 1 with one error line naming the file
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rows_before", [0, 2000], ids=["header_block", "later_block"])
def test_simulate_non_utf8_csv_exit_1(tmp_path, capsys, rows_before):
    # 2000 rows put the bad byte past the first blocks the reader decodes
    good = b"".join(b"%d,a,child,1,0.0,0.0,1.0,0.0\n" % t for t in range(rows_before + 1))
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"t_s,person_id,role,present,x_m,y_m,facing_x,facing_y\n" + good
                    + b"%d,\xffb,child,1,1.0,0.0,-1.0,0.0\n" % rows_before)
    (tmp_path / "bad.meta.json").write_text('{"room_area_m2": 10.0}')
    code, _, err = _run(capsys, "simulate", str(bad), "--out", str(tmp_path / "o"),
                        "--workers", "1")
    assert code == 1
    _one_error_line(err)
    assert "bad.csv" in err and "UTF-8" in err


def test_fuse_non_utf8_csv_exit_1(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_bytes(b"t_s,person_id,role,side,x_m,y_m\n"
                    b"0.0,p1,child,L,-0.2,0.0\n"
                    b"0.0,p\xff1,child,R,0.2,0.0\n")
    (tmp_path / "raw.meta.json").write_text('{"room_area_m2": 12.0}')
    code, _, err = _run(capsys, "fuse", "--input", str(raw), "--out", str(tmp_path / "f.csv"))
    assert code == 1
    _one_error_line(err)
    assert "raw.csv" in err and "UTF-8" in err


def test_simulate_non_utf8_sidecar_exit_1(tmp_path, capsys):
    obs = tmp_path / "class.csv"
    obs.write_text("t_s,person_id,role,present,x_m,y_m,facing_x,facing_y\n"
                   "0,a,child,1,0.0,0.0,1.0,0.0\n")
    (tmp_path / "class.meta.json").write_bytes(b'{"room_area_m2": 10.0, "class_id": "\xff"}')
    code, _, err = _run(capsys, "simulate", str(obs), "--out", str(tmp_path / "o"),
                        "--workers", "1")
    assert code == 1
    _one_error_line(err)
    assert "class.meta.json" in err and "UTF-8" in err


def test_simulate_non_utf8_config_exit_1(tmp_path, small_obs, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"kernel": {"mode": "\xff"}}')
    code, _, err = _run(capsys, "simulate", str(small_obs), "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--workers", "1")
    assert code == 1
    _one_error_line(err)
    assert "cfg.json" in err and "UTF-8" in err


# ---------------------------------------------------------------------------
# malformed sidecars: exit 1 with one error line, never a traceback
# ---------------------------------------------------------------------------

_ACT = '{"room_area_m2": 10.0, "activity": [{"start_s": %s, "end_s": 5, "label": "structured"}]}'
BAD_SIDECARS = {
    "number": "5",
    "roster_number": '{"room_area_m2": 10.0, "roster": 5}',
    "roster_entry_number": '{"room_area_m2": 10.0, "roster": [5]}',
    "roster_id_list": '{"room_area_m2": 10.0, "roster": [{"person_id": [1], "role": "child"}]}',
    "activity_string": '{"room_area_m2": 10.0, "activity": "abc"}',
    "activity_entry_number": '{"room_area_m2": 10.0, "activity": [5]}',
    "activity_zero": '{"room_area_m2": 10.0, "activity": 0}',
    "activity_false": '{"room_area_m2": 10.0, "activity": false}',
    "activity_empty_object": '{"room_area_m2": 10.0, "activity": {}}',
    "activity_empty_string": '{"room_area_m2": 10.0, "activity": ""}',
    "start_null": _ACT % "null",
    "start_infinity": _ACT % "Infinity",
    "start_true": _ACT % "true",
    "area_true": '{"room_area_m2": true}',
    "area_infinity": '{"room_area_m2": Infinity}',
    "area_huge_int": '{"room_area_m2": 1%s}' % ("0" * 400),
}


@pytest.mark.parametrize("sidecar", list(BAD_SIDECARS.values()), ids=list(BAD_SIDECARS))
def test_simulate_malformed_sidecar_exit_1(tmp_path, capsys, sidecar):
    obs = tmp_path / "class.csv"
    obs.write_text("t_s,person_id,role,present,x_m,y_m,facing_x,facing_y\n"
                   "0,a,teacher,1,0.0,0.0,1.0,0.0\n"
                   "0,b,child,1,1.0,0.0,-1.0,0.0\n")
    (tmp_path / "class.meta.json").write_text(sidecar)
    code, _, err = _run(capsys, "simulate", str(obs), "--out", str(tmp_path / "o"),
                        "--reps", "1", "--horizon-days", "1", "--workers", "1")
    assert code == 1
    _one_error_line(err)


@pytest.mark.parametrize("sidecar", list(BAD_SIDECARS.values()), ids=list(BAD_SIDECARS))
def test_fuse_malformed_meta_exit_1(tmp_path, capsys, sidecar):
    raw = tmp_path / "raw.csv"
    raw.write_text("t_s,person_id,role,side,x_m,y_m\n"
                   "0.0,a,child,L,-0.2,0.0\n"
                   "0.0,a,child,R,0.2,0.0\n")
    meta = tmp_path / "other.json"
    meta.write_text(sidecar)
    code, _, err = _run(capsys, "fuse", "--input", str(raw), "--meta", str(meta),
                        "--out", str(tmp_path / "f.csv"))
    assert code == 1
    _one_error_line(err)
