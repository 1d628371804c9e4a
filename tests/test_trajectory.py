import json
import math
import sys
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classim import columnar, synthgen, trajectory
from classim.errors import (
    EmptyTrack,
    ParseError,
    SchemaError,
    ValidationError,
)
from classim.trajectory import (
    FUSED_HEADER,
    RAW_HEADER,
    Activity,
    FusedTrack,
    Observation,
    Person,
    Role,
    Side,
    TrackFormat,
    fuse_tags,
    load_observation,
    resample,
    save_observation,
)
from reference_trajectory import (
    TagSample,
    fuse_tags_loop,
    load_rowwise,
    resample_loop,
    save_rowwise,
)


def _tag(t, side, x, y, pid="p1"):
    return TagSample(t=t, person_id=pid, side=side, x=x, y=y)


def _fuse(left, right):
    """``fuse_tags`` on one person's TagSample lists."""
    samples = [*left, *right]
    pid = samples[0].person_id if samples else ""
    for name, stream in (("left", left), ("right", right)):
        for s in stream:
            if s.person_id != pid:
                raise ValidationError(f"mixed person_ids in {name} stream: {pid} vs {s.person_id}")
    return fuse_tags(pid, [s.t for s in left], [[s.x, s.y] for s in left],
                     [s.t for s in right], [[s.x, s.y] for s in right])


def _obs_two_people(t_total=10):
    roster = (Person("a", Role.CHILD), Person("b", Role.TEACHER))
    pos = np.zeros((t_total, 2, 2))
    pos[:, 1, 0] = 2.0
    fac = np.zeros((t_total, 2, 2))
    fac[:, 0] = (1.0, 0.0)
    fac[:, 1] = (-1.0, 0.0)
    present = np.ones((t_total, 2), dtype=bool)
    return Observation(
        class_id="test",
        roster=roster,
        room_area_m2=20.0,
        positions=pos,
        facings=fac,
        present=present,
    )


# ---------------------------------------------------------------------------
# fuse_tags
# ---------------------------------------------------------------------------

def test_fuse_left_minus_x_faces_plus_y():
    track = _fuse([_tag(0.0, Side.LEFT, -0.2, 0.0)], [_tag(0.0, Side.RIGHT, 0.2, 0.0)])
    assert np.allclose(track.pos[0], (0.0, 0.0))
    assert np.allclose(track.facing[0], (0.0, 1.0))


def test_fuse_rotated_case():
    track = _fuse([_tag(0.0, Side.LEFT, 0.0, 0.2)], [_tag(0.0, Side.RIGHT, 0.0, -0.2)])
    assert np.allclose(track.pos[0], (0.0, 0.0))
    assert np.allclose(track.facing[0], (1.0, 0.0))


def test_fuse_degenerate_pair_carries_previous_facing():
    left = [_tag(0.0, Side.LEFT, -0.2, 0.0), _tag(1.0, Side.LEFT, 0.5, 0.5)]
    right = [_tag(0.0, Side.RIGHT, 0.2, 0.0), _tag(1.0, Side.RIGHT, 0.5, 0.5)]
    track = _fuse(left, right)
    assert np.allclose(track.facing[1], track.facing[0])


def test_fuse_degenerate_first_pair_backfills():
    left = [_tag(0.0, Side.LEFT, 0.5, 0.5), _tag(1.0, Side.LEFT, -0.2, 0.0)]
    right = [_tag(0.0, Side.RIGHT, 0.5, 0.5), _tag(1.0, Side.RIGHT, 0.2, 0.0)]
    track = _fuse(left, right)
    assert np.allclose(track.facing[0], (0.0, 1.0))


def test_fuse_skips_unpaired_windows():
    # right tag silent around t=1: no pair forms there
    left = [_tag(0.0, Side.LEFT, 0.0, 0.0), _tag(1.0, Side.LEFT, 1.0, 0.0),
            _tag(2.0, Side.LEFT, 2.0, 0.0)]
    right = [_tag(0.1, Side.RIGHT, 0.4, 0.0), _tag(2.1, Side.RIGHT, 2.4, 0.0)]
    track = _fuse(left, right)
    assert len(track) == 2
    assert track.t[0] == pytest.approx(0.05)
    assert track.t[1] == pytest.approx(2.05)


def test_fuse_empty_stream_raises():
    with pytest.raises(EmptyTrack):
        _fuse([], [_tag(0.0, Side.RIGHT, 0.0, 0.0)])


def test_fuse_mixed_person_rejected():
    with pytest.raises(ValidationError):
        _fuse([_tag(0.0, Side.LEFT, 0, 0, pid="a")],
              [_tag(0.0, Side.RIGHT, 1, 0, pid="b")])


def test_fuse_rejects_coordinates_not_one_row_per_time():
    with pytest.raises(ValidationError, match="one row per time"):
        fuse_tags("p1", [0.0, 1.0], [[0.0, 0.0]], [0.0], [[1.0, 0.0]])
    with pytest.raises(ValidationError, match="one row per time"):
        fuse_tags("p1", [0.0], [[0.0, 0.0, 0.0]], [0.0], [[1.0, 0.0, 0.0]])


@settings(max_examples=200)
@given(
    lx=st.floats(-5, 5), ly=st.floats(-5, 5),
    rx=st.floats(-5, 5), ry=st.floats(-5, 5),
)
def test_fuse_chirality(lx, ly, rx, ry):
    if math.hypot(rx - lx, ry - ly) < 1e-6:
        return
    track = _fuse([_tag(0.0, Side.LEFT, lx, ly)], [_tag(0.0, Side.RIGHT, rx, ry)])
    l2r = np.array([rx - lx, ry - ly])
    f = track.facing[0]
    assert abs(np.dot(l2r, f)) < 1e-9          # perpendicular
    assert l2r[0] * f[1] - l2r[1] * f[0] > 0   # consistent handedness


# ---------------------------------------------------------------------------
# resample
# ---------------------------------------------------------------------------

def _track(times, points, facings=None):
    t = np.asarray(times, dtype=float)
    pos = np.asarray(points, dtype=float)
    if facings is None:
        facings = np.tile((1.0, 0.0), (len(t), 1))
    return FusedTrack(t=t, pos=pos, facing=np.asarray(facings, dtype=float))


def test_resample_on_knot():
    u = resample(_track([0.0, 0.5], [(0, 0), (1, 0)]))
    assert u.present[0]
    assert np.array_equal(u.pos[0], (0.0, 0.0))


def test_resample_midpoint():
    u = resample(_track([0.0, 2.0], [(0, 0), (2, 0)]))
    assert np.allclose(u.pos[1], (1.0, 0.0))


def test_resample_gap_over_five_seconds_absent():
    u = resample(_track([0.0, 10.0], [(0, 0), (10, 0)]))
    assert u.present[0] and u.present[10]
    assert not u.present[1:10].any()


def test_resample_idempotent_bitwise():
    rng = np.random.default_rng(0)
    t = np.arange(6, dtype=float)
    pos = rng.uniform(-3, 3, size=(6, 2))
    ang = rng.uniform(0, 2 * math.pi, size=6)
    fac = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    u = resample(FusedTrack(t=t, pos=pos, facing=fac))
    assert u.present.all()
    assert np.array_equal(u.pos, pos)
    assert np.array_equal(u.facing, fac)


def test_resample_shortest_arc_facing():
    # from angle -170deg to +170deg the short way passes through 180
    a0, a1 = math.radians(-170), math.radians(170)
    fac = [(math.cos(a0), math.sin(a0)), (math.cos(a1), math.sin(a1))]
    u = resample(_track([0.0, 2.0], [(0, 0), (0, 0)], fac))
    mid = u.facing[1]
    assert mid[0] == pytest.approx(-1.0, abs=1e-12)
    assert abs(mid[1]) < 1e-9
    assert np.linalg.norm(mid) == pytest.approx(1.0, rel=1e-12)


def test_resample_empty_raises():
    with pytest.raises(EmptyTrack):
        resample(FusedTrack(t=np.array([]), pos=np.empty((0, 2)), facing=np.empty((0, 2))))


def test_resample_before_first_sample_absent():
    u = resample(_track([3.2, 4.0], [(0, 0), (1, 0)]), grid=np.arange(5))
    assert not u.present[:4].any()
    assert u.present[4]


_JUST_OVER_GAP = float(np.nextafter(5.0, 6.0))
# exact gaps of 5.0 s and one ulp more; turns that land the step near +-pi
_STEPS = [0.25, 0.5, 1.0, 1.5, 5.0, _JUST_OVER_GAP, 5.5]
_TURNS = [0.0, 0.4, -2.5, math.pi, -math.pi, math.pi - 1e-12, -math.pi + 1e-12,
          float(np.nextafter(math.pi, 4.0)), 3 * math.pi]


@st.composite
def _resample_cases(draw):
    """(times, positions, facing angles, grid) of one track, on or off the integer grid."""
    k = draw(st.integers(0, 10))
    start = draw(st.sampled_from([0.0, 0.5, 1.0, 2.25, 3.7]))
    steps = draw(st.lists(st.one_of(st.sampled_from(_STEPS), st.floats(0.01, 8.0)),
                          min_size=k, max_size=k))
    times = (start + np.cumsum([0.0] + steps[1:])).tolist() if k else []
    xy = draw(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=k, max_size=k))
    turns = draw(st.lists(st.one_of(st.sampled_from(_TURNS), st.floats(-7.0, 7.0)),
                          min_size=k, max_size=k))
    angles = np.cumsum(turns).tolist()
    end = (times[-1] if times else 0.0) + 3.0
    grid = draw(st.one_of(
        st.none(),
        st.integers(-3, 0).map(lambda lo: np.arange(lo, math.floor(end) + 1, dtype=float)),
        st.lists(st.one_of(st.floats(-3.0, end), *([st.sampled_from(times)] if times else [])),
                 max_size=12),
    ))
    return times, xy, angles, grid


@settings(max_examples=300, deadline=None)
@given(case=_resample_cases())
@example(case=([0.0, 1.0, 2.0], [(0, 0), (1, 1), (2, 0)], [0.0, 1.0, 2.0], None))
@example(case=([1.0, 6.0, 6.5], [(0, 0), (5, 0), (6, 0)], [0.0, 0.1, 0.2], None))
@example(case=([0.0, _JUST_OVER_GAP], [(0, 0), (5, 0)], [0.0, 0.1], np.arange(-1, 7.0)))
@example(case=([0.5, 2.5], [(0, 0), (1, 0)], [0.0, math.pi - 1e-12], [-1.0, 0.5, 1.25, 2.5, 9.0]))
@example(case=([0.0, 2.0], [(0, 0), (1, 0)], [0.5, 0.5 - math.pi], None))
@example(case=([], [], [], None))
def test_resample_matches_loop_reference(case):
    times, xy, angles, grid = case
    track = FusedTrack(t=np.array(times, dtype=float),
                       pos=np.array(xy, dtype=float).reshape(-1, 2),
                       facing=np.array([(math.cos(a), math.sin(a)) for a in angles],
                                       dtype=float).reshape(-1, 2))
    got, got_err = _outcome(resample, track, grid)
    want, want_err = _outcome(resample_loop, track, grid)
    assert got_err == want_err
    if want is not None:
        for name in ("pos", "facing", "present"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# observation round trip and validation
# ---------------------------------------------------------------------------

def test_save_load_round_trip_identity(tmp_path):
    obs = _obs_two_people()
    path = tmp_path / "obs.csv"
    save_observation(obs, path)
    back = load_observation(path)
    assert back.roster == obs.roster
    assert back.class_id == obs.class_id
    assert back.room_area_m2 == obs.room_area_m2
    assert np.array_equal(back.positions, obs.positions)
    assert np.array_equal(back.facings, obs.facings)
    assert np.array_equal(back.present, obs.present)


def test_round_trip_with_absences_and_activity(tmp_path):
    obs = _obs_two_people()
    obs.present[3:6, 0] = False
    obs.positions[3:6, 0] = np.nan
    obs.facings[3:6, 0] = np.nan
    obs.activity = np.array([0] * 5 + [1] * 5, dtype=np.uint8)
    path = tmp_path / "obs.csv"
    save_observation(obs, path)
    back = load_observation(path)
    assert np.array_equal(back.present, obs.present)
    assert np.array_equal(back.activity, obs.activity)
    # absent seconds carry no coordinates
    assert np.isnan(back.positions[3, 0]).all()


def test_presence_monotone_no_position_when_absent(tmp_path):
    obs = _obs_two_people()
    obs.present[2, 1] = False
    obs.positions[2, 1] = np.nan
    obs.facings[2, 1] = np.nan
    path = tmp_path / "obs.csv"
    save_observation(obs, path)
    back = load_observation(path)
    assert not back.present[2, 1]
    assert np.isnan(back.positions[2, 1]).all()


def test_person_missing_from_roster_rejected(tmp_path):
    obs = _obs_two_people(t_total=2)
    path = tmp_path / "obs.csv"
    save_observation(obs, path)
    meta = (tmp_path / "obs.meta.json").read_text()
    meta = meta.replace('"person_id": "b"', '"person_id": "zz"')
    (tmp_path / "obs.meta.json").write_text(meta)
    with pytest.raises(ValidationError, match="not in roster"):
        load_observation(path)


def test_missing_row_rejected(tmp_path):
    obs = _obs_two_people(t_total=2)
    path = tmp_path / "obs.csv"
    save_observation(obs, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValidationError, match="missing row"):
        load_observation(path)


def test_bad_header_schema_error(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("t_s,person_id,role\n")
    (tmp_path / "obs.meta.json").write_text('{"room_area_m2": 10.0}')
    with pytest.raises(SchemaError):
        load_observation(path)


def test_unparseable_number_reports_line(tmp_path):
    obs = _obs_two_people(t_total=1)
    path = tmp_path / "obs.csv"
    save_observation(obs, path)
    text = path.read_text().replace("2.0", "two")
    path.write_text(text)
    with pytest.raises(ParseError, match="line"):
        load_observation(path)


def test_missing_sidecar_rejected(tmp_path):
    obs = _obs_two_people(t_total=1)
    path = tmp_path / "obs.csv"
    save_observation(obs, path)
    (tmp_path / "obs.meta.json").unlink()
    with pytest.raises(ValidationError, match="sidecar"):
        load_observation(path)


def test_non_unit_facing_rejected():
    obs = _obs_two_people(t_total=2)
    obs.facings[1, 0] = (0.5, 0.5)
    with pytest.raises(ValidationError, match="unit norm"):
        obs.validate()


def test_overflowing_facing_rejected_without_a_warning():
    # squaring 1e308 overflows; pytest turns that RuntimeWarning into an error
    obs = _obs_two_people(t_total=2)
    obs.facings[1, 0] = (1e308, 0.0)
    with pytest.raises(ValidationError, match=r"not unit norm \(\|f\| = inf\)"):
        obs.validate()


@pytest.mark.parametrize("x", [1e200, -1e200, 1000000.0000000001])
def test_position_beyond_bound_rejected(x):
    obs = _obs_two_people(t_total=2)
    obs.positions[1, 1, 0] = x
    with pytest.raises(ValidationError, match="present position is not finite or beyond 1e\\+06 m"):
        obs.validate()
    obs.positions[1, 1, 0] = math.copysign(1e6, x)  # the bound itself is valid
    obs.validate()
    obs.positions[1, 1, 0], obs.present[1, 1] = x, False  # absent rows carry no position
    obs.validate()


def test_raw_tag_beyond_bound_rejected(tmp_path):
    rows = ["0.0,a,child,L,-0.2,0.0", "0.0,a,child,R,1e200,0.0"]
    path = _write_csv(tmp_path, ",".join(RAW_HEADER), rows, name="raw.csv")
    with pytest.raises(ValidationError, match="beyond 1e\\+06 m"):
        load_observation(path, TrackFormat.RAW_TAGS)


def test_activity_bounds_label_seconds_in_half_open_interval(tmp_path):
    # second t is labelled iff start_s <= t < end_s
    obs = _obs_two_people(t_total=10)
    path = tmp_path / "obs.csv"
    save_observation(obs, path)
    meta_path = tmp_path / "obs.meta.json"
    meta = json.loads(meta_path.read_text())
    for (a, b), want in [((2.9, 7.9), [0, 0, 0, 1, 1, 1, 1, 1, 0, 0]),
                         ((3, 8), [0, 0, 0, 1, 1, 1, 1, 1, 0, 0]),
                         ((-0.5, 0.5), [1] + [0] * 9)]:
        meta["activity"] = [{"start_s": a, "end_s": b, "label": "structured"},
                            {"start_s": 0, "end_s": 0, "label": "unstructured"}]
        meta_path.write_text(json.dumps(meta))
        assert load_observation(path).activity.tolist() == want, (a, b)


def test_zero_length_observation(tmp_path):
    roster = (Person("a", Role.CHILD),)
    obs = Observation(
        class_id="empty", roster=roster, room_area_m2=5.0,
        positions=np.empty((0, 1, 2)), facings=np.empty((0, 1, 2)),
        present=np.empty((0, 1), dtype=bool),
    )
    path = tmp_path / "empty.csv"
    save_observation(obs, path)
    back = load_observation(path)
    assert back.session_length_s == 0
    assert back.roster == roster


# ---------------------------------------------------------------------------
# raw pipeline composition
# ---------------------------------------------------------------------------

def test_raw_csv_matches_fuse_output(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "t_s,person_id,role,side,x_m,y_m\n"
        "0.0,p1,child,L,-0.2,0.0\n"
        "0.0,p1,child,R,0.2,0.0\n"
        "1.0,p1,child,L,0.8,1.0\n"
        "1.0,p1,child,R,1.2,1.0\n"
    )
    (tmp_path / "raw.meta.json").write_text('{"class_id": "raw", "room_area_m2": 12.0}')
    obs = load_observation(raw, TrackFormat.RAW_TAGS)
    assert obs.session_length_s == 2
    assert np.allclose(obs.positions[0, 0], (0.0, 0.0))
    assert np.allclose(obs.facings[0, 0], (0.0, 1.0))
    assert np.allclose(obs.positions[1, 0], (1.0, 1.0))
    direct = _fuse(
        [_tag(0.0, Side.LEFT, -0.2, 0.0)], [_tag(0.0, Side.RIGHT, 0.2, 0.0)]
    )
    assert np.allclose(obs.positions[0, 0], direct.pos[0])
    assert np.allclose(obs.facings[0, 0], direct.facing[0])


def test_raw_csv_interpolates_between_samples(tmp_path):
    raw = tmp_path / "raw.csv"
    rows = ["t_s,person_id,role,side,x_m,y_m"]
    for t in (0.0, 0.5, 1.0, 1.5, 2.0):
        rows.append(f"{t},p1,child,L,{t - 0.2},0.0")
        rows.append(f"{t},p1,child,R,{t + 0.2},0.0")
    raw.write_text("\n".join(rows) + "\n")
    (tmp_path / "raw.meta.json").write_text('{"room_area_m2": 12.0}')
    obs = load_observation(raw, TrackFormat.RAW_TAGS)
    assert obs.session_length_s == 3
    assert np.allclose(obs.positions[:, 0, 0], (0.0, 1.0, 2.0))
    assert obs.present[:, 0].all()


def test_raw_bad_side_rejected(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("t_s,person_id,role,side,x_m,y_m\n0.0,p1,child,X,0,0\n")
    (tmp_path / "raw.meta.json").write_text('{"room_area_m2": 12.0}')
    with pytest.raises(ParseError, match="side"):
        load_observation(raw, TrackFormat.RAW_TAGS)


def test_subset_keeps_order_and_data():
    obs = _obs_two_people()
    sub = obs.subset([1])
    assert sub.person_ids == ("b",)
    assert np.array_equal(sub.positions[:, 0], obs.positions[:, 1])
    assert sub.room_area_m2 == obs.room_area_m2


# ---------------------------------------------------------------------------
# loader contract: error table, raw-tag errors, bitwise round trip
# ---------------------------------------------------------------------------

_FUSED_ROWS = [
    "0,a,child,1,0.0,0.0,1.0,0.0",        # line 2
    "0,b,teacher,0,,,,",                   # line 3
    "1,a,child,1,0.5,0.0,1.0,0.0",        # line 4
    "1,b,teacher,1,2.0,0.0,-1.0,0.0",     # line 5
]


def _write_csv(tmp_path, header, rows, meta=None, name="obs.csv"):
    path = tmp_path / name
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8", newline="")
    sidecar = {"room_area_m2": 10.0, **(meta or {})}
    path.with_suffix(".meta.json").write_text(json.dumps(sidecar))
    return path


def _fused_with(**replace):
    """The valid rows with some replaced (by 0-based row index) or dropped (None)."""
    rows = list(_FUSED_ROWS)
    for key, row in replace.items():
        rows[int(key[1:])] = row
    return [r for r in rows if r is not None]


def test_fused_contract_rows_load(tmp_path):
    obs = load_observation(_write_csv(tmp_path, ",".join(FUSED_HEADER), _FUSED_ROWS))
    assert obs.person_ids == ("a", "b")
    assert [p.role for p in obs.roster] == [Role.CHILD, Role.TEACHER]
    assert obs.present.tolist() == [[True, False], [True, True]]
    assert obs.positions[1, 0].tolist() == [0.5, 0.0]


def test_fused_absent_row_ignores_coordinate_fields(tmp_path):
    rows = _fused_with(r1="0,b,teacher,0,zz,,nan,")
    obs = load_observation(_write_csv(tmp_path, ",".join(FUSED_HEADER), rows))
    assert not obs.present[0, 1]
    assert np.isnan(obs.positions[0, 1]).all()


_FUSED_ERRORS = [
    # id, rows, sidecar, exception, message, err.line
    ("field_count", _fused_with(r1="0,b,teacher,0,,,"), None,
     ParseError, "line 3: expected 8 fields, found 7", 3),
    ("t_not_number", _fused_with(r0="x,a,child,1,0.0,0.0,1.0,0.0"), None,
     ParseError, "line 2: t_s is not a number: 'x'", 2),
    ("t_not_integer", _fused_with(r2="0.5,a,child,1,0.5,0.0,1.0,0.0"), None,
     ValidationError, "line 4: fused t_s must be a non-negative integer, got 0.5", None),
    ("t_negative", _fused_with(r0="-1,a,child,1,0.0,0.0,1.0,0.0"), None,
     ValidationError, "line 2: fused t_s must be a non-negative integer, got -1", None),
    ("unknown_role", _fused_with(r1="0,b,adult,0,,,,"), None,
     ParseError, "line 3: unknown role 'adult'", 3),
    ("present_not_01", _fused_with(r1="0,b,teacher,yes,,,,"), None,
     ParseError, "line 3: present must be 0 or 1, got 'yes'", 3),
    ("role_change", _fused_with(r3="1,b,child,1,2.0,0.0,-1.0,0.0"), None,
     ValidationError, "line 5: person b changes role", None),
    ("bad_coordinate", _fused_with(r2="1,a,child,1,0.5,0.0,east,0.0"), None,
     ParseError, "line 4: facing_x is not a number: 'east'", 4),
    ("duplicate_row", _fused_with(r3="1,a,child,1,0.5,0.0,1.0,0.0"), None,
     ValidationError, "duplicate row for person a at t=1", None),
    ("first_duplicate_wins", _FUSED_ROWS + ["0,b,teacher,0,,,,", "0,a,child,0,,,,"], None,
     ValidationError, "duplicate row for person b at t=0", None),
    ("missing_row", _fused_with(r3=None), None,
     ValidationError, "missing row for person b at t=1", None),
    ("non_consecutive", [r.replace("1,", "2,", 1) if r.startswith("1,") else r
                         for r in _FUSED_ROWS], None,
     ValidationError, "frame seconds are not consecutive", None),
    ("not_in_roster", _FUSED_ROWS, {"roster": [{"person_id": "a", "role": "child"}]},
     ValidationError, "person b in frames but not in roster", None),
    ("roster_role", _FUSED_ROWS, {"roster": [{"person_id": "a", "role": "teacher"},
                                             {"person_id": "b", "role": "teacher"}]},
     ValidationError, "person a is child in frames but teacher in roster", None),
    ("blank_lines_counted", [_FUSED_ROWS[0], "", "", "x,b,teacher,0,,,,"], None,
     ParseError, "line 5: t_s is not a number: 'x'", 5),
    ("lower_line_wins", _fused_with(r1="0,b,teacher,2,,,,", r3="1,b,teacher,1,2.0"), None,
     ParseError, "line 3: present must be 0 or 1, got '2'", 3),
    ("first_check_in_row_wins", _fused_with(r1="zero,b,adult,2,,,,"), None,
     ParseError, "line 3: t_s is not a number: 'zero'", 3),
    ("row_fault_before_duplicate",
     _fused_with(r3="0,a,child,1,0.5,0.0,1.0,0.0", r2="1,a,kid,1,,,,"), None,
     ParseError, "line 4: unknown role 'kid'", 4),
]


@pytest.mark.parametrize("rows, meta, exc, message, line",
                         [c[1:] for c in _FUSED_ERRORS], ids=[c[0] for c in _FUSED_ERRORS])
def test_fused_error_table(tmp_path, rows, meta, exc, message, line):
    path = _write_csv(tmp_path, ",".join(FUSED_HEADER), rows, meta)
    with pytest.raises(exc) as info:
        load_observation(path)
    assert type(info.value) is exc
    assert str(info.value) == message
    assert getattr(info.value, "line", None) == line


_RAW_ROWS = [
    "0.0,p1,child,L,-0.2,0.0",
    "0.0,p1,child,R,0.2,0.0",
    "1.0,p1,child,L,0.8,1.0",
    "1.0,p1,child,R,1.2,1.0",
]

_RAW_ERRORS = [
    ("bad_side", ["0.0,p1,child,X,0,0"], ParseError, "line 2: side must be L or R, got 'X'", 2),
    ("bad_role", _RAW_ROWS[:2] + ["1.0,p1,pupil,L,0.8,1.0"],
     ParseError, "line 4: unknown role 'pupil'", 4),
    ("bad_number", _RAW_ROWS[:1] + ["0.0,p1,child,R,abc,0.0"],
     ParseError, "line 3: x_m is not a number: 'abc'", 3),
    ("lower_line_wins", _RAW_ROWS[:1] + ["0.0,p1,child,R,1.0,def", "0.0,p1,chld,R,abc,0"],
     ParseError, "line 3: y_m is not a number: 'def'", 3),
    ("first_number_in_row_wins", _RAW_ROWS[:1] + ["0.0,p1,child,R,abc,def"],
     ParseError, "line 3: x_m is not a number: 'abc'", 3),
    ("negative_t", _RAW_ROWS[:3] + ["-1,p1,child,R,1.2,1.0"],
     ValidationError, "tag sample time must be >= 0, got -1.0", None),
]


@pytest.mark.parametrize("rows, exc, message, line",
                         [c[1:] for c in _RAW_ERRORS], ids=[c[0] for c in _RAW_ERRORS])
def test_raw_error_table(tmp_path, rows, exc, message, line):
    path = _write_csv(tmp_path, ",".join(RAW_HEADER), rows, name="raw.csv")
    with pytest.raises(exc) as info:
        load_observation(path, TrackFormat.RAW_TAGS)
    assert type(info.value) is exc
    assert str(info.value) == message
    assert getattr(info.value, "line", None) == line


# a present coordinate lies within +-MAX_COORD_M (1e6 m); both edges are valid
_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e6, -1e6,
                   0.1, 1 / 3, 123456.78901234567, -9.876543210987654e-05]
_coordinate = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(-1e6, 1e6))
_UNIT_FACINGS = [(1.0, 0.0), (1.0, -0.0), (-0.0, -1.0), (1.0, 5e-324), (0.6, 0.8)]
_facing = st.one_of(
    st.sampled_from(_UNIT_FACINGS),
    st.floats(-7.0, 7.0).map(lambda a: (math.cos(a), math.sin(a))),
)
# a quote, comma or line feed inside a person_id makes csv quote the field
_person_id = st.text(alphabet='ab,"\n 7', min_size=1, max_size=5)


@st.composite
def _observations(draw):
    ids = draw(st.lists(_person_id, min_size=1, max_size=3, unique=True))
    t_total = draw(st.integers(0, 5))
    n = len(ids)
    present = np.array(draw(st.lists(st.booleans(), min_size=t_total * n, max_size=t_total * n)),
                       dtype=bool).reshape(t_total, n)
    cells = t_total * n
    xy = draw(st.lists(_coordinate, min_size=2 * cells, max_size=2 * cells))
    fac = draw(st.lists(_facing, min_size=cells, max_size=cells))
    positions = np.array(xy, dtype=float).reshape(t_total, n, 2)
    facings = np.array(fac, dtype=float).reshape(t_total, n, 2)
    positions[~present] = np.nan
    facings[~present] = np.nan
    activity = None
    if t_total and draw(st.booleans()):
        activity = np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=t_total,
                                          max_size=t_total)), dtype=np.uint8)
    roles = draw(st.lists(st.sampled_from(list(Role)), min_size=n, max_size=n))
    return Observation(
        class_id=draw(st.sampled_from(["c1", "room 4"])),
        roster=tuple(Person(i, r) for i, r in zip(ids, roles)),
        room_area_m2=draw(st.sampled_from([12.5, 60.0])),
        positions=positions, facings=facings, present=present, activity=activity,
    )


def _assert_bitwise_equal(back, obs):
    assert back.roster == obs.roster
    assert back.class_id == obs.class_id
    assert back.room_area_m2 == obs.room_area_m2
    for name in ("positions", "facings", "present"):
        a, b = getattr(back, name), getattr(obs, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    if obs.activity is None:
        assert back.activity is None
    else:
        assert back.activity.tobytes() == obs.activity.tobytes()


@settings(max_examples=150, deadline=None)
@given(obs=_observations(), crlf=st.booleans())
def test_save_load_round_trip_bitwise(tmp_path_factory, obs, crlf):
    path = tmp_path_factory.mktemp("rt") / "obs.csv"
    save_observation(obs, path)
    if crlf:
        # CRLF record ends; skipped when an id holds a line feed, which this would rewrite
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        if not any("\n" in p.person_id for p in obs.roster):
            path.write_text(text.replace("\n", "\r\n"), encoding="utf-8", newline="")
    _assert_bitwise_equal(load_observation(path), obs)


@settings(max_examples=150, deadline=None)
@given(obs=_observations())
def test_save_matches_rowwise_writer_bytes(tmp_path_factory, obs):
    root = tmp_path_factory.mktemp("save")
    save_observation(obs, root / "fast.csv")
    save_rowwise(obs, root / "rows.csv")
    for suffix in (".csv", ".meta.json"):
        assert ((root / "fast").with_suffix(suffix).read_bytes()
                == (root / "rows").with_suffix(suffix).read_bytes()), suffix


def test_save_quotes_person_ids_like_csv_writer(tmp_path):
    obs = _obs_two_people(t_total=3)
    obs.roster = (Person('a,"b', Role.CHILD), Person(" lead space", Role.TEACHER))
    obs.present[1, 0] = False
    obs.positions[1, 0] = obs.facings[1, 0] = np.nan
    save_observation(obs, tmp_path / "fast.csv")
    save_rowwise(obs, tmp_path / "rows.csv")
    text = (tmp_path / "fast.csv").read_bytes()
    assert text == (tmp_path / "rows.csv").read_bytes()
    assert b'1,"a,""b",child,0,,,,\n' in text
    _assert_bitwise_equal(load_observation(tmp_path / "fast.csv"), obs)


def test_save_load_round_trips_carriage_return_in_person_id(tmp_path):
    # the loader reads a bare carriage return as a line break, so an id
    # holding one must be quoted; other ids keep the csv.writer bytes
    obs = _obs_two_people(t_total=3)
    obs.roster = (Person(" lead\rspace", Role.CHILD), Person("cr\r\nlf", Role.TEACHER))
    save_observation(obs, tmp_path / "cr.csv")
    text = (tmp_path / "cr.csv").read_bytes()
    assert b'0," lead\rspace",child,1,' in text and b'0,"cr\r\nlf",teacher,1,' in text
    _assert_bitwise_equal(load_observation(tmp_path / "cr.csv"), obs)


# ---------------------------------------------------------------------------
# array code against the row-by-row reference
# ---------------------------------------------------------------------------

def _random_streams(rng):
    """Seeded left/right streams with tied times, gaps and coincident tags."""
    steps = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.5000000000001, 0.75, 2.0, 7.0])
    streams = []
    for _ in range(2):
        k = int(rng.integers(1, 40))
        t = rng.uniform(0.0, 0.6) + np.cumsum(rng.choice(steps, size=k))
        if rng.random() < 0.3:
            t = np.round(t, 1)  # exact ties across the two streams
        streams.append(t)
    draw = rng.random()
    if draw < 0.25:
        streams[1] = streams[0][: len(streams[1])].copy()  # simultaneous reports
    elif draw < 0.5 and len(streams[0]) > 1:
        # right reports halfway between two left ones, up to the 1e-12 tie tolerance
        mid = (streams[0][:-1] + streams[0][1:]) / 2.0
        streams[1] = np.sort(mid + rng.choice([-4e-13, 0.0, 4e-13], size=len(mid)))
    lt, rt = streams
    lxy = rng.uniform(-3.0, 3.0, size=(len(lt), 2))
    rxy = lxy[np.minimum(np.arange(len(rt)), len(lt) - 1)] + rng.uniform(-0.3, 0.3, (len(rt), 2))
    coincide = rng.random(len(rt)) < 0.2
    rxy[coincide] = lxy[np.minimum(np.flatnonzero(coincide), len(lt) - 1)]
    left = [_tag(float(t), Side.LEFT, float(x), float(y)) for t, (x, y) in zip(lt, lxy)]
    right = [_tag(float(t), Side.RIGHT, float(x), float(y)) for t, (x, y) in zip(rt, rxy)]
    return left, right


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except (EmptyTrack, ParseError, SchemaError, ValidationError) as e:
        return None, (type(e), str(e), getattr(e, "line", None))


def test_fuse_tags_matches_loop_reference():
    paired = 0
    for seed in range(300):
        left, right = _random_streams(np.random.default_rng(seed))
        got, got_err = _outcome(_fuse, left, right)
        want, want_err = _outcome(fuse_tags_loop, left, right)
        assert got_err == want_err, seed
        if want is not None:
            paired += 1
            for name in ("t", "pos", "facing"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (seed, name)
    assert paired > 250


def test_raw_loader_ties_keep_file_order(tmp_path):
    # many reports share a timestamp; which one pairs first follows file order
    rng = np.random.default_rng(5)
    rows = [f"{t!r},{pid},child,{side},{x!r},{y!r}"
            for pid in ("p1", "p2") for side in "LR"
            for t, x, y in zip(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0], size=60).tolist(),
                               rng.uniform(-2, 2, 60).tolist(), rng.uniform(-2, 2, 60).tolist())]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    path = _write_csv(tmp_path, ",".join(RAW_HEADER), rows, name="raw.csv")
    _assert_bitwise_equal(load_observation(path, TrackFormat.RAW_TAGS),
                          load_rowwise(path, TrackFormat.RAW_TAGS))


def test_fuse_tags_rejects_non_finite_times():
    with pytest.raises(ValidationError, match="finite"):
        _fuse([_tag(math.nan, Side.LEFT, 0, 0)], [_tag(0.0, Side.RIGHT, 1, 0)])


# fields a mutation may write; a fused t_s only takes small finite ones,
# because the row reference takes int() of it and lists its seconds one by one
_T_TOKENS = ["", "x", "0.5", "-1", "-0", "1_0", " 2", "3", "1e1", "+1"]
# a raw t_s must be finite and below MAX_T_S (one error line, see test_cli.py)
_RAW_T_TOKENS = _T_TOKENS + ["nan", "inf", "-inf", "86400", "1e15"]
_TOKENS = _T_TOKENS + [
    "nan", "inf", "-inf", "0", "1", "2", "child", "teacher", "adult", "L", "R", "p1",
    "p2", '"p,1"', '"p""2"', '"p\n3"', "0.6", "0.8", "-0.0", "5e-324", "1e308",
]


@st.composite
def _csv_files(draw):
    """A fused or raw-tag file from valid rows, then damaged in a few places."""
    raw = draw(st.booleans())
    ids = draw(st.lists(st.sampled_from(["p1", "p2", "p,1", 'p"2', "p\n3"]),
                        min_size=1, max_size=3, unique=True))
    roles = draw(st.lists(st.sampled_from(["child", "teacher"]), min_size=len(ids),
                          max_size=len(ids)))
    quoted = [f'"{i.replace(chr(34), chr(34) * 2)}"' if set(i) & set(',"\n') else i for i in ids]
    rows = []
    if raw:
        for pid, role in zip(quoted, roles):
            for side in "LR":
                t = draw(st.sampled_from([0.0, 0.1, 0.3]))
                for _ in range(draw(st.integers(1, 6))):
                    x, y = draw(st.floats(-5, 5)), draw(st.floats(-5, 5))
                    rows.append([repr(t), pid, role, side, repr(x), repr(y)])
                    t += draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 6.0]))
        rows = draw(st.permutations(rows))
    else:
        for t in range(draw(st.integers(0, 4))):
            for pid, role in zip(quoted, roles):
                if draw(st.booleans()):
                    x, y, a = draw(st.floats(-5, 5)), draw(st.floats(-5, 5)), draw(st.floats(-4, 4))
                    rows.append([str(t), pid, role, "1", repr(x), repr(y),
                                 repr(math.cos(a)), repr(math.sin(a))])
                else:
                    rows.append([str(t), pid, role, "0", "", "", "", ""])
    rows = [list(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        k = draw(st.integers(0, len(rows) - 1))
        op = draw(st.sampled_from(["field", "field", "drop", "copy", "blank", "short", "long"]))
        if op == "field" and rows[k]:
            j = draw(st.integers(0, len(rows[k]) - 1))
            t_tokens = _RAW_T_TOKENS if raw else _T_TOKENS
            rows[k][j] = draw(st.sampled_from(t_tokens if j == 0 else _TOKENS))
        elif op == "drop":
            del rows[k]
        elif op == "copy":
            rows.insert(k, list(rows[k]))
        elif op == "blank":
            rows.insert(k, [])
        elif op == "short":
            rows[k] = rows[k][:-1]
        else:
            rows[k] = rows[k] + ["z"]
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = ",".join(RAW_HEADER if raw else FUSED_HEADER)
    text = header + eol + "".join(",".join(r) + eol for r in rows)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    meta = {"room_area_m2": 10.0}
    if draw(st.booleans()):
        meta["roster"] = [{"person_id": i, "role": r} for i, r in zip(ids, roles)]
        meta["roster"] = meta["roster"][: draw(st.integers(0, len(ids)))]
    return raw, text, meta


@settings(max_examples=400, deadline=None)
@given(case=_csv_files())
def test_loader_matches_rowwise_reference(tmp_path_factory, case):
    raw, text, meta = case
    path = tmp_path_factory.mktemp("diff") / "obs.csv"
    path.write_text(text, encoding="utf-8", newline="")
    path.with_suffix(".meta.json").write_text(json.dumps(meta))
    fmt = TrackFormat.RAW_TAGS if raw else TrackFormat.FUSED
    got, got_err = _outcome(load_observation, path, fmt)
    want, want_err = _outcome(load_rowwise, path, fmt)
    assert got_err == want_err
    if want is not None:
        _assert_bitwise_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(case=_csv_files())
def test_loader_matches_rowwise_reference_across_blocks(tmp_path_factory, case):
    # blocks of 3 records and columns that reserve at most 4 rows: line
    # numbers run across blocks, columns grow, and rows in grid order are
    # told from the rest after growth
    raw, text, meta = case
    path = tmp_path_factory.mktemp("blocks") / "obs.csv"
    path.write_text(text, encoding="utf-8", newline="")
    path.with_suffix(".meta.json").write_text(json.dumps(meta))
    fmt = TrackFormat.RAW_TAGS if raw else TrackFormat.FUSED
    with patch.object(columnar, "_BLOCK_ROWS", 3), patch.object(columnar, "_COLUMN_ROWS", 4):
        got, got_err = _outcome(load_observation, path, fmt)
    want, want_err = _outcome(load_rowwise, path, fmt)
    assert got_err == want_err
    if want is not None:
        _assert_bitwise_equal(got, want)


def _in_grid_order(people, seconds):
    """Fused rows in grid order: each person present at a point of its own each second."""
    return [f"{t},{pid},{role},1,{t + k}.0,{k}.0,1.0,0.0"
            for t in range(seconds) for k, (pid, role) in enumerate(people)]


def _swap(rows, i, j):
    rows = list(rows)
    rows[i], rows[j] = rows[j], rows[i]
    return rows


_ABC = [("a", "child"), ("b", "child"), ("c", "teacher")]
_ABCD = _ABC + [("d", "child")]
_GRID = _in_grid_order(_ABC, 4)  # 12 rows: with 3-row blocks, one block a second


def _roster(*people):
    return {"roster": [{"person_id": pid, "role": role} for pid, role in people]}


_LATE_BREAKS = [
    # id, rows, sidecar, the error the load raises (None: it loads)
    ("swapped_rows", _swap(_GRID, 7, 8), None, None),
    ("swapped_across_seconds", _swap(_GRID, 4, 10), None, None),
    ("duplicate_row", _GRID[:8] + _GRID[7:], None, "duplicate row for person b at t=2"),
    ("duplicate_in_first_second", _GRID[:2] + _GRID[:1] + _GRID[2:], None,
     "duplicate row for person a at t=0"),
    ("missing_row", _GRID[:8] + _GRID[9:], None, "missing row for person c at t=2"),
    ("role_change_after_break",
     _swap(_GRID, 4, 5)[:10] + ["3,b,teacher,1,4.0,1.0,1.0,0.0"] + _GRID[11:], None,
     "line 12: person b changes role"),
    ("absent_from_first_second", _GRID[:2] + _GRID[3:], None,
     "missing row for person c at t=0"),
    ("absent_from_first_second_of_roster", _GRID[:2] + _GRID[3:], _roster(*_ABC),
     "missing row for person c at t=0"),
    ("last_second_short", _GRID[:-1], None, "missing row for person c at t=3"),
    ("roster_in_another_order", _GRID, _roster(_ABC[1], _ABC[0], _ABC[2]), None),
    ("roster_person_never_seen", _GRID, _roster(*_ABCD), "missing row for person d at t=0"),
    # four people: the first second spans two blocks, and its length is
    # still open when the order breaks
    ("break_in_first_second", _swap(_in_grid_order(_ABCD, 3), 3, 4), None, None),
    ("one_second_over_two_blocks", _in_grid_order(_ABCD, 1), None, None),
]


@pytest.mark.parametrize("rows, meta, message", [c[1:] for c in _LATE_BREAKS],
                         ids=[c[0] for c in _LATE_BREAKS])
def test_loader_matches_rowwise_reference_when_grid_order_breaks_late(tmp_path, rows, meta,
                                                                       message):
    # rows in grid order up to a later block: the rows before it are rebuilt
    # from the grid arithmetic, and the load must still match the reference
    path = _write_csv(tmp_path, ",".join(FUSED_HEADER), rows, meta)
    with patch.object(columnar, "_BLOCK_ROWS", 3), patch.object(columnar, "_COLUMN_ROWS", 4):
        got, got_err = _outcome(load_observation, path)
    want, want_err = _outcome(load_rowwise, path)
    assert got_err == want_err
    assert (got_err[1] if got_err else None) == message
    if want is not None:
        _assert_bitwise_equal(got, want)


def test_rows_in_grid_order_and_shuffled_rows_load_alike(tmp_path):
    rng = np.random.default_rng(23)
    obs = _obs_two_people(t_total=700)  # 1400 rows: past one 1024-record block
    obs.present[rng.random(obs.present.shape) < 0.2] = False
    obs.positions[~obs.present] = np.nan
    obs.facings[~obs.present] = np.nan
    save_observation(obs, tmp_path / "saved.csv")
    header, *rows = (tmp_path / "saved.csv").read_text(encoding="utf-8").splitlines()
    shuffled = _write_csv(tmp_path, header, [rows[k] for k in rng.permutation(len(rows))],
                          meta=json.loads((tmp_path / "saved.meta.json").read_text()),
                          name="shuffled.csv")
    checked = []  # rows whose cells _fused_cells worked out, per call
    fused_cells = trajectory._fused_cells

    def cells(t, *args):
        checked.append(len(t))
        return fused_cells(t, *args)

    with patch.object(trajectory, "_fused_cells", cells):
        saved = load_observation(tmp_path / "saved.csv")
        assert checked == []  # the saved rows become the grid with no per-row t_s or code
        back = load_observation(shuffled)
    assert checked == [1400]  # shuffled ones are checked cell by cell and scattered
    _assert_bitwise_equal(saved, obs)
    _assert_bitwise_equal(back, obs)


def test_load_holds_a_fused_recording_once(tmp_path):
    # the criterion-9 class: 15 people x 10,800 s = 162,000 rows, whose
    # arrays take 5,346,000 B.  Keeping every row's coordinates in row
    # columns and scattering them into a second grid peaked at 3.43x those
    # bytes under tracemalloc; rows in grid order kept as the grid peaked at
    # 2.64x, and with columns reserved before the rows arrive and validation
    # a time chunk at a time, at 1.87x.  Checking grid order as the rows
    # arrive keeps no per-row t_s or person code: 1.34x, bounded at 1.5x.
    obs = synthgen.generate(synthgen.SynthConfig(
        n_children=13, n_teachers=2, room_w=10.0, room_h=6.0, session_length_s=10_800,
        schedule=((0, 5400, Activity.STRUCTURED), (5400, 10_800, Activity.UNSTRUCTURED)),
        seed=5))
    save_observation(obs, tmp_path / "class.csv")
    held = obs.positions.nbytes + obs.facings.nbytes + obs.present.nbytes
    assert held == 5_346_000
    del obs
    tracemalloc.start()
    try:
        back = load_observation(tmp_path / "class.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.positions.shape == (10_800, 15, 2)
    assert peak < 1.5 * held


def test_load_holds_raw_tag_rows_once(tmp_path):
    # the benchmark's raw-tag class: 30 people x 900 s, 143,834 tag rows
    # parsed into 33 B a row (t_s, x, y, person code and side).  Sorting
    # into streams beside a stream key, with the fused tracks made while
    # every row column lived, peaked at 2.26x those bytes under
    # tracemalloc; one sorted copy, split by counts and freed before
    # resampling, at 1.36x, bounded at 1.6x.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from rawtags import write_raw_tags
    finally:
        sys.path.pop(0)
    intervals = ((0, 450, Activity.STRUCTURED), (450, 900, Activity.UNSTRUCTURED))
    obs = synthgen.generate(synthgen.SynthConfig(
        n_children=27, n_teachers=3, room_w=12.0, room_h=10.0, session_length_s=900,
        schedule=intervals, seed=1, class_id="ingest"))
    rows = write_raw_tags(obs, intervals, tmp_path / "raw.csv", 1)["raw_rows"]
    assert rows == 143_834
    del obs
    tracemalloc.start()
    try:
        back = load_observation(tmp_path / "raw.csv", TrackFormat.RAW_TAGS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.positions.shape == (899, 30, 2)  # seconds up to the last fused sample
    assert peak < 1.6 * 33 * rows


def test_validate_checks_positions_before_facings_across_chunks():
    obs = _obs_two_people(t_total=6)
    obs.facings[1, 0] = (0.6, 0.6)  # not unit norm, in an earlier chunk
    obs.positions[4, 1] = (math.inf, 0.0)
    with patch.object(trajectory, "_VALIDATE_CELLS", 2):  # one second per chunk
        with pytest.raises(ValidationError, match="present position is not finite"):
            obs.validate()
        obs.positions[4, 1] = (0.0, 0.0)
        obs.facings[3, 1] = (0.0, 2.0)
        with pytest.raises(ValidationError, match=r"facing of a at t=1 is not unit norm"):
            obs.validate()
        obs.facings[1, 0] = (1.0, 0.0)
        with pytest.raises(ValidationError, match=r"facing of b at t=3 is not unit norm \(\|f\| = 2.0\)"):
            obs.validate()


@settings(max_examples=100, deadline=None)
@given(obs=_observations(), data=st.data())
def test_subset_is_valid_and_gathers_columns(obs, data):
    idx = data.draw(st.lists(st.integers(0, obs.n_people - 1), unique=True))
    sub = obs.subset(idx)
    sub.validate()
    keep = sorted(idx)
    assert sub.roster == tuple(obs.roster[k] for k in keep)
    assert sub.positions.tobytes() == obs.positions[:, keep].tobytes()
    assert sub.facings.tobytes() == obs.facings[:, keep].tobytes()
    assert sub.present.tobytes() == obs.present[:, keep].tobytes()
    assert (sub.activity is None) == (obs.activity is None)
    if obs.activity is not None:
        assert sub.activity.tobytes() == obs.activity.tobytes()
        assert sub.activity is not obs.activity
    assert (sub.class_id, sub.room_area_m2) == (obs.class_id, obs.room_area_m2)


def test_subset_still_checks_structure():
    obs = _obs_two_people()
    obs.roster = (obs.roster[0], obs.roster[0])
    with pytest.raises(ValidationError, match="duplicate person_id"):
        obs.subset([0, 1])
