"""Row-by-row reference implementations of trajectory ingestion.

These are the loaders, the tag pairing loop, the per-second resampler and
the row writer that ``classim.trajectory`` replaced with array code.  The
tests compare the array code against them: same arrays and bytes bit for
bit, same exception class and message.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from classim.errors import EmptyTrack, ParseError, SchemaError, ValidationError
from classim.trajectory import (
    FUSED_HEADER,
    MAX_COORD_M,
    MAX_GAP_S,
    MAX_T_S,
    PAIRING_WINDOW_S,
    RAW_HEADER,
    FusedTrack,
    Observation,
    Person,
    Role,
    Side,
    TrackFormat,
    UniformTrack,
    _activity_from_sidecar,
    _angles,
    _load_sidecar,
    _roster_from_sidecar,
    _rot90_ccw,
    _write_sidecar,
    default_meta_path,
)


@dataclass(frozen=True)
class TagSample:
    """One raw position reading from a single hip tag."""

    t: float
    person_id: str
    side: Side
    x: float
    y: float

    def __post_init__(self):
        if self.t < 0:
            raise ValidationError(f"tag sample time must be >= 0, got {self.t}")
        if not (abs(self.x) <= MAX_COORD_M and abs(self.y) <= MAX_COORD_M):
            raise ValidationError(
                f"tag coordinates ({self.x}, {self.y}) are not finite or beyond {MAX_COORD_M:g} m")


def fuse_tags_loop(left, right) -> FusedTrack:
    """Tag fusion with the pairing, carry-forward and backfill done per sample."""
    if not left or not right:
        raise EmptyTrack("both tag streams must be non-empty")
    pid = left[0].person_id
    lt = np.array([s.t for s in left], dtype=float)
    rt = np.array([s.t for s in right], dtype=float)
    lxy = np.array([[s.x, s.y] for s in left], dtype=float)
    rxy = np.array([[s.x, s.y] for s in right], dtype=float)

    nearest_r = np.clip(np.searchsorted(rt, lt), 1, len(rt)) - 1
    take_next = (nearest_r + 1 < len(rt)) & (
        np.abs(rt[np.minimum(nearest_r + 1, len(rt) - 1)] - lt) < np.abs(rt[nearest_r] - lt)
    )
    nearest_r = nearest_r + take_next

    pairs = []
    used_r = set()
    for li in range(len(lt)):
        ri = int(nearest_r[li])
        if ri in used_r or abs(rt[ri] - lt[li]) > PAIRING_WINDOW_S:
            continue
        dl = np.abs(lt - rt[ri])
        if dl.min() < abs(lt[li] - rt[ri]) - 1e-12:
            continue
        pairs.append((li, ri))
        used_r.add(ri)
    if not pairs:
        raise EmptyTrack(f"no left/right pairs within {PAIRING_WINDOW_S} s for {pid}")

    t_out = np.array([(lt[li] + rt[ri]) / 2.0 for li, ri in pairs])
    pos = np.array([(lxy[li] + rxy[ri]) / 2.0 for li, ri in pairs])
    l2r = np.array([rxy[ri] - lxy[li] for li, ri in pairs])
    norms = np.linalg.norm(l2r, axis=1)
    facing = np.full_like(pos, np.nan)
    ok = norms > 1e-9
    facing[ok] = _rot90_ccw(l2r[ok]) / norms[ok, None]
    last = None
    for k in range(len(facing)):
        if ok[k]:
            last = facing[k]
        elif last is not None:
            facing[k] = last
    nxt = None
    for k in range(len(facing) - 1, -1, -1):
        if np.isfinite(facing[k]).all():
            nxt = facing[k]
        elif nxt is not None:
            facing[k] = nxt
    if not np.isfinite(facing).all():
        raise ValidationError(f"track for {pid} never defines an orientation")
    return FusedTrack(t=t_out, pos=pos, facing=facing)


def resample_loop(track: FusedTrack, grid=None) -> UniformTrack:
    """``resample`` one grid second at a time."""
    if len(track) == 0:
        raise EmptyTrack("cannot resample an empty track")
    t = track.t
    if grid is None:
        grid = np.arange(0, math.floor(t[-1]) + 1, dtype=float)
    else:
        grid = np.asarray(grid, dtype=float)

    n = len(grid)
    pos = np.full((n, 2), np.nan)
    fac = np.full((n, 2), np.nan)
    present = np.zeros(n, dtype=bool)

    ang = _angles(track.facing)
    right = np.searchsorted(t, grid)          # first sample index >= grid point
    for g in range(n):
        x = grid[g]
        k = right[g]
        if k < len(t) and t[k] == x:          # exact knot: copy bitwise
            pos[g] = track.pos[k]
            fac[g] = track.facing[k]
            present[g] = True
            continue
        if k == 0 or k == len(t):             # outside sampled span
            continue
        t0, t1 = t[k - 1], t[k]
        if t1 - t0 > MAX_GAP_S:
            continue
        w = (x - t0) / (t1 - t0)
        pos[g] = (1.0 - w) * track.pos[k - 1] + w * track.pos[k]
        da = ang[k] - ang[k - 1]
        da = (da + math.pi) % (2.0 * math.pi) - math.pi   # shortest arc
        a = ang[k - 1] + w * da
        fac[g] = (math.cos(a), math.sin(a))
        present[g] = True
    return UniformTrack(pos=pos, facing=fac, present=present)


def _fmt(x: float) -> str:
    return repr(float(x))


def save_rowwise(obs: Observation, csv_path, meta_path=None) -> None:
    """``save_observation`` through ``csv.writer``, one row at a time."""
    csv_path = Path(csv_path)
    meta_path = Path(meta_path) if meta_path is not None else default_meta_path(csv_path)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(FUSED_HEADER)
        for t in range(obs.session_length_s):
            for k, person in enumerate(obs.roster):
                if obs.present[t, k]:
                    w.writerow([
                        t, person.person_id, person.role.value, 1,
                        _fmt(obs.positions[t, k, 0]), _fmt(obs.positions[t, k, 1]),
                        _fmt(obs.facings[t, k, 0]), _fmt(obs.facings[t, k, 1]),
                    ])
                else:
                    w.writerow([t, person.person_id, person.role.value, 0, "", "", "", ""])
    _write_sidecar(obs, meta_path)


def _parse_float(text, what, line):
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{what} is not a number: {text!r}", line=line) from None


def _read_rows(csv_path, expected_header):
    with open(csv_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{csv_path} is empty") from None
        if [h.strip() for h in header] != expected_header:
            missing = set(expected_header) - {h.strip() for h in header}
            raise SchemaError(
                f"{csv_path} header {header} does not match {expected_header}"
                + (f" (missing columns: {sorted(missing)})" if missing else "")
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise ParseError(
                    f"expected {len(expected_header)} fields, found {len(row)}", line=line_no
                )
            yield line_no, row


def _check_roster(roster, seen_people, where):
    if roster is None:
        roster = tuple(Person(pid, role) for pid, role in seen_people.items())
    index = {p.person_id: k for k, p in enumerate(roster)}
    roles = {p.person_id: p.role for p in roster}
    for pid, role in seen_people.items():
        if pid not in index:
            raise ValidationError(f"person {pid} in {where} but not in roster")
        if roles[pid] != role:
            raise ValidationError(
                f"person {pid} is {role.value} in {where} but {roles[pid].value} in roster"
            )
    return roster, index


def _load_fused(csv_path, meta):
    rows = []
    seen_people = {}
    for line_no, row in _read_rows(csv_path, FUSED_HEADER):
        t_txt, pid, role_txt, present_txt = row[0], row[1], row[2], row[3]
        t = _parse_float(t_txt, "t_s", line_no)
        if t != int(t) or t < 0:
            raise ValidationError(
                f"line {line_no}: fused t_s must be a non-negative integer, got {t_txt}")
        try:
            role = Role(role_txt)
        except ValueError:
            raise ParseError(f"unknown role {role_txt!r}", line=line_no) from None
        if present_txt not in ("0", "1"):
            raise ParseError(f"present must be 0 or 1, got {present_txt!r}", line=line_no)
        if pid in seen_people and seen_people[pid] != role:
            raise ValidationError(f"line {line_no}: person {pid} changes role")
        seen_people[pid] = role
        if present_txt == "1":
            vals = [_parse_float(row[i], FUSED_HEADER[i], line_no) for i in range(4, 8)]
        else:
            vals = [math.nan] * 4
        rows.append((int(t), pid, present_txt == "1", vals))

    roster, index = _check_roster(_roster_from_sidecar(meta), seen_people, "frames")
    if rows:
        t_values = sorted({r[0] for r in rows})
        t0, t1 = t_values[0], t_values[-1]
        if t_values != list(range(t0, t1 + 1)):
            raise ValidationError("frame seconds are not consecutive")
    else:
        t0, t1 = 0, -1
    t_total = t1 - t0 + 1
    n = len(roster)
    positions = np.full((t_total, n, 2), np.nan)
    facings = np.full((t_total, n, 2), np.nan)
    present = np.zeros((t_total, n), dtype=bool)
    filled = np.zeros((t_total, n), dtype=bool)
    for t, pid, is_present, vals in rows:
        k = index[pid]
        ti = t - t0
        if filled[ti, k]:
            raise ValidationError(f"duplicate row for person {pid} at t={t}")
        filled[ti, k] = True
        if is_present:
            positions[ti, k] = vals[0], vals[1]
            facings[ti, k] = vals[2], vals[3]
            present[ti, k] = True
    if t_total and not filled.all():
        ti, k = np.argwhere(~filled)[0]
        raise ValidationError(f"missing row for person {roster[k].person_id} at t={ti + t0}")
    return Observation(
        class_id=str(meta.get("class_id", csv_path.stem)), roster=roster,
        room_area_m2=float(meta["room_area_m2"]), positions=positions, facings=facings,
        present=present, activity=_activity_from_sidecar(meta, t_total),
    )


def _load_raw(csv_path, meta):
    streams = {}
    seen_people = {}
    for line_no, row in _read_rows(csv_path, RAW_HEADER):
        t = _parse_float(row[0], "t_s", line_no)
        pid = row[1]
        try:
            role = Role(row[2])
        except ValueError:
            raise ParseError(f"unknown role {row[2]!r}", line=line_no) from None
        try:
            side = Side(row[3])
        except ValueError:
            raise ParseError(f"side must be L or R, got {row[3]!r}", line=line_no) from None
        if pid in seen_people and seen_people[pid] != role:
            raise ValidationError(f"line {line_no}: person {pid} changes role")
        seen_people[pid] = role
        x = _parse_float(row[4], "x_m", line_no)
        y = _parse_float(row[5], "y_m", line_no)
        sample = TagSample(t=t, person_id=pid, side=side, x=x, y=y)
        if not t < MAX_T_S:  # checked after the sample's own checks, as the loader does
            raise ValidationError(
                f"line {line_no}: t_s must be a finite number below {MAX_T_S:g} s, got {row[0]}")
        streams.setdefault(pid, {Side.LEFT: [], Side.RIGHT: []})[side].append(sample)

    roster, index = _check_roster(_roster_from_sidecar(meta), seen_people, "tag rows")
    fused = {}
    for pid, sides in streams.items():
        for side in (Side.LEFT, Side.RIGHT):
            sides[side].sort(key=lambda s: s.t)
        fused[pid] = fuse_tags_loop(sides[Side.LEFT], sides[Side.RIGHT])
    if not fused:
        raise EmptyTrack(f"{csv_path} contains no tag samples")
    t_max = max(track.t[-1] for track in fused.values())
    grid = np.arange(0, math.floor(t_max) + 1, dtype=float)
    n = len(roster)
    positions = np.full((len(grid), n, 2), np.nan)
    facings = np.full((len(grid), n, 2), np.nan)
    present = np.zeros((len(grid), n), dtype=bool)
    for pid, track in fused.items():
        k = index[pid]
        u = resample_loop(track, grid)
        positions[:, k] = u.pos
        facings[:, k] = u.facing
        present[:, k] = u.present
    return Observation(
        class_id=str(meta.get("class_id", csv_path.stem)), roster=roster,
        room_area_m2=float(meta["room_area_m2"]), positions=positions, facings=facings,
        present=present, activity=_activity_from_sidecar(meta, len(grid)),
    )


def load_rowwise(path, fmt=TrackFormat.FUSED):
    """``load_observation`` as it was before ingest became columnar."""
    path = Path(path)
    meta = _load_sidecar(default_meta_path(path))
    return _load_fused(path, meta) if fmt == TrackFormat.FUSED else _load_raw(path, meta)
