"""Trajectory ingestion: tag fusion, 1 Hz resampling, observation files.

People wear one tag on each hip.  A person's position is the centroid of the
two tags and their facing direction is the left-to-right tag vector rotated
90 degrees counter-clockwise (left hip at -x, right hip at +x means the
person faces +y).  Raw tags arrive irregularly at 2-4 Hz; everything
downstream runs on a uniform 1 Hz grid with an explicit presence mask.

File formats
------------
Fused CSV     header ``t_s,person_id,role,present,x_m,y_m,facing_x,facing_y``
              one row per person per second; coordinate fields empty when
              present = 0.
Raw-tag CSV   header ``t_s,person_id,role,side,x_m,y_m`` with side L or R and
              fractional timestamps.
Sidecar       JSON next to the CSV (``<name>.meta.json``) carrying class_id,
              room_area_m2, optional roster, optional activity intervals
              ``[{start_s, end_s, label}]``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    EmptyTrack,
    ParseError,
    SchemaError,
    ValidationError,
)

#: Maximum timestamp distance between a tag sample and the instant it is
#: paired against.  One silent tag for longer than this leaves the second
#: unpaired (it may still be filled by interpolation, see MAX_GAP_S).
PAIRING_WINDOW_S = 0.5

#: Gaps between fused samples longer than this are treated as genuine absence
#: (out of the room) rather than sensor dropout, and are never interpolated.
MAX_GAP_S = 5.0

FUSED_HEADER = ["t_s", "person_id", "role", "present", "x_m", "y_m", "facing_x", "facing_y"]
RAW_HEADER = ["t_s", "person_id", "role", "side", "x_m", "y_m"]


class Role(str, Enum):
    CHILD = "child"
    TEACHER = "teacher"


class Activity(str, Enum):
    STRUCTURED = "structured"
    UNSTRUCTURED = "unstructured"


class TrackFormat(str, Enum):
    FUSED = "fused"
    RAW_TAGS = "raw_tags"


class Side(str, Enum):
    LEFT = "L"
    RIGHT = "R"


@dataclass(frozen=True)
class Person:
    person_id: str
    role: Role


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
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError(f"non-finite tag coordinates ({self.x}, {self.y})")


@dataclass
class FusedTrack:
    """Irregularly-timed fused samples for one person: centroid + facing."""

    t: np.ndarray        # (K,) seconds, strictly increasing
    pos: np.ndarray      # (K, 2) meters
    facing: np.ndarray   # (K, 2) unit vectors

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class UniformTrack:
    """One person's track on the integer-second grid."""

    pos: np.ndarray      # (T, 2), NaN when absent
    facing: np.ndarray   # (T, 2), NaN when absent
    present: np.ndarray  # (T,) bool


@dataclass(frozen=True)
class TrajectoryFrame:
    """One second of the observation: who is where, facing which way.

    positions/facings are (N, 2) arrays in roster order; absent people carry
    NaN coordinates and present[k] = False.
    """

    t: int
    positions: np.ndarray
    facings: np.ndarray
    present: np.ndarray


@dataclass
class Observation:
    """A full classroom session on the uniform 1 Hz grid.

    positions/facings have shape (T, N, 2) with N people in roster order;
    present is (T, N).  activity, when given, labels each second as
    structured or unstructured.
    """

    class_id: str
    roster: tuple[Person, ...]
    room_area_m2: float
    positions: np.ndarray
    facings: np.ndarray
    present: np.ndarray
    activity: np.ndarray | None = None  # (T,) uint8 codes, see ACTIVITY_CODES
    source_path: str | None = field(default=None, compare=False)

    def __post_init__(self):
        self.validate()

    # -- invariants ------------------------------------------------------

    def validate(self) -> None:
        n = len(self.roster)
        t = self.positions.shape[0]
        if self.positions.shape != (t, n, 2) or self.facings.shape != (t, n, 2):
            raise ValidationError(
                f"positions/facings must be (T, {n}, 2); got "
                f"{self.positions.shape} and {self.facings.shape}"
            )
        if self.present.shape != (t, n):
            raise ValidationError(f"present must be (T, {n}); got {self.present.shape}")
        if not self.room_area_m2 > 0:
            raise ValidationError(f"room_area_m2 must be > 0, got {self.room_area_m2}")
        ids = [p.person_id for p in self.roster]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate person_id in roster")
        if self.activity is not None and self.activity.shape != (t,):
            raise ValidationError(f"activity must be (T,); got {self.activity.shape}")
        if self.present.any():
            pos_ok = np.isfinite(self.positions).all(axis=2)
            if not pos_ok[self.present].all():
                raise ValidationError("present person with non-finite position")
            norms = np.linalg.norm(self.facings, axis=2)
            bad = self.present & ~np.isclose(norms, 1.0, rtol=0, atol=1e-6)
            if bad.any():
                t_bad, k_bad = np.argwhere(bad)[0]
                raise ValidationError(
                    f"facing of {ids[k_bad]} at t={t_bad} is not unit norm "
                    f"(|f| = {norms[t_bad, k_bad]})"
                )

    # -- accessors -------------------------------------------------------

    @property
    def session_length_s(self) -> int:
        return self.positions.shape[0]

    @property
    def n_people(self) -> int:
        return len(self.roster)

    @property
    def person_ids(self) -> tuple[str, ...]:
        return tuple(p.person_id for p in self.roster)

    def index_of(self, person_id: str) -> int:
        for k, p in enumerate(self.roster):
            if p.person_id == person_id:
                return k
        raise KeyError(person_id)

    def frame(self, t: int) -> TrajectoryFrame:
        return TrajectoryFrame(
            t=t,
            positions=self.positions[t],
            facings=self.facings[t],
            present=self.present[t],
        )

    def subset(self, indices) -> "Observation":
        """New Observation keeping only the given roster indices (in roster order)."""
        indices = sorted(indices)
        return Observation(
            class_id=self.class_id,
            roster=tuple(self.roster[k] for k in indices),
            room_area_m2=self.room_area_m2,
            positions=self.positions[:, indices],  # fancy indexing copies
            facings=self.facings[:, indices],
            present=self.present[:, indices],
            activity=None if self.activity is None else self.activity.copy(),
            source_path=self.source_path,
        )


ACTIVITY_CODES = {Activity.UNSTRUCTURED: 0, Activity.STRUCTURED: 1}
ACTIVITY_NAMES = {v: k for k, v in ACTIVITY_CODES.items()}


# ---------------------------------------------------------------------------
# tag fusion
# ---------------------------------------------------------------------------

def _rot90_ccw(v: np.ndarray) -> np.ndarray:
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def fuse_tags(left: list[TagSample], right: list[TagSample]) -> FusedTrack:
    """Fuse a person's left/right tag streams into centroid + facing samples.

    Samples are paired mutually-nearest in time within PAIRING_WINDOW_S; each
    pair yields one fused sample at the mean of the two timestamps.  Facing
    is the left-to-right vector rotated 90 degrees counter-clockwise.  When
    the tags coincide (sensor glitch) the previous pair's facing is carried
    forward (the following pair's, at the start of a track).
    """
    if not left or not right:
        raise EmptyTrack("both tag streams must be non-empty")
    pid = left[0].person_id
    for s in left:
        if s.person_id != pid:
            raise ValidationError(f"mixed person_ids in left stream: {pid} vs {s.person_id}")
    for s in right:
        if s.person_id != pid:
            raise ValidationError(f"mixed person_ids in right stream: {pid} vs {s.person_id}")
    lt = np.array([s.t for s in left], dtype=float)
    rt = np.array([s.t for s in right], dtype=float)
    if np.any(np.diff(lt) < 0) or np.any(np.diff(rt) < 0):
        raise ValidationError("tag streams must be time-sorted")
    lxy = np.array([[s.x, s.y] for s in left], dtype=float)
    rxy = np.array([[s.x, s.y] for s in right], dtype=float)

    # Mutual nearest-neighbour pairing within the window, each sample used once.
    nearest_r = np.clip(np.searchsorted(rt, lt), 1, len(rt)) - 1
    take_next = (nearest_r + 1 < len(rt)) & (
        np.abs(rt[np.minimum(nearest_r + 1, len(rt) - 1)] - lt) < np.abs(rt[nearest_r] - lt)
    )
    nearest_r = nearest_r + take_next

    pairs: list[tuple[int, int]] = []
    used_r: set[int] = set()
    for li in range(len(lt)):
        ri = int(nearest_r[li])
        if ri in used_r or abs(rt[ri] - lt[li]) > PAIRING_WINDOW_S:
            continue
        # mutual: no other left sample is closer to this right sample
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
    # degenerate pairs: carry previous facing, else backfill from the next
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


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def _angles(v: np.ndarray) -> np.ndarray:
    return np.arctan2(v[..., 1], v[..., 0])


def resample(track: FusedTrack, grid: np.ndarray | None = None) -> UniformTrack:
    """Resample an irregular track onto integer seconds.

    Positions are linearly interpolated; facing angles are interpolated along
    the shortest arc and renormalized.  Grid points that land exactly on a
    sample copy it bitwise, so a track already on the grid round-trips
    unchanged.  Grid points outside the sampled span, or inside a gap longer
    than MAX_GAP_S, are marked absent.
    """
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


# ---------------------------------------------------------------------------
# sidecar metadata
# ---------------------------------------------------------------------------

def default_meta_path(csv_path: str | Path) -> Path:
    p = Path(csv_path)
    return p.with_suffix(".meta.json")


def _load_sidecar(meta_path: Path) -> dict:
    if not meta_path.exists():
        raise ValidationError(f"metadata sidecar not found: {meta_path}")
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON in {meta_path}: {e}") from e
    if "room_area_m2" not in meta:
        raise SchemaError(f"{meta_path} missing required key room_area_m2")
    if not isinstance(meta["room_area_m2"], (int, float)) or meta["room_area_m2"] <= 0:
        raise ValidationError(f"room_area_m2 must be a positive number, got {meta['room_area_m2']!r}")
    return meta


def _roster_from_sidecar(meta: dict) -> tuple[Person, ...] | None:
    if "roster" not in meta:
        return None
    out = []
    for entry in meta["roster"]:
        try:
            out.append(Person(entry["person_id"], Role(entry["role"])))
        except (KeyError, ValueError) as e:
            raise SchemaError(f"bad roster entry {entry!r}: {e}") from e
    return tuple(out)


def _activity_from_sidecar(meta: dict, t_total: int) -> np.ndarray | None:
    if not meta.get("activity"):
        return None
    out = np.zeros(t_total, dtype=np.uint8)
    covered = np.zeros(t_total, dtype=bool)
    for iv in meta["activity"]:
        try:
            a, b = int(iv["start_s"]), int(iv["end_s"])
            label = Activity(iv["label"])
        except (KeyError, ValueError) as e:
            raise SchemaError(f"bad activity interval {iv!r}: {e}") from e
        a, b = max(a, 0), min(b, t_total)
        out[a:b] = ACTIVITY_CODES[label]
        covered[a:b] = True
    return out if covered.any() else None


def _write_sidecar(obs: Observation, meta_path: Path) -> None:
    meta: dict = {
        "class_id": obs.class_id,
        "room_area_m2": obs.room_area_m2,
        "roster": [{"person_id": p.person_id, "role": p.role.value} for p in obs.roster],
    }
    if obs.activity is not None:
        intervals = []
        t = 0
        total = len(obs.activity)
        while t < total:
            code = obs.activity[t]
            end = t + 1
            while end < total and obs.activity[end] == code:
                end += 1
            intervals.append(
                {"start_s": t, "end_s": end, "label": ACTIVITY_NAMES[int(code)].value}
            )
            t = end
        meta["activity"] = intervals
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# fused CSV
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def save_observation(obs: Observation, csv_path: str | Path, meta_path: str | Path | None = None) -> None:
    """Write an Observation as fused CSV plus its JSON sidecar."""
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


def _parse_float(text: str, what: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{what} is not a number: {text!r}", line=line) from None


def _read_rows(csv_path: Path, expected_header: list[str]):
    try:
        fh = open(csv_path, encoding="utf-8", newline="")
    except OSError as e:
        raise ParseError(f"cannot open {csv_path}: {e}") from e
    with fh:
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


def _load_fused(csv_path: Path, meta: dict) -> Observation:
    roster = _roster_from_sidecar(meta)
    rows = []
    seen_people: dict[str, Role] = {}
    for line_no, row in _read_rows(csv_path, FUSED_HEADER):
        t_txt, pid, role_txt, present_txt = row[0], row[1], row[2], row[3]
        t = _parse_float(t_txt, "t_s", line_no)
        if t != int(t) or t < 0:
            raise ValidationError(f"line {line_no}: fused t_s must be a non-negative integer, got {t_txt}")
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
        rows.append((int(t), pid, role, present_txt == "1", vals))

    if roster is None:
        roster = tuple(Person(pid, role) for pid, role in seen_people.items())
    ids = [p.person_id for p in roster]
    index = {pid: k for k, pid in enumerate(ids)}
    roles = {p.person_id: p.role for p in roster}
    for pid, role in seen_people.items():
        if pid not in index:
            raise ValidationError(f"person {pid} in frames but not in roster")
        if roles[pid] != role:
            raise ValidationError(
                f"person {pid} is {role.value} in frames but {roles[pid].value} in roster"
            )

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
    for t, pid, _role, is_present, vals in rows:
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
        raise ValidationError(f"missing row for person {ids[k]} at t={ti + t0}")

    return Observation(
        class_id=str(meta.get("class_id", csv_path.stem)),
        roster=roster,
        room_area_m2=float(meta["room_area_m2"]),
        positions=positions,
        facings=facings,
        present=present,
        activity=_activity_from_sidecar(meta, t_total),
        source_path=str(csv_path),
    )


# ---------------------------------------------------------------------------
# raw-tag CSV
# ---------------------------------------------------------------------------

def _load_raw(csv_path: Path, meta: dict) -> Observation:
    roster = _roster_from_sidecar(meta)
    streams: dict[str, dict[Side, list[TagSample]]] = {}
    seen_people: dict[str, Role] = {}
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
        streams.setdefault(pid, {Side.LEFT: [], Side.RIGHT: []})[side].append(
            TagSample(t=t, person_id=pid, side=side, x=x, y=y)
        )

    if roster is None:
        roster = tuple(Person(pid, role) for pid, role in seen_people.items())
    index = {p.person_id: k for k, p in enumerate(roster)}
    roles = {p.person_id: p.role for p in roster}
    for pid, role in seen_people.items():
        if pid not in index:
            raise ValidationError(f"person {pid} in tag rows but not in roster")
        if roles[pid] != role:
            raise ValidationError(
                f"person {pid} is {role.value} in tag rows but {roles[pid].value} in roster"
            )

    fused: dict[str, FusedTrack] = {}
    for pid, sides in streams.items():
        for side in (Side.LEFT, Side.RIGHT):
            sides[side].sort(key=lambda s: s.t)
        fused[pid] = fuse_tags(sides[Side.LEFT], sides[Side.RIGHT])

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
        u = resample(track, grid)
        positions[:, k] = u.pos
        facings[:, k] = u.facing
        present[:, k] = u.present

    return Observation(
        class_id=str(meta.get("class_id", csv_path.stem)),
        roster=roster,
        room_area_m2=float(meta["room_area_m2"]),
        positions=positions,
        facings=facings,
        present=present,
        activity=_activity_from_sidecar(meta, len(grid)),
        source_path=str(csv_path),
    )


def load_observation(
    path: str | Path,
    fmt: TrackFormat = TrackFormat.FUSED,
    meta_path: str | Path | None = None,
) -> Observation:
    """Load an observation file (fused or raw-tag CSV) plus its sidecar."""
    path = Path(path)
    meta = _load_sidecar(Path(meta_path) if meta_path is not None else default_meta_path(path))
    if fmt == TrackFormat.FUSED:
        return _load_fused(path, meta)
    return _load_raw(path, meta)
