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
Sidecar       JSON object next to the CSV (``<name>.meta.json``) carrying class_id,
              room_area_m2, optional roster, optional activity intervals
              ``[{start_s, end_s, label}]``.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .columnar import Column, lookup_codes, parse_floats, raise_first, read_columns
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

#: Largest |x| or |y| of a present position or a raw tag sample, in meters.
#: No room comes near it, and below it the kernel's squared distances and
#: the fused facing norms cannot overflow.
MAX_COORD_M = 1e6

#: Raw tag times must lie below this many seconds: a session is at most one
#: day (``scenario.build_calendar``), and the 1 Hz grid a raw file is
#: resampled onto runs from 0 to its last tag time.
MAX_T_S = 86400.0

#: (second, person) cells ``Observation.validate`` checks at a time.
_VALIDATE_CELLS = 1 << 14

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

    def __post_init__(self):
        self.validate()

    # -- invariants ------------------------------------------------------

    def validate(self) -> None:
        """Check the structure, then every present position, then every
        present facing, a time chunk at a time so that the temporaries stay
        small next to the arrays."""
        self._validate_structure()
        if not self.present.any():
            return
        step = max(1, _VALIDATE_CELLS // self.n_people)
        chunks = range(0, self.session_length_s, step)
        for a in chunks:
            present = self.present[a:a + step]
            if not (np.abs(self.positions[a:a + step]) <= MAX_COORD_M)[present].all():  # NaN fails too
                raise ValidationError(f"a present position is not finite or beyond {MAX_COORD_M:g} m")
        for a in chunks:
            with np.errstate(over="ignore"):  # a component near 1e308 gives |f| = inf
                norms = np.linalg.norm(self.facings[a:a + step], axis=2)
            bad = self.present[a:a + step] & ~np.isclose(norms, 1.0, rtol=0, atol=1e-6)
            if bad.any():
                t_bad, k_bad = np.argwhere(bad)[0]
                raise ValidationError(
                    f"facing of {self.person_ids[k_bad]} at t={a + t_bad} is not unit norm "
                    f"(|f| = {norms[t_bad, k_bad]})"
                )

    def _validate_structure(self) -> None:
        """Shapes, room area, unique ids and activity length."""
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

    def subset(self, indices) -> "Observation":
        """New Observation keeping only the given roster indices (in roster order)."""
        indices = np.sort(np.asarray(indices, dtype=np.intp))
        # Whole columns of a valid observation keep its per-element
        # invariants, so only the structure is checked again.
        sub = copy.copy(self)
        sub.roster = tuple(self.roster[k] for k in indices)
        sub.positions = np.take(self.positions, indices, axis=1)  # copies
        sub.facings = np.take(self.facings, indices, axis=1)
        sub.present = np.take(self.present, indices, axis=1)
        sub.activity = None if self.activity is None else self.activity.copy()
        sub._validate_structure()
        return sub


ACTIVITY_CODES = {Activity.UNSTRUCTURED: 0, Activity.STRUCTURED: 1}
ACTIVITY_NAMES = {v: k for k, v in ACTIVITY_CODES.items()}


# ---------------------------------------------------------------------------
# tag fusion
# ---------------------------------------------------------------------------

def _rot90_ccw(v: np.ndarray) -> np.ndarray:
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def fuse_tags(pid: str, lt: np.ndarray, lxy: np.ndarray, rt: np.ndarray, rxy: np.ndarray) -> FusedTrack:
    """Fuse one person's left/right tag streams into centroid + facing samples.

    Each side is its sample times ``lt``/``rt`` (K,) in time order and its
    coordinates ``lxy``/``rxy`` (K, 2).  Samples are paired mutually-nearest
    in time within PAIRING_WINDOW_S; each pair yields one fused sample at the
    mean of the two timestamps.  Facing is the left-to-right vector rotated
    90 degrees counter-clockwise.  When the tags coincide (sensor glitch) the
    previous pair's facing is carried forward (the following pair's, at the
    start of a track).
    """
    lt, lxy, rt, rxy = (np.asarray(a, dtype=float) for a in (lt, lxy, rt, rxy))
    if not len(lt) or not len(rt):
        raise EmptyTrack("both tag streams must be non-empty")
    if lxy.shape != (len(lt), 2) or rxy.shape != (len(rt), 2):
        raise ValidationError(
            f"tag coordinates for {pid} must be (K, 2) with one row per time; "
            f"got {lxy.shape} and {rxy.shape} for {len(lt)} and {len(rt)} times"
        )
    if not (np.isfinite(lt).all() and np.isfinite(rt).all()):
        raise ValidationError(f"tag sample times for {pid} must be finite")
    if np.any(np.diff(lt) < 0) or np.any(np.diff(rt) < 0):
        raise ValidationError("tag streams must be time-sorted")

    # Mutual nearest-neighbour pairing within the window, each sample used once.
    nearest_r = np.clip(np.searchsorted(rt, lt), 1, len(rt)) - 1
    take_next = (nearest_r + 1 < len(rt)) & (
        np.abs(rt[np.minimum(nearest_r + 1, len(rt) - 1)] - lt) < np.abs(rt[nearest_r] - lt)
    )
    nearest_r = nearest_r + take_next
    gap = np.abs(lt - rt[nearest_r])
    # mutual: no left sample is closer to rt[ri]; for sorted lt the closest
    # one is a neighbour of rt[ri]'s insertion point
    above = np.searchsorted(lt, rt[nearest_r])
    closest = np.minimum(
        np.abs(lt[np.maximum(above - 1, 0)] - rt[nearest_r]),
        np.abs(lt[np.minimum(above, len(lt) - 1)] - rt[nearest_r]),
    )
    ok_li = np.flatnonzero(~(gap > PAIRING_WINDOW_S) & ~(closest < gap - 1e-12))
    # each right sample goes to the first left sample that passes
    _, first = np.unique(nearest_r[ok_li], return_index=True)
    li = ok_li[np.sort(first)]
    ri = nearest_r[li]
    if not len(li):
        raise EmptyTrack(f"no left/right pairs within {PAIRING_WINDOW_S} s for {pid}")

    t_out = (lt[li] + rt[ri]) / 2.0
    pos = (lxy[li] + rxy[ri]) / 2.0
    l2r = rxy[ri] - lxy[li]
    norms = np.linalg.norm(l2r, axis=1)
    facing = np.full_like(pos, np.nan)
    ok = norms > 1e-9
    facing[ok] = _rot90_ccw(l2r[ok]) / norms[ok, None]
    # degenerate pairs: carry the previous pair's facing, else backfill from the next
    k = np.arange(len(facing))
    prev = np.maximum.accumulate(np.where(ok, k, -1))
    carry = ~ok & (prev >= 0)
    facing[carry] = facing[prev[carry]]
    defined = np.isfinite(facing).all(axis=1)
    nxt = np.minimum.accumulate(np.where(defined, k, len(k))[::-1])[::-1]
    back = ~defined & (nxt < len(k))
    facing[back] = facing[nxt[back]]
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

    pos = np.full((len(grid), 2), np.nan)
    fac = np.full((len(grid), 2), np.nan)
    right = np.searchsorted(t, grid)          # first sample index >= grid point
    knot = t[np.minimum(right, len(t) - 1)] == grid   # exact knot: copy bitwise
    # strictly inside the sampled span, in a gap no longer than MAX_GAP_S
    inside = ~knot & (right > 0) & (right < len(t))
    inside[inside] = ~(np.diff(t)[right[inside] - 1] > MAX_GAP_S)
    pos[knot] = track.pos[right[knot]]
    fac[knot] = track.facing[right[knot]]

    k = right[inside]
    t0, t1 = t[k - 1], t[k]
    w = (grid[inside] - t0) / (t1 - t0)
    pos[inside] = (1.0 - w)[:, None] * track.pos[k - 1] + w[:, None] * track.pos[k]
    ang = _angles(track.facing)
    da = ang[k] - ang[k - 1]
    da = (da + math.pi) % (2.0 * math.pi) - math.pi   # shortest arc
    a = (ang[k - 1] + w * da).tolist()
    # math.cos/sin, not numpy's: the two may differ in the last bit
    fac[inside, 0] = np.fromiter(map(math.cos, a), float, len(a))
    fac[inside, 1] = np.fromiter(map(math.sin, a), float, len(a))
    present = knot | inside
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
    except UnicodeDecodeError as e:
        raise ParseError(f"{meta_path} is not valid UTF-8 text ({e.reason})") from None
    if not isinstance(meta, dict):
        raise SchemaError(f"{meta_path} must hold a JSON object, got {meta!r}")
    if "room_area_m2" not in meta:
        raise SchemaError(f"{meta_path} missing required key room_area_m2")
    area = meta["room_area_m2"]
    if not (_is_finite_number(area) and area > 0):
        raise ValidationError(f"room_area_m2 must be a finite positive number, got {area!r}")
    if not (isinstance(meta.get("roster", []), list)
            and isinstance(meta.get("activity"), (list, type(None)))):
        raise SchemaError(f"{meta_path}: roster must be a list, activity a list or null")
    return meta


def _is_finite_number(value) -> bool:
    """True for a JSON number that is a finite float; true/false is none."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _roster_from_sidecar(meta: dict) -> tuple[Person, ...] | None:
    if "roster" not in meta:
        return None
    out = []
    for entry in meta["roster"]:
        try:
            if not isinstance(entry["person_id"], str):
                raise ValueError("person_id must be a string")
            out.append(Person(entry["person_id"], Role(entry["role"])))
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"bad roster entry {entry!r}: {e}") from e
    return tuple(out)


def _activity_from_sidecar(meta: dict, t_total: int) -> np.ndarray | None:
    if not meta.get("activity"):
        return None
    out = np.zeros(t_total, dtype=np.uint8)
    covered = np.zeros(t_total, dtype=bool)
    for iv in meta["activity"]:
        try:
            if not all(_is_finite_number(iv[key]) for key in ("start_s", "end_s")):
                raise ValueError("start_s and end_s must be finite numbers")
            # second t is labelled iff start_s <= t < end_s
            a, b = math.ceil(iv["start_s"]), math.ceil(iv["end_s"])
            label = Activity(iv["label"])
        except (KeyError, TypeError, ValueError) as e:
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

def _quoted_prefix(person: Person) -> str:
    """``person_id,role,`` quoted as ``csv.writer`` quotes them inside a row."""
    buf = io.StringIO()  # a CR LF terminator makes the writer quote a lone CR too
    csv.writer(buf, lineterminator="\r\n").writerow([person.person_id, person.role.value, ""])
    return buf.getvalue()[:-2]


def save_observation(obs: Observation, csv_path: str | Path, meta_path: str | Path | None = None) -> None:
    """Write an Observation as fused CSV plus its JSON sidecar.

    Rows are the bytes ``csv.writer`` would write: person_id and role are
    csv-quoted once per person, and each coordinate is its float ``repr``.
    A person_id holding a carriage return is quoted too, so it loads back.
    One second of rows is written at a time.
    """
    csv_path = Path(csv_path)
    meta_path = Path(meta_path) if meta_path is not None else default_meta_path(csv_path)
    prefixes = [_quoted_prefix(person) for person in obs.roster]
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(FUSED_HEADER) + "\n")
        for t in range(obs.session_length_s):
            coords = np.concatenate((obs.positions[t], obs.facings[t]), axis=1, dtype=float).tolist()
            fh.write("".join(
                f"{t},{prefix}1,{x!r},{y!r},{fx!r},{fy!r}\n" if present
                else f"{t},{prefix}0,,,,\n"
                for prefix, present, (x, y, fx, fy)
                in zip(prefixes, obs.present[t].tolist(), coords)
            ))
    _write_sidecar(obs, meta_path)


_ROLES = tuple(Role)
_ROLE_CODES = {role.value: code for code, role in enumerate(_ROLES)}
_SIDES = tuple(Side)
_SIDE_CODES = {side.value: code for code, side in enumerate(_SIDES)}


class _People:
    """person_id -> column in first-seen order, with each person's first role."""

    def __init__(self):
        self.index: dict[str, int] = {}
        self.first_role: list[int] = []

    def codes(self, ids: np.ndarray, roles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each row's person code and whether its role differs from that person's first."""
        known = len(self.index)
        for pid in dict.fromkeys(ids):
            self.index.setdefault(pid, len(self.index))
        who = np.fromiter(map(self.index.__getitem__, ids), np.intp, len(ids))
        new = np.flatnonzero(who >= known)
        _, first = np.unique(who[new], return_index=True)
        self.first_role.extend(roles[new[first]].tolist())
        return who, roles != np.asarray(self.first_role, dtype=np.int8)[who]

    def check_roster(self, roster: tuple[Person, ...] | None, where: str):
        """The roster (first-seen people when ``roster`` is None) and each person's column."""
        seen = [(pid, _ROLES[code]) for pid, code in zip(self.index, self.first_role)]
        if roster is None:
            roster = tuple(Person(pid, role) for pid, role in seen)
        index = {p.person_id: k for k, p in enumerate(roster)}
        roles = {p.person_id: p.role for p in roster}
        for pid, role in seen:
            if pid not in index:
                raise ValidationError(f"person {pid} in {where} but not in roster")
            if roles[pid] != role:
                raise ValidationError(
                    f"person {pid} is {role.value} in {where} but {roles[pid].value} in roster"
                )
        return roster, np.array([index[pid] for pid, _ in seen], dtype=np.intp)


class _FusedOrder:
    """Where each fused row falls on the (T, N) grid, held as arithmetic
    while the rows arrive in grid order and as columns once they do not.

    Grid order is second by second, each second's rows in roster order, as
    ``save_observation`` writes every file classim produces: row r is second
    ``t0 + r // n`` and person code ``r % n``, with t0 the first row's second
    and n the people of that second in first-seen order.  Until a row of a
    later second arrives, n is open and row r must be code r.  The first
    block that breaks the order starts the ``t_s`` and person-code columns:
    the rows before it are rebuilt from that arithmetic, which the check has
    just proved exact, and every later row is appended as it is.
    """

    def __init__(self):
        self.t0 = 0.0
        self.rows = 0
        self.per_second = 0  # n, once a row of a second past t0 has arrived
        self.columns: tuple[Column, Column] | None = None

    def extend(self, t: np.ndarray, who: np.ndarray, expected: int) -> None:
        """Take a block's checked t_s and person codes."""
        if self.columns is None and not self._continues(t, who):
            self.columns = Column(float), Column(np.intp)
            for column, values in zip(self.columns, self._grid_rows()):
                column.extend(values, expected)
        if self.columns is not None:
            for column, values in zip(self.columns, (t, who)):
                column.extend(values, expected)
        self.rows += len(t)

    def _continues(self, t: np.ndarray, who: np.ndarray) -> bool:
        if not self.rows:
            self.t0 = t[0]
        r = np.arange(self.rows, self.rows + len(t))
        n = self.per_second
        if not n:
            later = np.flatnonzero(t != self.t0)
            if not len(later):
                return bool((who == r).all())
            n = self.rows + int(later[0])
        # integral t_s: a difference equals a small integer only when exact
        if (who == r % n).all() and (t - self.t0 == r // n).all():
            self.per_second = n
            return True
        return False

    def _grid_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """t_s and person code of the rows so far, all in grid order."""
        r = np.arange(self.rows, dtype=np.intp)
        n = self.per_second or max(self.rows, 1)
        return self.t0 + r // n, r % n

    def cells(self, roster: tuple[Person, ...], column: np.ndarray):
        """T and each row's flat (second, roster column) cell, checked by
        ``_fused_cells``; the cells are None when the rows are in grid order
        and the people of their first second are the roster, in its order."""
        n = len(roster)
        if self.columns is None:
            if not self.rows:
                return 0, None
            if ((self.per_second or self.rows) == n and not self.rows % n
                    and (column == np.arange(n)).all()):
                return self.rows // n, None
            t, who = self._grid_rows()
        else:
            t, who = (c.array() for c in self.columns)
        return _fused_cells(t, who, roster, column)


def _fused_rows(csv_path: Path, people: _People):
    """Check every record of a fused CSV; return where its rows fall on the
    grid (a ``_FusedOrder``), and presence, position and facing as arrays in
    file order, the coordinates NaN where a row is absent.

    No per-row ``t_s`` or person code is kept while the rows arrive in grid
    order, so such rows become the grid as they are (see ``_fused_grid``):
    the coordinates are kept as two (rows, 2) columns."""
    order = _FusedOrder()
    columns = Column(bool), Column(float, 2), Column(float, 2)
    for lines, cols, expected in read_columns(csv_path, FUSED_HEADER):
        t_txt, pid, role_txt, present_txt, *coord_txt = cols
        t, t_nan = parse_floats(t_txt)
        role = lookup_codes(role_txt, _ROLE_CODES)
        is_present = present_txt == "1"
        who, role_changed = people.codes(pid, role)
        coords = np.full((len(lines), 4), np.nan)
        coord_bad = []
        for j in range(4):
            values, bad = parse_floats(coord_txt[j][is_present])
            coords[is_present, j] = values
            coord_bad.append(np.zeros(len(lines), bool))
            coord_bad[j][is_present] = bad
        with np.errstate(invalid="ignore"):
            t_bad = ~(np.isfinite(t) & (t >= 0) & (np.floor(t) == t))
        raise_first(lines, [
            (t_nan, ParseError, "t_s is not a number: {!r}", t_txt),
            (t_bad, ValidationError,
             "line {line}: fused t_s must be a non-negative integer, got {}", t_txt),
            (role < 0, ParseError, "unknown role {!r}", role_txt),
            (~is_present & (present_txt != "0"), ParseError,
             "present must be 0 or 1, got {!r}", present_txt),
            (role_changed, ValidationError, "line {line}: person {} changes role", pid),
            *[(coord_bad[j], ParseError, FUSED_HEADER[4 + j] + " is not a number: {!r}",
               coord_txt[j]) for j in range(4)],
        ])
        order.extend(t, who, expected)
        for column, values in zip(columns, (is_present, coords[:, :2], coords[:, 2:])):
            column.extend(values, expected)
    return order, *(column.array() for column in columns)


def _fused_cells(t, who, roster, column):
    """Check that fused rows out of grid order fill the (T, N) grid once
    each; return T and each row's flat (second, roster column) cell."""
    n = len(roster)
    seconds = np.unique(t)
    t_total = len(seconds)
    if t_total and seconds[-1] - seconds[0] + 1 != t_total:
        raise ValidationError("frame seconds are not consecutive")
    t0 = seconds[0] if t_total else 0.0
    cell = (t - t0).astype(np.intp) * n + column[who]  # each row's flat (second, person) index
    filled = np.bincount(cell, minlength=t_total * n)
    if filled.max(initial=0) > 1:
        order = np.argsort(cell, kind="stable")
        r = order[1:][cell[order][1:] == cell[order][:-1]].min()
        raise ValidationError(
            f"duplicate row for person {roster[cell[r] % n].person_id} at t={int(t[r])}"
        )
    if t_total and not filled.all():
        ti, k = divmod(int(np.argmin(filled)), n)
        raise ValidationError(f"missing row for person {roster[k].person_id} at t={ti + int(t0)}")
    return t_total, cell


def _fused_grid(t_total: int, n: int, cell, present, positions, facings):
    """The (T, N, 2) positions and facings and (T, N) presence of fused rows.

    Rows in grid order (``cell`` None) already are the grid: their columns
    are returned reshaped, without a copy.  Rows in any other order fill
    each cell once (``_fused_cells``) and are scattered onto a new grid.
    """
    if cell is not None:
        grid = []
        for values in (positions, facings, present):
            placed = np.empty_like(values)
            placed[cell] = values
            grid.append(placed)
        positions, facings, present = grid
    return (positions.reshape(t_total, n, 2), facings.reshape(t_total, n, 2),
            present.reshape(t_total, n))


def _read_fused(csv_path: Path, roster: tuple[Person, ...] | None):
    """The roster and the (T, N) positions, facings and presence of a fused CSV."""
    people = _People()
    order, present, positions, facings = _fused_rows(csv_path, people)
    roster, column = people.check_roster(roster, "frames")
    t_total, cell = order.cells(roster, column)
    del order  # checked; the grid needs no t_s or person code
    return (roster, *_fused_grid(t_total, len(roster), cell, present, positions, facings))


# ---------------------------------------------------------------------------
# raw-tag CSV
# ---------------------------------------------------------------------------

def _raw_rows(csv_path: Path, people: _People):
    """Check every record of a raw-tag CSV; return t_s, person code, side, x and y
    as arrays, and the rows of each (person, side) stream at person code * 2 + side."""
    columns = Column(float), Column(np.intp), Column(np.int8), Column(float), Column(float)
    streams = np.zeros(0, np.intp)
    for lines, cols, expected in read_columns(csv_path, RAW_HEADER):
        t_txt, pid, role_txt, side_txt, x_txt, y_txt = cols
        t, t_nan = parse_floats(t_txt)
        role = lookup_codes(role_txt, _ROLE_CODES)
        side = lookup_codes(side_txt, _SIDE_CODES)
        who, role_changed = people.codes(pid, role)
        x, x_nan = parse_floats(x_txt)
        y, y_nan = parse_floats(y_txt)
        with np.errstate(invalid="ignore"):
            raise_first(lines, [
                (t_nan, ParseError, "t_s is not a number: {!r}", t_txt),
                (role < 0, ParseError, "unknown role {!r}", role_txt),
                (side < 0, ParseError, "side must be L or R, got {!r}", side_txt),
                (role_changed, ValidationError, "line {line}: person {} changes role", pid),
                (x_nan, ParseError, "x_m is not a number: {!r}", x_txt),
                (y_nan, ParseError, "y_m is not a number: {!r}", y_txt),
                (t < 0, ValidationError, "tag sample time must be >= 0, got {}", t),
                (~((np.abs(x) <= MAX_COORD_M) & (np.abs(y) <= MAX_COORD_M)), ValidationError,
                 f"tag coordinates ({{}}, {{}}) are not finite or beyond {MAX_COORD_M:g} m", x, y),
                (~(t < MAX_T_S), ValidationError,
                 f"line {{line}}: t_s must be a finite number below {MAX_T_S:g} s, got {{}}", t_txt),
            ])
        for column, values in zip(columns, (t, who, side, x, y)):
            column.extend(values, expected)
        in_block = np.bincount(who * 2 + side, minlength=2 * len(people.index))
        in_block[:len(streams)] += streams
        streams = in_block
    return [column.array() for column in columns], streams


def _read_raw(csv_path: Path, roster: tuple[Person, ...] | None):
    """The roster and the (T, N) positions, facings and presence of a raw-tag
    CSV: each person's tags fused, then resampled onto the 1 Hz grid.

    One sort puts the rows in stream order (person, side, then time; equal
    times keep file order), and each stream is a slice of the sorted t_s, x
    and y, as long as the rows counted for it while they arrived.  The sort
    order and the row columns are freed before resampling, which holds only
    the fused tracks and the grid.
    """
    people = _People()
    (t, who, side, x, y), streams = _raw_rows(csv_path, people)
    roster, column = people.check_roster(roster, "tag rows")
    if not len(t):
        raise EmptyTrack(f"{csv_path} contains no tag samples")
    order = np.lexsort((t, side, who))
    del who, side
    t = t[order]  # one column at a time: a gather's copy is the only extra one
    x = x[order]
    y = y[order]
    del order
    bounds = np.concatenate(([0], np.cumsum(streams))).tolist()
    fused: dict[str, FusedTrack] = {}
    for code, pid in enumerate(people.index):
        lo, mid, hi = bounds[2 * code:2 * code + 3]
        fused[pid] = fuse_tags(pid, t[lo:mid], np.column_stack((x[lo:mid], y[lo:mid])),
                               t[mid:hi], np.column_stack((x[mid:hi], y[mid:hi])))
    del t, x, y

    t_max = max(track.t[-1] for track in fused.values())
    grid = np.arange(0, math.floor(t_max) + 1, dtype=float)

    n = len(roster)
    positions = np.full((len(grid), n, 2), np.nan)
    facings = np.full((len(grid), n, 2), np.nan)
    present = np.zeros((len(grid), n), dtype=bool)
    for code, track in enumerate(fused.values()):
        k = column[code]
        u = resample(track, grid)
        positions[:, k] = u.pos
        facings[:, k] = u.facing
        present[:, k] = u.present
    return roster, positions, facings, present


def load_observation(
    path: str | Path,
    fmt: TrackFormat = TrackFormat.FUSED,
    meta_path: str | Path | None = None,
) -> Observation:
    """Load an observation file (fused or raw-tag CSV) plus its sidecar."""
    path = Path(path)
    meta = _load_sidecar(Path(meta_path) if meta_path is not None else default_meta_path(path))
    read = _read_fused if fmt == TrackFormat.FUSED else _read_raw
    roster, positions, facings, present = read(path, _roster_from_sidecar(meta))
    return Observation(
        class_id=str(meta.get("class_id", path.stem)),
        roster=roster,
        room_area_m2=float(meta["room_area_m2"]),
        positions=positions,
        facings=facings,
        present=present,
        activity=_activity_from_sidecar(meta, len(positions)),
    )
