"""Synthetic classroom observations for exercising the pipeline end to end.

Two movement regimes mirror how classroom time divides in practice:

* unstructured (free play): random-waypoint motion — every agent walks to a
  uniformly drawn point at a uniformly drawn speed, facing its direction of
  travel, then picks the next waypoint;
* structured (table work): children sit in a ring around their table cluster
  facing its center, teachers stand at the cluster front, everyone wobbling
  with a small clipped Gaussian jitter.

Output is a regular Observation (all invariants hold, everyone present every
second) and is bitwise reproducible from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .trajectory import (
    ACTIVITY_CODES,
    MAX_COORD_M,
    Activity,
    Observation,
    Person,
    Role,
)

#: Children sit this far from their cluster center (well inside 1 m).
SEAT_RADIUS_M = 0.7
#: Teachers stand at the cluster front, this far from the center.
TEACHER_RADIUS_M = 1.2
#: Positional jitter while seated, clipped so nobody leaves the table zone.
JITTER_SIGMA_M = 0.1
JITTER_MAX_M = 0.35
#: Walls get this much clearance when laying out cluster centers.
CLUSTER_MARGIN_M = 2.0
#: Nominal children per table cluster.
CLUSTER_SEATS = 5


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs: room, roster, schedule, motion."""

    n_children: int = 12
    n_teachers: int = 3
    room_w: float = 8.0
    room_h: float = 8.0
    session_length_s: int = 3600
    schedule: tuple[tuple[int, int, Activity], ...] | None = None
    speed_min: float = 0.3
    speed_max: float = 1.2
    seed: int = 0
    class_id: str = "synthetic"

    def __post_init__(self):
        if self.n_children < 0 or self.n_teachers < 0:
            raise ConfigError("roster counts must be >= 0")
        if not (0 < self.room_w <= MAX_COORD_M and 0 < self.room_h <= MAX_COORD_M):
            raise ConfigError(
                f"room sides must be in (0, {MAX_COORD_M:g}] m, got {self.room_w} x {self.room_h}")
        if self.session_length_s < 0:
            raise ConfigError(f"session_length_s must be >= 0, got {self.session_length_s}")
        if not 0 < self.speed_min <= self.speed_max < math.inf:
            raise ConfigError(
                f"need 0 < speed_min <= speed_max < inf, got [{self.speed_min}, {self.speed_max}]"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.schedule is not None:
            self._check_schedule()

    def _check_schedule(self):
        ivs = sorted(self.schedule)
        cursor = 0
        for a, b, label in ivs:
            if not isinstance(label, Activity):
                raise ConfigError(f"bad regime label {label!r}")
            if a != cursor or b <= a:
                raise ConfigError(
                    f"schedule must tile [0, {self.session_length_s}) without "
                    f"gaps or overlap; interval ({a}, {b}) breaks at {cursor}"
                )
            cursor = b
        if cursor != self.session_length_s:
            raise ConfigError(
                f"schedule covers [0, {cursor}), session is {self.session_length_s} s"
            )

    def intervals(self) -> tuple[tuple[int, int, Activity], ...]:
        if self.schedule is not None:
            return tuple(sorted(self.schedule))
        if self.session_length_s == 0:
            return ()
        return ((0, self.session_length_s, Activity.UNSTRUCTURED),)


def _cluster_centers(cfg: SynthConfig, n_clusters: int) -> np.ndarray:
    """Cluster centers on a grid, keeping margin from the walls."""
    mx = min(CLUSTER_MARGIN_M, cfg.room_w / 2.0)
    my = min(CLUSTER_MARGIN_M, cfg.room_h / 2.0)
    cols = math.ceil(math.sqrt(n_clusters))
    rows = math.ceil(n_clusters / cols)
    xs = np.linspace(mx, cfg.room_w - mx, cols) if cols > 1 else np.array([cfg.room_w / 2.0])
    ys = np.linspace(my, cfg.room_h - my, rows) if rows > 1 else np.array([cfg.room_h / 2.0])
    centers = [(x, y) for y in ys for x in xs]
    return np.array(centers[:n_clusters])


@dataclass
class _Seating:
    cluster_of: np.ndarray   # (N,) cluster index per agent
    seat: np.ndarray         # (N, 2) assigned spot
    center: np.ndarray       # (N, 2) cluster center of each agent


def _make_seating(cfg: SynthConfig, roles: list[Role]) -> _Seating:
    n = len(roles)
    child_ids = [k for k, r in enumerate(roles) if r == Role.CHILD]
    teacher_ids = [k for k, r in enumerate(roles) if r == Role.TEACHER]
    n_clusters = max(1, math.ceil(len(child_ids) / CLUSTER_SEATS)) if child_ids else max(1, len(teacher_ids))
    centers = _cluster_centers(cfg, n_clusters)

    cluster_of = np.zeros(n, dtype=int)
    seat = np.zeros((n, 2))
    for i, k in enumerate(child_ids):
        c = i % n_clusters
        ring_pos = i // n_clusters
        seats_here = len(range(i % n_clusters, len(child_ids), n_clusters))
        ang = 2.0 * math.pi * ring_pos / max(1, seats_here)
        cluster_of[k] = c
        seat[k] = centers[c] + SEAT_RADIUS_M * np.array([math.cos(ang), math.sin(ang)])
    for i, k in enumerate(teacher_ids):
        c = i % n_clusters
        cluster_of[k] = c
        seat[k] = centers[c] + np.array([0.0, TEACHER_RADIUS_M])  # front of the table
    return _Seating(cluster_of=cluster_of, seat=seat, center=centers[cluster_of])


def generate(cfg: SynthConfig) -> Observation:
    """Deterministically generate one synthetic observation."""
    rng = np.random.default_rng(cfg.seed)
    roles = [Role.CHILD] * cfg.n_children + [Role.TEACHER] * cfg.n_teachers
    roster = tuple(
        Person(f"c{k + 1:02d}", Role.CHILD) for k in range(cfg.n_children)
    ) + tuple(
        Person(f"t{k + 1:02d}", Role.TEACHER) for k in range(cfg.n_teachers)
    )
    n = len(roster)
    t_total = cfg.session_length_s
    positions = np.full((t_total, n, 2), np.nan)
    facings = np.full((t_total, n, 2), np.nan)
    present = np.ones((t_total, n), dtype=bool)
    activity = np.zeros(t_total, dtype=np.uint8)
    seating = _make_seating(cfg, roles)
    intervals = cfg.intervals()

    # initial placement: seated if the session opens structured, else scattered
    if intervals and intervals[0][2] == Activity.STRUCTURED:
        pos = seating.seat.copy()
        fac = _toward(seating.center, pos)
    else:
        pos = rng.uniform((0.0, 0.0), (cfg.room_w, cfg.room_h), size=(n, 2))
        ang = rng.uniform(0.0, 2.0 * math.pi, size=n)
        fac = np.stack([np.cos(ang), np.sin(ang)], axis=1)

    lo = np.array([0.0, 0.0])
    hi = np.array([cfg.room_w, cfg.room_h])

    for start, end, regime in intervals:
        activity[start:end] = ACTIVITY_CODES[regime]
        free_play = regime == Activity.UNSTRUCTURED
        if free_play:
            target = rng.uniform(lo, hi, size=(n, 2))
        speed = rng.uniform(cfg.speed_min, cfg.speed_max, size=n)
        for t in range(start, end):
            if free_play:
                arrived = _walk(pos, fac, target, speed)
                if arrived.any():
                    pos[arrived] = target[arrived]
                    n_new = int(arrived.sum())
                    target[arrived] = rng.uniform(lo, hi, size=(n_new, 2))
                    speed[arrived] = rng.uniform(cfg.speed_min, cfg.speed_max, size=n_new)
            else:
                seated = _walk(pos, fac, seating.seat, speed)
                if seated.any():
                    n_seated = int(seated.sum())
                    jitter = rng.normal(0.0, JITTER_SIGMA_M, size=(n_seated, 2))
                    jn = np.linalg.norm(jitter, axis=1)
                    over = jn > JITTER_MAX_M
                    if over.any():
                        jitter[over] *= (JITTER_MAX_M / jn[over])[:, None]
                    pos[seated] = seating.seat[seated] + jitter
                    fac[seated] = _toward(seating.center[seated], pos[seated])
            np.clip(pos, lo, hi, out=pos)
            positions[t] = pos
            facings[t] = fac

    return Observation(
        class_id=cfg.class_id,
        roster=roster,
        room_area_m2=cfg.room_w * cfg.room_h,
        positions=positions,
        facings=facings,
        present=present,
        activity=activity if t_total else None,
    )


def _walk(pos: np.ndarray, fac: np.ndarray, goal: np.ndarray, speed: np.ndarray) -> np.ndarray:
    """Move everyone farther than their speed from ``goal`` one step toward it,
    facing the way they walk; return who is within reach."""
    step = goal - pos
    dist = np.linalg.norm(step, axis=1)
    walking = dist > speed
    if walking.any():
        d = step[walking] / dist[walking, None]
        pos[walking] += d * speed[walking, None]
        fac[walking] = d
    return ~walking


def _toward(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Unit vectors from src toward dst; +x where the two coincide."""
    d = dst - src
    norm = np.linalg.norm(d, axis=-1, keepdims=True)
    out = np.where(norm > 1e-12, d / np.maximum(norm, 1e-12), [1.0, 0.0])
    return out
