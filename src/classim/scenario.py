"""Scenario construction and the Monte Carlo sweep runner.

A scenario cell crosses classroom density (full / half) with teacher
vaccination (none / teachers).  One run seeds a single patient zero into a
(possibly halved, possibly vaccinated) roster and replays the observed
session every school day over the horizon, with 24 h between weekday
sessions and 72 h over the weekend; the same recording stands in for every
school day.

Sweeps iterate patient zero over the whole roster times a replicate count.
Each task's seed is derived by a stable 64-bit mix of (base_seed, patient
zero index, replicate), so results are independent of execution order and
worker count.  The same (patient zero, replicate) pair gets the same seed in
every scenario cell, but not the same random stream: one generator serves
the half-class draw, the vaccination draws, patient zero's clocks and every
transmission threshold in turn, so two cells' streams part at the first
draw one makes and the other does not (the half-class roster or the
vaccination flags).  Runs matched by seed across cells are therefore not
coupled.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from multiprocessing import Pool

import numpy as np

from . import epidemic, kernel
from .epidemic import DiseaseParams
from .errors import ConfigError, NoTeacher, UnknownPerson
from .kernel import SECONDS_PER_DAY, KernelParams, TransmissionMode
from .trajectory import Observation, Role


class DensityVariant(str, Enum):
    FULL = "full"
    HALF = "half"


class VaccinationVariant(str, Enum):
    NONE = "novax"
    TEACHERS = "vax"


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario cell plus the sweep bookkeeping."""

    density: DensityVariant = DensityVariant.FULL
    vaccination: VaccinationVariant = VaccinationVariant.NONE
    vaccine_efficacy: float = 0.858
    horizon_days: int = 28
    reps_per_patient_zero: int = 60
    base_seed: int = 0

    def __post_init__(self):
        if isinstance(self.vaccine_efficacy, bool) or not 0.0 <= self.vaccine_efficacy <= 1.0:
            raise ConfigError(f"vaccine_efficacy must be in [0, 1], got {self.vaccine_efficacy!r}")
        for name in ("horizon_days", "reps_per_patient_zero", "base_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.horizon_days < 1:
            raise ConfigError(f"horizon_days must be >= 1, got {self.horizon_days}")
        if self.horizon_days > 3650:  # ten years; the calendar and hourly counts grow with it
            raise ConfigError(f"horizon_days must be <= 3650, got {self.horizon_days}")
        if self.reps_per_patient_zero < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps_per_patient_zero}")

    @property
    def cell_name(self) -> str:
        return f"{self.density.value}-{self.vaccination.value}"


SCENARIO_CELLS = {
    "full-novax": (DensityVariant.FULL, VaccinationVariant.NONE),
    "half-novax": (DensityVariant.HALF, VaccinationVariant.NONE),
    "full-vax": (DensityVariant.FULL, VaccinationVariant.TEACHERS),
    "half-vax": (DensityVariant.HALF, VaccinationVariant.TEACHERS),
}


# ---------------------------------------------------------------------------
# calendar
# ---------------------------------------------------------------------------

FRIDAY = 4  # weekday index, Monday = 0


@dataclass(frozen=True)
class SchoolCalendar:
    """Session start times (absolute seconds); each session lasts as long
    as the observation it replays."""

    session_starts_s: tuple[float, ...]

    def __post_init__(self):
        starts = self.session_starts_s
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigError("session starts must be strictly increasing")


def build_calendar(horizon_days: int, session_length_s: float) -> SchoolCalendar:
    """School-day sessions within the horizon, one per weekday, Day 0 first.

    Day k starts at k * 86400 s and Day 0 is a Monday; weekends are
    skipped, giving the 24 h weekday / 72 h Friday-to-Monday gaps.  The
    starts do not depend on ``session_length_s``; it is only checked to fit
    in one day.
    """
    if horizon_days < 1:
        raise ConfigError(f"horizon_days must be >= 1, got {horizon_days}")
    if not 0 < session_length_s <= SECONDS_PER_DAY:
        raise ConfigError(
            f"session_length_s must be in (0, 86400], got {session_length_s}"
        )
    starts = [
        float(day) * SECONDS_PER_DAY
        for day in range(horizon_days)
        if day % 7 <= FRIDAY
    ]
    return SchoolCalendar(session_starts_s=tuple(starts))


# ---------------------------------------------------------------------------
# scenario transforms
# ---------------------------------------------------------------------------

def apply_half_class(
    obs: Observation,
    rng: np.random.Generator,
    include: str | None = None,
) -> Observation:
    """Halved classroom: ceil(n_children / 2) children plus exactly 1 teacher.

    Children and the teacher are sampled uniformly.  ``include`` forces one
    person into the retained subset (the patient zero of the run, since
    half-class runs are conditional on the infected person attending);
    the remaining slots are sampled uniformly from everyone else.  The room
    itself is unchanged, halving the density.
    """
    return obs.subset(half_class_indices(obs, rng, include))


def half_class_indices(
    obs: Observation,
    rng: np.random.Generator,
    include: str | None = None,
) -> np.ndarray:
    """Ascending roster indices of the people ``apply_half_class`` keeps.

    Same draws, in the same order, as ``apply_half_class``.
    """
    child_idx = [k for k, p in enumerate(obs.roster) if p.role == Role.CHILD]
    teacher_idx = _teacher_indices(obs)
    include_idx = obs.index_of(include) if include is not None else None

    n_keep = math.ceil(len(child_idx) / 2)
    keep: list[int] = []
    if include_idx is not None and include_idx in teacher_idx:
        keep.append(include_idx)
    else:
        keep.append(teacher_idx[int(rng.integers(len(teacher_idx)))])
    pool = list(child_idx)
    n_sample = n_keep
    if include_idx is not None and include_idx in child_idx:
        keep.append(include_idx)
        pool.remove(include_idx)
        n_sample -= 1
    if n_sample > 0:
        chosen = rng.choice(len(pool), size=n_sample, replace=False)
        keep.extend(pool[int(c)] for c in chosen)
    return np.array(sorted(keep), dtype=np.intp)


def _teacher_indices(obs: Observation) -> list[int]:
    """Roster indices of the teachers, of whom a half class keeps one."""
    teacher_idx = [k for k, p in enumerate(obs.roster) if p.role == Role.TEACHER]
    if not teacher_idx:
        raise NoTeacher(f"observation {obs.class_id} has no teacher")
    return teacher_idx


def apply_vaccination(
    roster,
    efficacy: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-run immunity flags: each teacher effective-vaccinated independently.

    Returns a boolean mask over the roster.  Each teacher, in roster order,
    draws one uniform and is flagged when their draw falls below
    ``efficacy``; children draw nothing and are never flagged.
    """
    return np.array([p.role == Role.TEACHER and rng.random() < efficacy for p in roster],
                    dtype=bool)


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(base_seed: int, patient_zero_index: int, rep: int) -> int:
    """Stable 64-bit per-task seed; order- and worker-count-independent."""
    h = _splitmix64(base_seed & _MASK64)
    h = _splitmix64(h ^ _splitmix64((patient_zero_index + 1) & _MASK64))
    h = _splitmix64(h ^ _splitmix64((rep + 1) & _MASK64))
    return h


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

@dataclass
class RunOutcome:
    """Everything one simulation run produced.

    ``times`` is the run's whole compartment history (``epidemic.event_log``):
    a (4, n) float64 array whose rows are infection, infectiousness, symptom
    onset and recovery and whose columns follow ``roster_ids``; a time past
    the horizon, or never set, reads ``inf``.  Saturation, the hourly curves
    (``epidemic.hourly_compartment_counts``) and the first onsets are all
    read from it.  ``beta_hat`` is the mean pair rate over the roster's co-present
    pair-seconds and ``exposure_t_s`` (T) the class time the horizon holds.
    Who was immune is not kept: no output reads it.
    """

    scenario: str
    observation_id: str
    patient_zero: str
    seed: int
    roster_ids: tuple[str, ...]
    times: np.ndarray
    horizon_days: int
    beta_hat: float
    exposure_t_s: float


#: Above this many stored elements (seconds x unordered pairs, 400 MB of
#: float64), no cache is held: each session rates its segments' own pairs
#: instead.
_RATE_CACHE_MAX_ELEMENTS = 50_000_000


class _PairArrays:
    """The pair arrays every run of one observation reads.

    ``pairs`` maps two roster positions to their column of the pair triangle
    (``kernel.pair_index``); ``rate_sums`` and ``pair_seconds`` hold each
    unordered pair's time sum of rates and co-present seconds, from which any
    roster's ``beta_hat`` follows.  All come from one pass over the
    recording (``kernel.pair_totals``).  The cache policy is the input's
    alone: a droplet observation whose T * N(N-1)/2 elements fit under
    ``_RATE_CACHE_MAX_ELEMENTS`` also gets ``hazard``, the rates of that
    pass turned in place into the cumulative hazard the session engine
    reads.  Past the cap, and in airborne mode, ``hazard`` is None:
    droplet sessions rate per segment, and airborne sessions advance in
    spans of seconds (``epidemic.transmission_step``).
    """

    def __init__(self, obs: Observation, kp: KernelParams):
        n = obs.n_people
        shape = (obs.session_length_s, n * (n - 1) // 2)
        fits = 0 < math.prod(shape) <= _RATE_CACHE_MAX_ELEMENTS
        rates = np.empty(shape) if fits and kp.mode == TransmissionMode.DROPLET else None
        self.rate_sums, self.pair_seconds = kernel.pair_totals(
            obs.positions, obs.facings, obs.present, kp, rates)
        self.hazard = None if rates is None else kernel.cumulative_hazard(rates)
        self.pairs = kernel.pair_index(n)


def run_simulation(
    obs: Observation,
    cal: SchoolCalendar,
    sc: ScenarioConfig,
    patient_zero: str,
    seed: int,
    kp: KernelParams,
    dp: DiseaseParams,
    shared: _PairArrays | None = None,
) -> RunOutcome:
    """One complete seeded run of a scenario cell.

    Draw order per run: half-class subset, vaccination flags, patient-zero
    clocks, then transmission.  ``shared`` holds the pair arrays of the
    *full* observation that the run reads through its roster's pair map;
    given none, the run builds exactly the ``_PairArrays`` a sweep process
    builds and returns the sweep's outcome for the same (cell, patient
    zero, seed).  Under the cap, droplet sessions read the hazard cache;
    past it they rate each segment's own (susceptible, source) pairs, and
    airborne sessions advance in spans of seconds.

    The trajectory replays identically for every session in the calendar,
    each as long as the observation; between sessions the clock jumps with
    no transmission.  The run stops early once nobody is exposed or
    infectious; its clock array still covers the full horizon.
    """
    if patient_zero not in obs.person_ids:
        raise UnknownPerson(patient_zero)
    if shared is None:
        shared = _PairArrays(obs, kp)
    rng = np.random.Generator(np.random.PCG64(seed))

    if sc.density == DensityVariant.HALF:
        idx = half_class_indices(obs, rng, include=patient_zero)
        obs_run = obs.subset(idx)
    else:
        idx = np.arange(obs.n_people)
        obs_run = obs
    immune = (apply_vaccination(obs_run.roster, sc.vaccine_efficacy, rng)
              if sc.vaccination == VaccinationVariant.TEACHERS else None)

    # idx ascends, so the mask keeps the roster's pairs i < j in row-major
    # order: beta_hat adds them in the order of the roster's own triangle
    pairs = shared.pairs[np.ix_(idx, idx)]
    cols = pairs[idx[:, None] < idx]
    beta_hat = kernel.mean_pair_rate(shared.rate_sums, shared.pair_seconds, cols)

    state = epidemic.new_epidemic_state(obs_run.person_ids, rng, immune)
    epidemic.seed_patient_zero(state, patient_zero, dp)

    horizon_s = sc.horizon_days * SECONDS_PER_DAY
    sessions = [start for start in cal.session_starts_s if start < horizon_s]
    for start in sessions:
        if epidemic.is_run_complete(state):
            break
        if state.clock < start:
            epidemic.progress_offclass(state, start - state.clock)
        epidemic.simulate_session(state, obs_run, start, kp, dp, hazard=shared.hazard, pairs=pairs)

    return RunOutcome(
        scenario=sc.cell_name,
        observation_id=obs.class_id,
        patient_zero=patient_zero,
        seed=seed,
        roster_ids=obs_run.person_ids,
        times=epidemic.event_log(state, horizon_s),
        horizon_days=sc.horizon_days,
        beta_hat=beta_hat,
        exposure_t_s=float(obs.session_length_s * len(sessions)),
    )


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _task_runner(obs, cells, cals, kp, dp):
    """Build this process's pair arrays and return the function that runs
    one sweep task (cell, patient zero index, replicate)."""
    shared = _PairArrays(obs, kp)

    def run(task) -> RunOutcome:
        cell, pz_index, rep = task
        sc = cells[cell]
        seed = derive_seed(sc.base_seed, pz_index, rep)
        pz = obs.roster[pz_index].person_id
        return run_simulation(obs, cals[cell], sc, pz, seed, kp, dp, shared)

    return run


_WORKER: dict = {}


def _worker_init(*args):
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # Pool.terminate ends a worker at once
    # Each worker leads its own process group, so a signal sent to the job's
    # group (Ctrl-C, kill -TERM -<pgid>) reaches only the parent, which ends
    # the pool; a worker it killed could die holding a pool queue's lock and
    # hang that teardown.  A worker still exits with its parent, as its task
    # pipe closes.  A caller running this in its own process never moves.
    if multiprocessing.parent_process() is not None:
        os.setpgid(0, 0)
    _WORKER["run"] = _task_runner(*args)


def _worker_run(task):
    return _WORKER["run"](task)


#: Most tasks one pool hand-off carries.  Ordered ``imap`` delivers a chunk
#: to the parent whole, so this bounds the outcomes in flight as reps grow.
_MAX_CHUNK = 32


def sweep(
    obs: Observation,
    sc: ScenarioConfig | Sequence[ScenarioConfig],
    kp: KernelParams,
    dp: DiseaseParams,
    workers: int = 1,
) -> Iterator[RunOutcome]:
    """Every roster member as patient zero x replicates, for one or more cells.

    ``sc`` is one scenario cell or a sequence of them; every (cell, patient
    zero, replicate) task runs in one pass over one worker pool.  Outcomes
    are yielded one at a time in (cell order, patient zero index,
    replicate) order and are bitwise independent of ``workers``, so a
    caller can fold each run as it arrives and hold none.  Each cell runs
    on its own calendar over its horizon.

    The plan is checked when ``sweep`` is called: every cell's calendar is
    built, and a half cell needs a teacher.  Runs start at the first read.
    The pool has at most one worker per task.  Each process (the caller
    itself at ``workers=1``, else each pool worker) builds its pair arrays
    once per sweep, the cumulative-hazard cache of the pair triangle
    included when it fits; runs then reduce to array gathers and draws.
    The pool lives as long as the returned stream: exhausting or closing it
    terminates the workers.
    """
    cells = (sc,) if isinstance(sc, ScenarioConfig) else tuple(sc)
    cals = tuple(build_calendar(c.horizon_days, obs.session_length_s) for c in cells)
    if any(c.density == DensityVariant.HALF for c in cells):
        _teacher_indices(obs)
    return _runs(obs, cells, cals, kp, dp, workers)


def _runs(obs, cells, cals, kp, dp, workers) -> Iterator[RunOutcome]:
    """The run stream of a checked sweep plan; it owns the worker pool."""
    n_tasks = obs.n_people * sum(c.reps_per_patient_zero for c in cells)
    tasks = (  # drawn as runs are handed out, so no task list is held
        (cell, pz_index, rep)
        for cell, c in enumerate(cells)
        for pz_index in range(obs.n_people)
        for rep in range(c.reps_per_patient_zero)
    )
    args = (obs, cells, cals, kp, dp)
    workers = min(workers, n_tasks)  # an idle worker would still build the cache
    if workers <= 1:
        yield from map(_task_runner(*args), tasks)
    else:  # the parent never builds the cache: each worker does, in its initializer
        with Pool(processes=workers, initializer=_worker_init, initargs=args) as pool:
            chunk = min(_MAX_CHUNK, max(1, n_tasks // (workers * 8)))
            yield from pool.imap(_worker_run, tasks, chunksize=chunk)
