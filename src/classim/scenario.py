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
worker count, and the same (patient zero, replicate) pair shares randomness
across scenario cells for coupled comparisons.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from multiprocessing import Pool

import numpy as np

from . import epidemic, kernel
from .epidemic import DiseaseParams, Event
from .errors import ConfigError, NoTeacher, UnknownPerson
from .kernel import KernelParams, TransmissionMode
from .trajectory import Observation, Role

SECONDS_PER_DAY = 86400.0


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

MONDAY, FRIDAY = 0, 4


@dataclass(frozen=True)
class SchoolCalendar:
    """Session start times (absolute seconds) and their common length."""

    session_starts_s: tuple[float, ...]
    session_length_s: float

    def __post_init__(self):
        starts = self.session_starts_s
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigError("session starts must be strictly increasing")

    @property
    def n_sessions(self) -> int:
        return len(self.session_starts_s)


def build_calendar(
    horizon_days: int,
    session_length_s: float,
    start_weekday: int = MONDAY,
) -> SchoolCalendar:
    """School-day sessions within the horizon, one per weekday, Day 0 first.

    Day k starts at k * 86400 s; weekends are skipped, giving the 24 h
    weekday / 72 h Friday-to-Monday gaps.  start_weekday must itself be a
    weekday (0 = Monday .. 4 = Friday) so the first session lands on Day 0.
    """
    if horizon_days < 1:
        raise ConfigError(f"horizon_days must be >= 1, got {horizon_days}")
    if not MONDAY <= start_weekday <= FRIDAY:
        raise ConfigError(f"start_weekday must be 0 (Mon) .. 4 (Fri), got {start_weekday}")
    if not 0 < session_length_s <= SECONDS_PER_DAY:
        raise ConfigError(
            f"session_length_s must be in (0, 86400], got {session_length_s}"
        )
    starts = [
        float(day) * SECONDS_PER_DAY
        for day in range(horizon_days)
        if (start_weekday + day) % 7 <= FRIDAY
    ]
    return SchoolCalendar(session_starts_s=tuple(starts), session_length_s=float(session_length_s))


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
    teacher_idx = [k for k, p in enumerate(obs.roster) if p.role == Role.TEACHER]
    if not teacher_idx:
        raise NoTeacher(f"observation {obs.class_id} has no teacher")
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


def apply_vaccination(
    roster,
    efficacy: float,
    rng: np.random.Generator,
) -> frozenset[str]:
    """Per-run immunity flags: each teacher effective-vaccinated independently.

    Children are never flagged.  Returns the set of immune person_ids.
    """
    immune = []
    for p in roster:
        if p.role == Role.TEACHER and rng.random() < efficacy:
            immune.append(p.person_id)
    return frozenset(immune)


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

    The event log is the run's whole compartment history: hourly curves and
    final counts are counted from it (``epidemic.hourly_compartment_counts``).
    ``beta_hat`` is the mean pair rate over the roster's co-present
    pair-seconds and ``exposure_t_s`` (T) the class time the horizon holds.
    """

    scenario: str
    observation_id: str
    patient_zero: str
    seed: int
    roster_ids: tuple[str, ...]
    immune_ids: frozenset[str]
    events: tuple[Event, ...]
    horizon_days: int
    beta_hat: float
    exposure_t_s: float


#: Above this many stored elements (seconds x unordered pairs, 400 MB of
#: float64), a sweep holds no cache: each session rates its segments' own
#: pairs instead.
_RATE_CACHE_MAX_ELEMENTS = 50_000_000


class _PairArrays:
    """The pair arrays every run of one observation reads.

    ``pairs`` maps two roster positions to their column of the pair triangle
    (``kernel.pair_index``); ``rate_sums`` and ``pair_seconds`` hold each
    unordered pair's time sum of rates and co-present seconds, from which any
    roster's ``beta_hat`` follows.  All come from one pass over the
    recording (``kernel.pair_totals``).  With ``cache``, a droplet
    observation under the cap also gets ``hazard``: that pass keeps its
    rates, turned in place into the cumulative hazard the session engine
    reads (T * N(N-1)/2 floats).  Otherwise ``hazard`` is None and no
    whole-session array is held.
    """

    def __init__(self, obs: Observation, kp: KernelParams, cache: bool):
        n = obs.n_people
        shape = (obs.session_length_s, n * (n - 1) // 2)
        fits = 0 < math.prod(shape) <= _RATE_CACHE_MAX_ELEMENTS
        rates = np.empty(shape) if cache and fits and kp.mode == TransmissionMode.DROPLET else None
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
    given none, the run makes them without a cache, so droplet sessions
    rate each segment's own (susceptible, source) pairs and airborne
    sessions step frame by frame.  Whether a cache pays off depends on how
    many runs share it, which only the caller knows; ``sweep`` builds one
    per process.

    The trajectory replays identically for every session in the calendar;
    between sessions the clock jumps with no transmission.  The run stops
    early once nobody is exposed or infectious, and is evaluated over the
    full horizon regardless.
    """
    if patient_zero not in obs.person_ids:
        raise UnknownPerson(patient_zero)
    if cal.session_length_s != obs.session_length_s:
        raise ConfigError(
            f"calendar session length {cal.session_length_s} != observation "
            f"length {obs.session_length_s}"
        )
    if shared is None:
        shared = _PairArrays(obs, kp, cache=False)
    rng = np.random.Generator(np.random.PCG64(seed))

    if sc.density == DensityVariant.HALF:
        idx = half_class_indices(obs, rng, include=patient_zero)
        obs_run = obs.subset(idx)
    else:
        idx = np.arange(obs.n_people)
        obs_run = obs
    if sc.vaccination == VaccinationVariant.TEACHERS:
        immune = apply_vaccination(obs_run.roster, sc.vaccine_efficacy, rng)
    else:
        immune = frozenset()

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
    if state.clock < horizon_s:
        epidemic.progress_offclass(state, horizon_s - state.clock)

    return RunOutcome(
        scenario=sc.cell_name,
        observation_id=obs.class_id,
        patient_zero=patient_zero,
        seed=seed,
        roster_ids=obs_run.person_ids,
        immune_ids=immune,
        events=epidemic.event_log(state, horizon_s),
        horizon_days=sc.horizon_days,
        beta_hat=beta_hat,
        exposure_t_s=float(cal.session_length_s * len(sessions)),
    )


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _task_runner(obs, cells, cals, kp, dp):
    """Build this process's pair arrays, with the cache, and return the
    function that runs one sweep task (cell, patient zero index, replicate)."""
    shared = _PairArrays(obs, kp, cache=True)

    def run(task) -> RunOutcome:
        cell, pz_index, rep = task
        sc = cells[cell]
        seed = derive_seed(sc.base_seed, pz_index, rep)
        pz = obs.roster[pz_index].person_id
        return run_simulation(obs, cals[cell], sc, pz, seed, kp, dp, shared)

    return run


_WORKER: dict = {}


def _worker_init(*args):
    _WORKER["run"] = _task_runner(*args)


def _worker_run(task):
    return task, _WORKER["run"](task)


def sweep(
    obs: Observation,
    sc: ScenarioConfig | Sequence[ScenarioConfig],
    kp: KernelParams,
    dp: DiseaseParams,
    workers: int = 1,
) -> list[RunOutcome]:
    """Every roster member as patient zero x replicates, for one or more cells.

    ``sc`` is one scenario cell or a sequence of them; every (cell, patient
    zero, replicate) task runs in one pass over one worker pool.  Results
    are returned sorted by (cell order, patient zero index, replicate) and
    are bitwise independent of ``workers``.  Each cell runs on its own
    calendar over its horizon.

    Each process (the caller itself at ``workers=1``, else each pool
    worker) builds its pair arrays, the cumulative-hazard cache of the pair
    triangle included, once per sweep; runs then reduce to array gathers
    and draws.
    """
    cells = (sc,) if isinstance(sc, ScenarioConfig) else tuple(sc)
    cals = tuple(build_calendar(c.horizon_days, obs.session_length_s) for c in cells)
    tasks = [
        (cell, pz_index, rep)
        for cell, c in enumerate(cells)
        for pz_index in range(obs.n_people)
        for rep in range(c.reps_per_patient_zero)
    ]
    args = (obs, cells, cals, kp, dp)
    if workers <= 1 or len(tasks) <= 1:
        return list(map(_task_runner(*args), tasks))

    # the parent never builds the cache: each worker does, in its initializer
    with Pool(processes=workers, initializer=_worker_init, initargs=args) as pool:
        chunk = max(1, len(tasks) // (workers * 8))
        tagged = list(pool.imap_unordered(_worker_run, tasks, chunksize=chunk))
    tagged.sort(key=lambda pair: pair[0])
    return [outcome for _task, outcome in tagged]
