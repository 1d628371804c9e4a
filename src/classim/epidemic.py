"""SEIR run state held as arrays, and the stochastic transmission engine.

Each person carries one transmission-clock record: infection, infectiousness,
symptom onset, recovery and source.  ``EpidemicState`` holds these as one
array per field (a struct of arrays, ``inf`` = never), so the engine, the
counts and the event log read them without rebuilding anything.

Compartments flow one way: Susceptible -> Exposed -> Infectious -> Recovered.
All of a person's future transition times are sampled the moment they are
infected (latency is deterministic; incubation and recovery are drawn from
the run's generator), so a compartment is always a pure function of the
scheduled times and the clock.  Advancing time never consumes randomness,
which keeps runs deterministic and lets the simulation jump over nights and
weekends in one step.

Transmission happens only while the trajectory is playing.  At each second
of its 1 Hz grid, every present susceptible combines the per-second rates of
all present infectious neighbours as  p = 1 - prod_j (1 - min(beta_ij, 1)).
As a hazard,  h = -log(1 - p) = sum_j -log1p(-min(beta_ij, 1)),  so the
chance of escaping every second a..b is  exp(-(h_a + ... + h_b)).

``transmission_step`` applies the per-second rule to a single frame and
draws one uniform per susceptible.  ``simulate_session`` replays a whole
session in segments between changes of the infectious set (temporal
Gillespie: Vestergaard & Genois, PLoS Comput Biol 11:e1004579, 2015).  Each
susceptible draws one Exp(1) threshold E per segment and is infected at the
first second at which its accrued hazard exceeds E.  Since
P(E > H) = exp(-H), that reproduces the per-second escape probability
exactly, so the engine is exact in distribution, not an approximation.
Per-second draws are independent, so a fresh threshold per segment is as
exact as one per session.  The
hazards come as a running sum over time per unordered pair
(``kernel.cumulative_hazard``), so a segment's total is one difference per
(susceptible, source) pair.  A certain contact (p = 1) has infinite hazard;
it is capped at ``kernel.HAZARD_CAP`` = 40, whose escape chance exp(-40) is
below the resolution of a double-precision uniform.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernel
from .errors import FrameRosterMismatch, UnknownPerson, reject_bools
from .kernel import KernelParams, TransmissionMode
from .trajectory import Observation, TrajectoryFrame

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0

#: Airborne mode: one emission is buffered per infectious person per slot.
EMISSION_SLOT_S = 60.0
#: Airborne mode: emissions older than this no longer contribute.
EMISSION_HORIZON_S = 3.0 * SECONDS_PER_HOUR
#: Airborne mode: ring rows per person, the horizon's 180 slots plus the current one.
EMISSION_ROWS = int(EMISSION_HORIZON_S // EMISSION_SLOT_S) + 1


class Compartment(Enum):
    SUSCEPTIBLE = "S"
    EXPOSED = "E"
    INFECTIOUS = "I"
    RECOVERED = "R"


class IncubationModel(str, Enum):
    EXPONENTIAL = "exponential"
    POISSON_DAYS = "poisson_days"


class RecoveryModel(str, Enum):
    EXPONENTIAL = "exponential"
    GEOMETRIC_STEPS = "geometric_steps"


@dataclass(frozen=True)
class DiseaseParams:
    """Disease-progression clock parameters.

    latency_h: deterministic infection -> infectious delay, in hours.
    p_symptomatic: probability an infected person ever develops symptoms.
    mean_incubation_days: mean infection -> symptom-onset waiting time.
    gamma_per_day: recovery rate; mean infectious duration = 1/gamma.
    Transmission steps on the 1 Hz trajectory grid, so no step size is set.

    incubation_model picks exponential waiting times (default) or
    integer Poisson-distributed days; recovery_model picks exponential
    durations (default) or the exact per-step geometric equivalent.
    """

    latency_h: float = 24.0
    p_symptomatic: float = 0.75
    mean_incubation_days: float = 4.0
    gamma_per_day: float = 0.1
    incubation_model: IncubationModel = IncubationModel.EXPONENTIAL
    recovery_model: RecoveryModel = RecoveryModel.EXPONENTIAL

    def __post_init__(self):
        reject_bools(self)
        if not 0.0 <= self.p_symptomatic <= 1.0:
            raise ValueError(f"p_symptomatic must be in [0, 1], got {self.p_symptomatic}")
        for name in ("latency_h", "mean_incubation_days", "gamma_per_day"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.latency_s == math.inf:
            raise ValueError(f"latency_h must be finite in seconds, got {self.latency_h}")
        if self.recovery_model == RecoveryModel.GEOMETRIC_STEPS and self.gamma_per_day > 86400:
            raise ValueError(f"geometric_steps needs gamma_per_day <= 86400, got {self.gamma_per_day}")
        if self.incubation_model == IncubationModel.POISSON_DAYS and self.mean_incubation_days > 1e18:
            raise ValueError(
                f"poisson_days needs mean_incubation_days <= 1e18, got {self.mean_incubation_days}")

    @property
    def latency_s(self) -> float:
        return self.latency_h * SECONDS_PER_HOUR

    @property
    def mean_infectious_days(self) -> float:
        return 1.0 / self.gamma_per_day


@dataclass
class EpidemicState:
    """Mutable simulation state: clock, generator, one record per person.

    The per-person fields are arrays in roster order.  All t_* arrays hold
    absolute seconds since Day 0 session start, scheduled when the person
    is infected; ``inf`` means "never (so far)".  ``source`` is the roster
    index of the infector, -1 for none.  Immune people stay susceptible and
    never acquire times.  Airborne mode keeps each infectious person's
    emissions in ``emissions``, an (n, EMISSION_ROWS, 5) ring of
    (t, x, y, fx, fy): slot s is row s % EMISSION_ROWS, and a row never
    written has t = -inf.  The ring is made when the first emission is
    recorded; until then, and in droplet mode, it is None.

    Confined to a single worker for the duration of a run; parallelism
    happens one level up, across independent runs.
    """

    clock: float
    rng: np.random.Generator
    person_ids: tuple[str, ...]
    immune: np.ndarray
    t_infected: np.ndarray
    t_infectious: np.ndarray
    t_symptomatic: np.ndarray
    t_recovered: np.ndarray
    source: np.ndarray
    emissions: np.ndarray | None = None

    def counts(self, at: float | None = None) -> tuple[int, int, int, int]:
        """(S, E, I, R) counts at the given time (default: current clock)."""
        masks = _compartment_masks(self, self.clock if at is None else at)
        return tuple(int(m.sum()) for m in masks)

    def compartment_at(self, k: int, t: float) -> Compartment:
        """Compartment of roster position ``k`` at time ``t``."""
        masks = _compartment_masks(self, t)
        return next(c for c, m in zip(Compartment, masks) if m[k])


def _compartment_masks(state: EpidemicState, t) -> tuple[np.ndarray, ...]:
    """Boolean (S, E, I, R) masks at time ``t``.

    ``t`` is a scalar (masks of shape (n,)) or an array that broadcasts
    against the per-person arrays, e.g. a column of times giving (times, n).
    """
    infected = t >= state.t_infected
    infectious = t >= state.t_infectious
    recovered = t >= state.t_recovered
    return ~infected, infected & ~infectious, infectious & ~recovered, recovered


def new_epidemic_state(
    person_ids,
    rng: np.random.Generator,
    immune_ids=frozenset(),
) -> EpidemicState:
    """Fresh all-susceptible state at clock 0."""
    ids = tuple(person_ids)
    n = len(ids)
    immune = set(immune_ids)
    return EpidemicState(
        clock=0.0,
        rng=rng,
        person_ids=ids,
        immune=np.array([pid in immune for pid in ids], dtype=bool),
        t_infected=np.full(n, math.inf),
        t_infectious=np.full(n, math.inf),
        t_symptomatic=np.full(n, math.inf),
        t_recovered=np.full(n, math.inf),
        source=np.full(n, -1),
    )


# ---------------------------------------------------------------------------
# disease clocks
# ---------------------------------------------------------------------------

def sample_incubation(rng: np.random.Generator, dp: DiseaseParams) -> float:
    """Infection -> symptom-onset waiting time in days.

    The default is an exponential waiting time (the inter-arrival time of a
    unit-rate Poisson process) with the configured mean; the alternative
    model draws whole Poisson-distributed days for sensitivity runs.
    """
    if dp.incubation_model == IncubationModel.POISSON_DAYS:
        return float(rng.poisson(dp.mean_incubation_days))
    return float(rng.exponential(dp.mean_incubation_days))


def sample_recovery(rng: np.random.Generator, dp: DiseaseParams) -> float:
    """Infectious-duration draw in days, mean 1/gamma.

    The geometric model is the exact law of per-second Bernoulli(gamma)
    recovery draws (gamma per second), sampled in closed form.
    """
    if dp.recovery_model == RecoveryModel.GEOMETRIC_STEPS:
        steps = rng.geometric(dp.gamma_per_day / SECONDS_PER_DAY)
        return float(steps) / SECONDS_PER_DAY
    return float(rng.exponential(dp.mean_infectious_days))


def _schedule_infection(
    state: EpidemicState,
    k: int,
    t_infected: float,
    source: int,
    dp: DiseaseParams,
) -> None:
    """Draw person ``k``'s whole future: symptoms, infectiousness, recovery.

    Draw order (symptomaticity, incubation, recovery) is part of the
    determinism contract.  ``source`` is the infector's roster index, -1
    for none.
    """
    u = state.rng.random()
    incubation_days = sample_incubation(state.rng, dp)
    recovery_days = sample_recovery(state.rng, dp)
    t_infectious = t_infected + dp.latency_s
    state.t_infected[k] = t_infected
    state.t_infectious[k] = t_infectious
    state.t_symptomatic[k] = (
        t_infected + incubation_days * SECONDS_PER_DAY if u < dp.p_symptomatic else math.inf
    )
    state.t_recovered[k] = t_infectious + recovery_days * SECONDS_PER_DAY
    state.source[k] = source


def seed_patient_zero(state: EpidemicState, person_id: str, dp: DiseaseParams) -> EpidemicState:
    """Make one person infectious at clock 0.

    Infection is back-dated by the latency so that infectiousness starts
    exactly at 0 and the symptom/recovery clocks are well defined.  Seeding
    an immune person is a no-op: that run records no transmissions at all.
    """
    if person_id not in state.person_ids:
        raise UnknownPerson(person_id)
    k = state.person_ids.index(person_id)
    if not state.immune[k]:
        _schedule_infection(state, k, -dp.latency_s, -1, dp)
    return state


def transmission_step(
    state: EpidemicState,
    frame: TrajectoryFrame,
    kp: KernelParams,
    dp: DiseaseParams,
) -> EpidemicState:
    """Advance one trajectory frame: infect susceptibles, step the clock.

    The frame describes the instant at the current clock (caller aligns
    times).  One uniform is drawn per susceptible non-immune person in
    roster order, whether or not they can be infected this second; absent
    people neither transmit nor receive.
    """
    n = len(state.person_ids)
    if frame.positions.shape[0] != n:
        raise FrameRosterMismatch(
            f"frame has {frame.positions.shape[0]} people, roster has {n}"
        )
    now = state.clock
    susceptible, _, infectious, _ = _compartment_masks(state, now)
    sus_idx = np.flatnonzero(susceptible & ~state.immune)
    inf_idx = np.flatnonzero(infectious)

    if len(inf_idx) and len(sus_idx):
        beta = _frame_source_rates(state, frame, kp, now, sus_idx, inf_idx)
        p = 1.0 - np.prod(1.0 - np.clip(beta, 0.0, 1.0), axis=-1)  # see module docstring
        u = state.rng.random(len(sus_idx))
        for pos in np.flatnonzero(u < p):
            j = int(inf_idx[int(np.argmax(beta[pos]))])
            _schedule_infection(state, int(sus_idx[pos]), now, j, dp)
    elif len(sus_idx):
        state.rng.random(len(sus_idx))  # fixed draw pattern: one per susceptible

    if kp.mode == TransmissionMode.AIRBORNE:
        _record_emissions(state, frame, now, inf_idx)
    state.clock = now + 1.0
    return state


def _frame_source_rates(
    state: EpidemicState,
    frame: TrajectoryFrame,
    kp: KernelParams,
    now: float,
    sus_idx: np.ndarray,
    inf_idx: np.ndarray,
) -> np.ndarray:
    """Per-source rates (n_sus, n_inf) for one frame, inc. airborne history."""
    pos = np.where(frame.present[:, None], frame.positions, 0.0)
    fac = np.where(frame.present[:, None], frame.facings, 0.0)
    beta = kernel.rates_between(pos[sus_idx], fac[sus_idx], pos[inf_idx], fac[inf_idx], kp)
    co_present = frame.present[sus_idx][:, None] & frame.present[inf_idx][None, :]
    beta[~co_present] = 0.0

    if kp.mode == TransmissionMode.AIRBORNE and state.emissions is not None:
        # Emission weight keeps a stationary pair's integrated airborne hazard
        # aligned with the droplet hazard: each slot carries lambda * slot.
        weight = kp.lambda_decay / SECONDS_PER_HOUR * EMISSION_SLOT_S
        current_slot = int(now // EMISSION_SLOT_S)
        # the slots before the current one, oldest first (stale rows are masked)
        rows = np.arange(current_slot - EMISSION_ROWS + 1, current_slot) % EMISSION_ROWS
        sus_present = frame.present[sus_idx]
        for col, j in enumerate(inf_idx):
            arr = state.emissions[j, rows]
            arr = arr[arr[:, 0] >= now - EMISSION_HORIZON_S]
            if not len(arr):
                continue
            r = kernel.rates_between(pos[sus_idx], fac[sus_idx], arr[:, 1:3], arr[:, 3:5], kp)
            decay = np.exp(-kp.lambda_decay * (now - arr[:, 0]) / SECONDS_PER_HOUR)
            extra = (r * decay[None, :]).sum(axis=1) * weight
            beta[:, col] += np.where(sus_present, extra, 0.0)
    return beta


def _record_emissions(state, frame, now, inf_idx) -> None:
    if state.emissions is None:
        state.emissions = np.full((len(state.person_ids), EMISSION_ROWS, 5), -math.inf)
    slot = int(now // EMISSION_SLOT_S)
    row = state.emissions[:, slot % EMISSION_ROWS]
    for j in inf_idx:  # a row still holding an earlier slot is free
        if frame.present[j] and row[j, 0] < slot * EMISSION_SLOT_S:
            row[j] = now, *frame.positions[j], *frame.facings[j]


def progress_offclass(state: EpidemicState, duration_s: float) -> EpidemicState:
    """Advance the clock with no transmission (nights, weekends).

    Scheduled transitions (infectiousness, symptom onset, recovery) take
    effect purely by the clock crossing them; no randomness is consumed.
    """
    if not duration_s > 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    state.clock += duration_s
    return state


def is_run_complete(state: EpidemicState) -> bool:
    """True when nobody is exposed or infectious any more."""
    _, exposed, infectious, _ = _compartment_masks(state, state.clock)
    return not (exposed | infectious).any()


# ---------------------------------------------------------------------------
# vectorized session engine
# ---------------------------------------------------------------------------

def _accrued(cum: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Hazard accrued since ``base``, summed over sources (the last axis).

    Sources are added strictly left to right (an accumulate, not numpy's
    shape-dependent pairwise sum), so a susceptible's segment total and its
    accrued hazard at the segment's last second agree to the bit.  The
    result never falls as the second advances: each source's running sum
    only grows, and rounding preserves order.
    """
    return np.cumsum(cum - base, axis=-1)[..., -1]


def simulate_session(
    state: EpidemicState,
    obs: Observation,
    session_start_s: float,
    kp: KernelParams,
    dp: DiseaseParams,
    hazard: np.ndarray | None = None,
    pairs: np.ndarray | None = None,
) -> EpidemicState:
    """Replay one full session of the observation against the state.

    Equal in distribution to calling ``transmission_step`` on every frame,
    but evaluated in segments between transition events of the infectious
    set.  Within a segment each present susceptible draws one Exp(1)
    threshold and is infected at the first second at which its cumulative
    hazard from the infectious people, counted from the segment start,
    exceeds it (see the module docstring for why this is exact).  The
    infector is the source with the largest hazard at that second.

    ``hazard`` may carry the precomputed cumulative hazard of the source
    observation, ``kernel.cumulative_hazard`` of its pair triangle
    (``kernel.pair_rates``, shape (T, M(M-1)/2)).  ``pairs`` is the (n, n)
    map from a pair of this state's roster positions to that pair's
    column, ``kernel.pair_index(M)`` restricted to the roster, so half-class
    runs reuse a full-roster cache; it defaults to ``kernel.pair_index(n)``,
    a cache of this roster itself.  Without a cache, each segment rates only
    its own (susceptible, source) pairs over its own seconds and accumulates
    them the same way.  The rates are bitwise symmetric in the pair, so
    both paths read the same bits.

    Airborne mode falls back to the per-frame step, which maintains the
    emission buffers.
    """
    n = len(state.person_ids)
    if obs.n_people != n:
        raise FrameRosterMismatch(f"observation has {obs.n_people} people, roster has {n}")
    if state.clock != session_start_s:
        raise ValueError(
            f"state clock {state.clock} is not at session start {session_start_s}"
        )
    t_total = obs.session_length_s

    if kp.mode == TransmissionMode.AIRBORNE:
        for t in range(t_total):
            transmission_step(state, obs.frame(t), kp, dp)
        return state

    if hazard is not None:
        if hazard.ndim != 2:
            raise ValueError(f"hazard cache must be (seconds, pairs), got shape {hazard.shape}")
        if hazard.shape[0] != t_total:
            raise ValueError(f"hazard cache covers {hazard.shape[0]} s, session is {t_total} s")
        if pairs is None:
            pairs = kernel.pair_index(n)

    latency_steps = max(1, math.floor(dp.latency_s))

    cursor = 0
    while cursor < t_total:
        now = session_start_s + cursor
        susceptible, exposed, infectious, _ = _compartment_masks(state, now)

        # segment ends at the next infectious-set change (someone turning
        # infectious or recovering), capped so no one infected inside the
        # segment could turn infectious before it ends
        changes = np.concatenate(
            [state.t_infectious[exposed], state.t_recovered[infectious]]
        )
        frames = np.ceil(changes - session_start_s)  # first frame at/after
        seg_end = int(min(t_total, cursor + latency_steps,
                          frames[frames > cursor].min(initial=t_total)))

        sus_idx = np.flatnonzero(susceptible & ~state.immune)
        inf_idx = np.flatnonzero(infectious)
        if len(sus_idx) == 0 or len(inf_idx) == 0:
            cursor = seg_end
            continue

        # cols[s, i]: the hazard column of susceptible s and source i
        if hazard is not None:
            cum, lo, cols = hazard, cursor, pairs[sus_idx[:, None], inf_idx]
        else:
            seconds = slice(cursor, seg_end)
            rates = kernel.pair_rates(
                obs.positions[seconds], obs.facings[seconds], obs.present[seconds], kp,
                (np.repeat(sus_idx, len(inf_idx)), np.tile(inf_idx, len(sus_idx))),
            )
            cum, lo = kernel.cumulative_hazard(rates), 0
            cols = np.arange(rates.shape[1]).reshape(len(sus_idx), len(inf_idx))
        hi = lo + seg_end - cursor
        base = cum[lo - 1][cols] if lo > 0 else np.zeros(cols.shape)
        total = _accrued(cum[hi - 1][cols], base)
        thresholds = state.rng.standard_exponential(len(sus_idx))
        hits = []
        for pos in np.flatnonzero(thresholds < total):
            col, since = cols[pos], base[pos]
            # first second whose accrued hazard passes the threshold; it is
            # found by bisection, so no (seconds, sources) series is built
            t = lo + bisect.bisect_right(
                range(lo, hi), thresholds[pos],
                key=lambda s: _accrued(cum[s, col], since),
            )
            src = 0
            if len(col) > 1:  # the source with the largest hazard that second
                step = cum[t, col] - (cum[t - 1, col] if t > 0 else 0.0)
                src = int(np.argmax(step))
            hits.append((t - lo, int(pos), int(inf_idx[src])))
        for t_rel, pos, j in sorted(hits):
            t_abs = session_start_s + (cursor + t_rel)
            _schedule_infection(state, int(sus_idx[pos]), t_abs, j, dp)
        cursor = seg_end

    state.clock = session_start_s + t_total
    return state


# ---------------------------------------------------------------------------
# event log and counts
# ---------------------------------------------------------------------------

EVENT_ORDER = {"infected": 0, "infectious": 1, "symptomatic": 2, "recovered": 3}


@dataclass(frozen=True, slots=True)
class Event:
    kind: str
    person_id: str
    t_s: float
    source_person_id: str | None = None


def event_log(state: EpidemicState, horizon_s: float) -> tuple[Event, ...]:
    """All transition events up to the horizon, time-ordered.

    Symptom onsets scheduled by the disease clocks are reported even when
    they land after the epidemic has burnt out, as long as they fall inside
    the horizon (the observation window of every metric).
    """
    ids = state.person_ids
    rows = zip(ids, state.source.tolist(), state.t_infected.tolist(),
               state.t_infectious.tolist(), state.t_symptomatic.tolist(),
               state.t_recovered.tolist())
    events = []
    for pid, source, *times in rows:
        for kind, t in zip(EVENT_ORDER, times):
            if t <= horizon_s:
                infector = ids[source] if kind == "infected" and source >= 0 else None
                events.append(Event(kind, pid, t, infector))
    events.sort(key=lambda e: (e.t_s, EVENT_ORDER[e.kind], e.person_id))
    return tuple(events)


def hourly_compartment_counts(events, roster_size: int, horizon_hours: int) -> np.ndarray:
    """(S, E, I, R) counts at each hour boundary 0..horizon_hours inclusive.

    Counted from an event log that holds every transition at or before the
    last boundary, as ``event_log`` up to the horizon does: a boundary
    counts the events of each kind at or before it.  Returned array has
    shape (horizon_hours + 1, 4).
    """
    bounds = np.arange(horizon_hours + 1, dtype=float) * SECONDS_PER_HOUR
    # people ever infected, ever infectious and recovered at or before each bound
    e, i, r = (np.searchsorted(np.sort([ev.t_s for ev in events if ev.kind == kind]), bounds, "right")
               for kind in ("infected", "infectious", "recovered"))
    return np.stack([roster_size - e, e - i, i - r, r], axis=1).astype(np.int64)
