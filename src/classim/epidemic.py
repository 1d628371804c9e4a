"""SEIR run state held as arrays, and the stochastic transmission engine.

Each person carries one transmission-clock record: infection, infectiousness,
symptom onset and recovery.  ``EpidemicState`` holds them as one (4, n)
array, a row per clock and a column per person (``inf`` = never), so the
engine and the counts read them without rebuilding anything.  A run's
outcome is that same array up to its horizon: ``event_log`` returns a copy
with later times set to ``inf``, and every policy metric is counted from it.

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

``transmission_step`` applies the per-second rule from second t of an
observation, read from its own arrays, and draws one uniform per
susceptible per second.  It advances a span of seconds per call: up to
the next change of the infectious set, the first second that infects
someone, a cap on the rates held at once, and in airborne mode the next
60-s emission slot and the next expiry of an emission in use.  Over such
a span nothing it reads changes, so one vectorized pass rates, draws and
records all its seconds, bit for bit as one call per second would; when
a second infects, the generator is set back to its state before the
span and redraws through that second, so the infections' own draws
follow it as they would have.  Airborne sessions run as a loop of such
spans.  ``simulate_session`` replays a whole session of the same
observation in segments between changes of the infectious set (temporal
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

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernel
from .errors import FrameRosterMismatch, UnknownPerson, reject_bools
from .kernel import SECONDS_PER_DAY, KernelParams, TransmissionMode
from .trajectory import Observation

SECONDS_PER_HOUR = 3600.0

#: Airborne mode: one emission is buffered per infectious person per slot.
EMISSION_SLOT_S = 60.0
#: Airborne mode: emissions older than this no longer contribute.
EMISSION_HORIZON_S = 3.0 * SECONDS_PER_HOUR
#: Airborne mode: ring rows per person, the horizon's 180 slots plus the current one.
EMISSION_ROWS = int(EMISSION_HORIZON_S // EMISSION_SLOT_S) + 1
#: Most rates one ``transmission_step`` span evaluates per rate call:
#: seconds x susceptibles x the larger of sources and one source's emissions.
_SPAN_ELEMENTS = 1 << 13


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
    durations (default) or the exact per-step geometric equivalent.  Each
    takes its enum member or its value, such as "poisson_days".
    """

    latency_h: float = 24.0
    p_symptomatic: float = 0.75
    mean_incubation_days: float = 4.0
    gamma_per_day: float = 0.1
    incubation_model: IncubationModel = IncubationModel.EXPONENTIAL
    recovery_model: RecoveryModel = RecoveryModel.EXPONENTIAL

    def __post_init__(self):
        object.__setattr__(self, "incubation_model", IncubationModel(self.incubation_model))
        object.__setattr__(self, "recovery_model", RecoveryModel(self.recovery_model))
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

    ``times`` is a (4, n) array whose rows are infection, infectiousness,
    symptom onset and recovery and whose columns follow ``person_ids``, the
    layout of ``RunOutcome.times``.  It holds absolute seconds since Day 0
    session start, scheduled when the person is infected; ``inf`` means
    "never (so far)".  Who infected whom is not kept: no output reads it.
    ``immune`` is a boolean mask in roster order; immune people stay
    susceptible and never acquire times.  Airborne mode keeps each
    infectious person's emissions in ``emissions``, an (n, EMISSION_ROWS, 5)
    ring of (t, x, y, fx, fy): slot s is row s % EMISSION_ROWS, and a row
    never written has t = -inf.  The ring is made when the first emission is
    recorded; until then, and in droplet mode, it is None.

    Confined to a single worker for the duration of a run; parallelism
    happens one level up, across independent runs.
    """

    clock: float
    rng: np.random.Generator
    person_ids: tuple[str, ...]
    immune: np.ndarray
    times: np.ndarray
    emissions: np.ndarray | None = None

    def counts(self, at: float | None = None) -> tuple[int, int, int, int]:
        """(S, E, I, R) counts at the given time (default: current clock)."""
        masks = _compartment_masks(self, self.clock if at is None else at)
        return tuple(int(m.sum()) for m in masks)


def _compartment_masks(state: EpidemicState, t) -> tuple[np.ndarray, ...]:
    """Boolean (S, E, I, R) masks at time ``t``.

    ``t`` is a scalar (masks of shape (n,)) or an array that broadcasts
    against a row of ``state.times``, e.g. a column of times giving (times, n).
    """
    infected = t >= state.times[0]
    infectious = t >= state.times[1]
    recovered = t >= state.times[3]
    return ~infected, infected & ~infectious, infectious & ~recovered, recovered


def new_epidemic_state(
    person_ids,
    rng: np.random.Generator,
    immune: np.ndarray | None = None,
) -> EpidemicState:
    """Fresh all-susceptible state at clock 0.

    ``immune`` is a boolean mask in roster order; None means nobody is immune.
    """
    ids = tuple(person_ids)
    n = len(ids)
    immune = np.zeros(n, dtype=bool) if immune is None else np.array(immune, dtype=bool)
    if immune.shape != (n,):
        raise ValueError(f"immune mask has shape {immune.shape}, roster has {n} people")
    return EpidemicState(clock=0.0, rng=rng, person_ids=ids, immune=immune,
                         times=np.full((4, n), math.inf))


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
    dp: DiseaseParams,
) -> None:
    """Draw person ``k``'s whole future and write it to column ``k`` of ``state.times``.

    Draw order (symptomaticity, incubation, recovery) is part of the
    determinism contract.
    """
    u = state.rng.random()
    incubation_days = sample_incubation(state.rng, dp)
    recovery_days = sample_recovery(state.rng, dp)
    t_infectious = t_infected + dp.latency_s
    t_symptomatic = (
        t_infected + incubation_days * SECONDS_PER_DAY if u < dp.p_symptomatic else math.inf
    )
    state.times[:, k] = (t_infected, t_infectious, t_symptomatic,
                         t_infectious + recovery_days * SECONDS_PER_DAY)


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
        _schedule_infection(state, k, -dp.latency_s, dp)
    return state


def transmission_step(
    state: EpidemicState,
    obs: Observation,
    t: int,
    kp: KernelParams,
    dp: DiseaseParams,
    until: int | None = None,
) -> EpidemicState:
    """Advance a span of seconds from second ``t``: infect susceptibles, step the clock.

    Second ``t`` describes the instant at the current clock (caller aligns
    times), and each later second of the span the clock one second on.  The
    span runs to second ``until`` (exclusive; the default ``t + 1`` is one
    second), but it ends sooner: before the next change of the infectious
    set, at the end of the first second that infects someone, once it holds
    ``_SPAN_ELEMENTS`` rates, and in airborne mode before the next 60-s
    emission slot and before an emission it reads passes the horizon.  It
    always advances at least one second; the clock tells how far.

    Within a span the susceptibles, the sources and the emissions they read
    stay fixed, so its seconds are rated, drawn and recorded in one pass, bit
    for bit as one call per second would.  One uniform is drawn per
    susceptible non-immune person per second, in roster order, whether or
    not they can be infected that second; absent people neither transmit
    nor receive.  The people a second infects draw their clocks in roster
    order; which source infected them is not worked out.
    """
    n = len(state.person_ids)
    if obs.n_people != n:
        raise FrameRosterMismatch(f"observation has {obs.n_people} people, roster has {n}")
    stop = t + 1 if until is None else until
    if not 0 <= t < stop <= obs.session_length_s:
        raise ValueError(f"span [{t}, {stop}) is empty or outside the observation's "
                         f"{obs.session_length_s} s")
    now = state.clock
    susceptible, _, infectious, _ = _compartment_masks(state, now)
    sus_idx = np.flatnonzero(susceptible & ~state.immune)
    inf_idx = np.flatnonzero(infectious)
    airborne = kp.mode == TransmissionMode.AIRBORNE
    active = len(sus_idx) > 0 and len(inf_idx) > 0
    history = _usable_emissions(state, now, inf_idx) if airborne and active else []

    width = max(1, len(sus_idx)) * max(1, len(inf_idx), *map(len, history))
    span = min(stop - t, max(1, _SPAN_ELEMENTS // width))
    # the clock at each second of the span and after it, added one second at
    # a time as the per-second clock was; each bound below keeps a prefix
    times = np.ones(span + 1)
    times[0] = now
    seconds = np.cumsum(times, out=times)[:span]
    clocks = state.times[[0, 1, 3]]
    keep = seconds < clocks[clocks > now].min(initial=math.inf)
    if airborne:
        oldest = min((arr[0, 0] for arr in history if len(arr)), default=math.inf)
        keep &= seconds // EMISSION_SLOT_S == now // EMISSION_SLOT_S
        keep &= oldest >= seconds - EMISSION_HORIZON_S
    span = int(np.count_nonzero(keep))

    before = state.rng.bit_generator.state
    u = state.rng.random((span, len(sus_idx)))  # one per susceptible per second
    if active:
        beta = _frame_source_rates(obs, t, kp, seconds[:span], sus_idx, inf_idx, history)
        p = 1.0 - np.prod(1.0 - np.clip(beta, 0.0, 1.0), axis=-1)  # see module docstring
        hit = (u < p).any(axis=1)
        if hit.any():
            # the span ends with the first second that infects: the generator
            # goes back to before the span's draws and redraws through that
            # second, so the infections' own draws follow them as they did
            span = int(hit.argmax()) + 1
            state.rng.bit_generator.state = before
            state.rng.random((span, len(sus_idx)))
            last = span - 1
            for k in sus_idx[u[last] < p[last]].tolist():
                _schedule_infection(state, k, float(seconds[last]), dp)

    if airborne:
        _record_emissions(state, obs, t, seconds[:span], inf_idx)
    state.clock = float(times[span])
    return state


def _usable_emissions(state: EpidemicState, now: float, inf_idx: np.ndarray) -> list[np.ndarray]:
    """Each source's emissions that second ``now`` reads, as (k, 5) rows.

    The slots before the current one, oldest first, none older than the
    3-h horizon; rows of an earlier round of the ring are stale and left
    out.  No source has any before the first emission is recorded.
    """
    if state.emissions is None:
        return []
    current_slot = int(now // EMISSION_SLOT_S)
    rows = np.arange(current_slot - EMISSION_ROWS + 1, current_slot) % EMISSION_ROWS
    held = state.emissions[inf_idx[:, None], rows]
    usable = held[:, :, 0] >= now - EMISSION_HORIZON_S
    return [arr[ok] for arr, ok in zip(held, usable)]


def _frame_source_rates(
    obs: Observation,
    t: int,
    kp: KernelParams,
    seconds: np.ndarray,
    sus_idx: np.ndarray,
    inf_idx: np.ndarray,
    history: list[np.ndarray],
) -> np.ndarray:
    """Per-source rates (L, n_sus, n_inf) over the L seconds from ``t``.

    ``seconds`` holds the clock at each of them.  ``history`` holds each
    source's emissions (``_usable_emissions``, or empty outside airborne
    mode), which the caller keeps fixed over the span.
    """
    span = slice(t, t + len(seconds))
    present = obs.present[span]
    pos = np.where(present[..., None], obs.positions[span], 0.0)
    fac = np.where(present[..., None], obs.facings[span], 0.0)
    pos_sus, fac_sus = pos[:, sus_idx], fac[:, sus_idx]
    beta = kernel.rates_between(pos_sus, fac_sus, pos[:, inf_idx], fac[:, inf_idx], kp)
    sus_present = present[:, sus_idx]
    beta[~(sus_present[:, :, None] & present[:, None, inf_idx])] = 0.0

    # Emission weight keeps a stationary pair's integrated airborne hazard
    # aligned with the droplet hazard: each slot carries lambda * slot.
    weight = kp.lambda_decay / SECONDS_PER_HOUR * EMISSION_SLOT_S
    for col, arr in enumerate(history):
        if not len(arr):
            continue
        r = kernel.rates_between(pos_sus, fac_sus, arr[:, 1:3], arr[:, 3:5], kp)
        decay = np.exp(-kp.lambda_decay * (seconds[:, None] - arr[:, 0]) / SECONDS_PER_HOUR)
        extra = (r * decay[:, None, :]).sum(axis=-1) * weight
        beta[:, :, col] += np.where(sus_present, extra, 0.0)
    return beta


def _record_emissions(state, obs, t, seconds, inf_idx) -> None:
    """Buffer each source's emission of the slot the span's ``seconds`` lie in.

    A source emits at its first present second of the slot; a row still
    holding an earlier slot is free.
    """
    if state.emissions is None:
        state.emissions = np.full((len(state.person_ids), EMISSION_ROWS, 5), -math.inf)
    slot = int(float(seconds[0]) // EMISSION_SLOT_S)
    row = state.emissions[:, slot % EMISSION_ROWS]
    present = obs.present[t:t + len(seconds)]
    for j in inf_idx:
        if row[j, 0] < slot * EMISSION_SLOT_S and present[:, j].any():
            i = int(present[:, j].argmax())
            row[j] = seconds[i], *obs.positions[t + i, j], *obs.facings[t + i, j]


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
    return (cum - base).cumsum(axis=-1)[..., -1]


def _first_crossing(cum, col, since, lo, hi, threshold) -> int:
    """First second in [lo, hi) whose hazard accrued since ``since`` passes ``threshold``.

    ``cum`` is a (seconds, pairs) running sum and ``col`` the columns of one
    susceptible's sources.  A two-level search: the accrued hazard at the
    last second of each block of isqrt(hi - lo) seconds picks the block,
    then the same search runs over that block's seconds.  Each second's
    value is the ``_accrued`` of that second alone, and the series never
    falls, so this returns the second ``bisect.bisect_right`` would, and
    ``hi`` when no second passes.
    """
    width = math.isqrt(hi - lo)
    ends = np.arange(lo + width - 1, hi + width - 1, width)
    ends[-1] = hi - 1  # the last block may be short
    block = int(_accrued(cum[ends[:, None], col], since).searchsorted(threshold, side="right"))
    if block == len(ends):
        return hi
    first = lo + block * width
    rows = cum[first:min(first + width, hi), col]
    return first + int(_accrued(rows, since).searchsorted(threshold, side="right"))


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

    Equal in distribution to calling ``transmission_step`` on every second,
    but evaluated in segments between transition events of the infectious
    set.  Within a segment each present susceptible draws one Exp(1)
    threshold and is infected at the first second at which its cumulative
    hazard from the infectious people, counted from the segment start,
    exceeds it (see the module docstring for why this is exact).  A
    segment's susceptibles, sources and end come from one Python pass over
    the roster, so an idle segment (no susceptible or no source) costs no
    numpy call.  An infection's second comes from a two-level search
    (``_first_crossing``) that reads about 2*sqrt(L) of the segment's L
    seconds, not all of them.

    ``hazard`` may carry the precomputed cumulative hazard of the source
    observation, ``kernel.cumulative_hazard`` of its pair triangle
    (``kernel.pair_rates``, shape (T, M(M-1)/2)).  ``pairs`` is the (n, n)
    map from a pair of this state's roster positions to that pair's
    column, ``kernel.pair_index(M)`` restricted to the roster, so half-class
    runs reuse a full-roster cache; it defaults to ``kernel.pair_index(n)``,
    a cache of this roster itself.  Without a cache, each segment rates only
    its own (susceptible, source) pairs over its own seconds and accumulates
    them the same way.  The rates are bitwise symmetric in the pair, so both
    paths rate every pair-second to the same bits.  Their accrued sums can
    differ in the last bits: the cache differences a running sum from the
    session's first second, a segment sums from its own first second.  So
    the two paths agree in distribution, and in every seed the tests pin,
    not bit for bit.  ``scenario.run_simulation`` reads a cache whenever the
    recording fits one; the uncached path serves recordings past the cap
    and direct calls without a hazard.

    Airborne mode reads no cache: the session is a loop of
    ``transmission_step`` spans, which keeps the emission ring.
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
        t = 0
        while t < t_total:
            transmission_step(state, obs, t, kp, dp, until=t_total)
            t = round(state.clock - session_start_s)
        return state

    if hazard is not None:
        if hazard.ndim != 2:
            raise ValueError(f"hazard cache must be (seconds, pairs), got shape {hazard.shape}")
        if hazard.shape[0] != t_total:
            raise ValueError(f"hazard cache covers {hazard.shape[0]} s, session is {t_total} s")
        if pairs is None:
            pairs = kernel.pair_index(n)

    latency_steps = max(1, math.floor(dp.latency_s))
    # the clock rows as lists, so a segment's sets cost no numpy call;
    # an infection refreshes its own entries
    t_inf, t_on, _, t_off = state.times.tolist()
    immune = state.immune.tolist()

    cursor = 0
    while cursor < t_total:
        now = session_start_s + cursor
        # one pass over the roster: the susceptibles who are not immune, the
        # sources, and the next infectious-set change (someone turning
        # infectious or recovering), by the comparisons of _compartment_masks
        sus_idx, inf_idx, change = [], [], math.inf
        for k in range(n):
            if not now >= t_inf[k]:
                if not immune[k]:
                    sus_idx.append(k)
                continue
            if not now >= t_on[k]:
                at = t_on[k] - session_start_s
            elif not now >= t_off[k]:
                inf_idx.append(k)
                at = t_off[k] - session_start_s
            else:
                continue
            if cursor < at < change:
                change = at
        # the segment ends at the first second at/after that change, capped
        # so no one infected inside it could turn infectious before it ends;
        # the change is compared before rounding, as it may be +inf
        seg_end = min(t_total, cursor + latency_steps)
        if change < seg_end:
            seg_end = math.ceil(change)
        if not sus_idx or not inf_idx:
            cursor = seg_end
            continue

        # cols[s, i]: the hazard column of susceptible s and source i
        if hazard is not None:
            cum, lo, cols = hazard, cursor, pairs.take(sus_idx, 0).take(inf_idx, 1)
        else:
            seconds = slice(cursor, seg_end)
            rates = kernel.pair_rates(
                obs.positions[seconds], obs.facings[seconds], obs.present[seconds], kp,
                ([s for s in sus_idx for _ in inf_idx], inf_idx * len(sus_idx)),
            )
            cum, lo = kernel.cumulative_hazard(rates), 0
            cols = np.arange(rates.shape[1]).reshape(len(sus_idx), len(inf_idx))
        hi = lo + seg_end - cursor
        base = cum[lo - 1][cols] if lo > 0 else np.zeros(cols.shape)
        total = _accrued(cum[hi - 1][cols], base)
        thresholds = state.rng.standard_exponential(len(sus_idx))
        hits = []  # (second, index into sus_idx): scheduled in that order
        for pos in (thresholds < total).nonzero()[0].tolist():
            t = _first_crossing(cum, cols[pos], base[pos], lo, hi, thresholds[pos])
            hits.append((t - lo, pos))
        for t_rel, pos in sorted(hits):
            k = sus_idx[pos]
            _schedule_infection(state, k, session_start_s + (cursor + t_rel), dp)
            t_inf[k], t_on[k], _, t_off[k] = state.times[:, k].tolist()
        cursor = seg_end

    state.clock = session_start_s + t_total
    return state


# ---------------------------------------------------------------------------
# a run's clocks and counts
# ---------------------------------------------------------------------------

def event_log(state: EpidemicState, horizon_s: float) -> np.ndarray:
    """Every person's transition times up to the horizon: a (4, n) array.

    A copy of ``state.times`` (rows infection, infectiousness, symptom onset
    and recovery, columns the roster) in which a time past the horizon reads
    ``inf``, like one never set.  Symptom onsets scheduled by the disease
    clocks are kept even when they land after the epidemic has burnt out, as
    long as they fall inside the horizon (the observation window of every
    metric).
    """
    return np.where(state.times > horizon_s, math.inf, state.times)


def hourly_compartment_counts(times: np.ndarray, horizon_hours: int) -> np.ndarray:
    """(S, E, I, R) counts at each hour boundary 0..horizon_hours inclusive.

    Counted from a run's clock array (``event_log``), whose columns are the
    roster, up to a horizon at or past the last boundary: a boundary
    counts the transitions of each kind at or before it.  Returned array
    has shape (horizon_hours + 1, 4).
    """
    bounds = np.arange(horizon_hours + 1, dtype=float) * SECONDS_PER_HOUR
    # people ever infected, ever infectious and recovered at or before each bound
    e, i, r = (np.searchsorted(np.sort(times[row]), bounds, "right") for row in (0, 1, 3))
    return np.stack([times.shape[1] - e, e - i, i - r, r], axis=1).astype(np.int64)
