"""References for the session engine, compartments, the hourly counts and their aggregate.

``classim.epidemic.hourly_compartment_counts`` counts a run's clock array.
Runs once counted their run state instead: a (hours, people) mask per
compartment, taken straight from the per-person transition times, and every
run's (H+1, 4) array was stacked before the moments were taken.  Both are
kept here so the tests can compare the array counts and the folded
aggregate against them bit for bit.  ``compartment_at`` reads one person's
compartment from the same transition times; no run path needs it.

``simulate_session_bisect`` is the droplet session engine as it was before
its segment bookkeeping moved into one Python pass over the roster: each
segment's sets come from ``_compartment_masks`` and each infection's second
from ``first_crossing_bisect``, a bisection over the accrued hazard.  The
tests compare ``classim.epidemic.simulate_session`` and its two-level
crossing search against them bit for bit.
"""

import bisect
import math

import numpy as np

from classim import kernel
from classim.epidemic import (
    SECONDS_PER_HOUR,
    EpidemicState,
    _accrued,
    _compartment_masks,
    _schedule_infection,
)


def first_crossing_bisect(cum, col, since, lo, hi, threshold) -> int:
    """First second in [lo, hi) whose hazard accrued since ``since`` passes ``threshold``."""
    return lo + bisect.bisect_right(
        range(lo, hi), threshold, key=lambda s: _accrued(cum[s, col], since))


def simulate_session_bisect(state, obs, session_start_s, kp, dp, hazard=None, pairs=None):
    """Replay one droplet session by masks and bisection; see the module docstring."""
    n = len(state.person_ids)
    t_total = obs.session_length_s
    if hazard is not None and pairs is None:
        pairs = kernel.pair_index(n)
    latency_steps = max(1, math.floor(dp.latency_s))

    cursor = 0
    while cursor < t_total:
        now = session_start_s + cursor
        susceptible, exposed, infectious, _ = _compartment_masks(state, now)
        changes = np.concatenate(
            [state.times[1, exposed], state.times[3, infectious]]
        )
        frames = np.ceil(changes - session_start_s)  # first frame at/after
        seg_end = int(min(t_total, cursor + latency_steps,
                          frames[frames > cursor].min(initial=t_total)))

        sus_idx = np.flatnonzero(susceptible & ~state.immune)
        inf_idx = np.flatnonzero(infectious)
        if len(sus_idx) == 0 or len(inf_idx) == 0:
            cursor = seg_end
            continue

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
            t = first_crossing_bisect(cum, col, since, lo, hi, thresholds[pos])
            hits.append((t - lo, int(pos)))
        for t_rel, pos in sorted(hits):
            t_abs = session_start_s + (cursor + t_rel)
            _schedule_infection(state, int(sus_idx[pos]), t_abs, dp)
        cursor = seg_end

    state.clock = session_start_s + t_total
    return state


def compartment_at(state: EpidemicState, k: int, t: float) -> str:
    """Compartment letter ("S", "E", "I" or "R") of roster position ``k`` at time ``t``."""
    infected, infectious, recovered = (
        t >= state.times[row, k] for row in (0, 1, 3))
    masks = not infected, infected and not infectious, infectious and not recovered, recovered
    return next(c for c, m in zip("SEIR", masks) if m)


def mask_counts(state: EpidemicState, horizon_hours: int) -> np.ndarray:
    """(S, E, I, R) counts at each hour boundary 0..horizon_hours, from the state."""
    times = np.arange(horizon_hours + 1, dtype=float)[:, None] * SECONDS_PER_HOUR
    infected = times >= state.times[0]
    infectious = times >= state.times[1]
    recovered = times >= state.times[3]
    masks = ~infected, infected & ~infectious, infectious & ~recovered, recovered
    return np.stack([m.sum(axis=1) for m in masks], axis=1).astype(np.int64)


def stacked_moments(counts_per_run, roster: int):
    """(mean, std, mean infected share, std infected share) of stacked run counts."""
    counts = np.stack(counts_per_run).astype(np.int64)  # (R, H+1, 4)
    n = counts.shape[0]
    s1 = counts.sum(axis=0)
    s2 = (counts * counts).sum(axis=0)
    mean = s1 / n
    var = np.maximum(s2 / n - mean * mean, 0.0)
    infected = counts[:, :, 1] + counts[:, :, 2] + counts[:, :, 3]
    i1 = infected.sum(axis=0)
    i2 = (infected * infected).sum(axis=0)
    imean = i1 / n
    ivar = np.maximum(i2 / n - imean * imean, 0.0)
    return mean, np.sqrt(var), imean / roster, np.sqrt(ivar) / roster
