"""Mask-based references for compartments, the hourly counts and their aggregate.

``classim.epidemic.hourly_compartment_counts`` counts a run's event log.
Runs once counted their run state instead: a (hours, people) mask per
compartment, taken straight from the per-person transition times, and every
run's (H+1, 4) array was stacked before the moments were taken.  Both are
kept here so the tests can compare the event-log counts and the folded
aggregate against them bit for bit.  ``compartment_at`` reads one person's
compartment from the same transition times; no run path needs it.
"""

import numpy as np

from classim.epidemic import SECONDS_PER_HOUR, EpidemicState


def compartment_at(state: EpidemicState, k: int, t: float) -> str:
    """Compartment letter ("S", "E", "I" or "R") of roster position ``k`` at time ``t``."""
    infected, infectious, recovered = (
        t >= times[k] for times in (state.t_infected, state.t_infectious, state.t_recovered))
    masks = not infected, infected and not infectious, infectious and not recovered, recovered
    return next(c for c, m in zip("SEIR", masks) if m)


def mask_counts(state: EpidemicState, horizon_hours: int) -> np.ndarray:
    """(S, E, I, R) counts at each hour boundary 0..horizon_hours, from the state."""
    times = np.arange(horizon_hours + 1, dtype=float)[:, None] * SECONDS_PER_HOUR
    infected = times >= state.t_infected
    infectious = times >= state.t_infectious
    recovered = times >= state.t_recovered
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
