"""Event-log reference for the emergence metrics.

``classim.metrics`` reads a run's symptomatic onsets from its event log once,
in ``summarize_run``, and the emergence metrics take those onset days.  They
once read every run's event log again for each n.  That derivation is kept
here so the tests can compare the onset-day metrics against it bit for bit.
"""

import math

import numpy as np

from classim.errors import EmptyCollection
from classim.scenario import RunOutcome

SECONDS_PER_DAY = 86400.0


def nth_symptomatic(outcome: RunOutcome, n: int) -> float | None:
    """Days from Day 0 to the nth symptomatic onset; None if it never occurs."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    onsets = sorted(e.t_s for e in outcome.events if e.kind == "symptomatic")
    if len(onsets) < n:
        return None
    return onsets[n - 1] / SECONDS_PER_DAY


def emergence_proportion(outcomes, n: int) -> float:
    """Fraction of runs in which the nth symptomatic case never emerges."""
    outcomes = list(outcomes)
    if not outcomes:
        raise EmptyCollection("no outcomes supplied")
    misses = sum(1 for o in outcomes if nth_symptomatic(o, n) is None)
    return misses / len(outcomes)


def median_emergence_days(outcomes, n: int) -> float | None:
    """Median days to the nth symptomatic case, treating non-emergence as +inf;
    None when that median is "never"."""
    outcomes = list(outcomes)
    if not outcomes:
        raise EmptyCollection("no outcomes supplied")
    values = np.array(
        [v if (v := nth_symptomatic(o, n)) is not None else math.inf for o in outcomes]
    )
    med = float(np.median(values))
    return med if math.isfinite(med) else None
