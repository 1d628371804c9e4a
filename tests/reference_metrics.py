"""Event-log reference for a run's outcome metrics.

A run's outcome was once a time-ordered tuple of ``Event`` objects, one per
transition up to the horizon, built by ``event_log`` below, and the metrics
read it apart again: saturation as a set of infected people, the hourly
counts as one sorted list of times per kind, and the onsets as a sorted
list of symptomatic times.  ``classim`` now reads all three from the run's
(4, n) clock array (``RunOutcome.times``).  That derivation is kept here so
the tests can compare the array metrics against it bit for bit.

``classim.metrics`` reads a run's onsets once, in ``summarize_run``, and the
emergence metrics take those onset days.  They once read every run's event
log again for each n; that derivation is kept here too.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from classim.errors import EmptyCollection
from classim.scenario import RunOutcome

SECONDS_PER_DAY = 86400.0
SECONDS_PER_HOUR = 3600.0

EVENT_ORDER = {"infected": 0, "infectious": 1, "symptomatic": 2, "recovered": 3}


@dataclass(frozen=True, slots=True)
class Event:
    kind: str
    person_id: str
    t_s: float


def event_log(state, horizon_s: float) -> tuple[Event, ...]:
    """All transition events up to the horizon, time-ordered.

    ``state`` has the ``person_ids`` and the (4, n) ``times`` of an
    ``EpidemicState``.  No event names an infector.  Symptom onsets
    scheduled by the disease clocks are reported even when they land after
    the epidemic has burnt out, as long as they fall inside the horizon.
    """
    ids = state.person_ids
    rows = zip(ids, *state.times.tolist())
    events = []
    for pid, *times in rows:
        for kind, t in zip(EVENT_ORDER, times):
            if t <= horizon_s:
                events.append(Event(kind, pid, t))
    events.sort(key=lambda e: (e.t_s, EVENT_ORDER[e.kind], e.person_id))
    return tuple(events)


def outcome_log(outcome: RunOutcome) -> tuple[Event, ...]:
    """``event_log`` of an outcome's clock array, over its own horizon."""
    state = SimpleNamespace(person_ids=outcome.roster_ids, times=outcome.times)
    return event_log(state, outcome.horizon_days * SECONDS_PER_DAY)


def ever_infected(events) -> int:
    """People with an infection event."""
    return len({e.person_id for e in events if e.kind == "infected"})


def hourly_counts(events, roster_size: int, horizon_hours: int) -> np.ndarray:
    """(S, E, I, R) counts at each hour boundary 0..horizon_hours, from an event log."""
    bounds = np.arange(horizon_hours + 1, dtype=float) * SECONDS_PER_HOUR
    e, i, r = (np.searchsorted(np.sort([ev.t_s for ev in events if ev.kind == kind]), bounds, "right")
               for kind in ("infected", "infectious", "recovered"))
    return np.stack([roster_size - e, e - i, i - r, r], axis=1).astype(np.int64)


def first_onsets(events) -> list[float]:
    """The first three symptomatic onset times, in seconds."""
    return sorted(e.t_s for e in events if e.kind == "symptomatic")[:3]


def nth_symptomatic(outcome: RunOutcome, n: int) -> float | None:
    """Days from Day 0 to the nth symptomatic onset; None if it never occurs."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    onsets = sorted(e.t_s for e in outcome_log(outcome) if e.kind == "symptomatic")
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
