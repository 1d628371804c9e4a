"""Policy outcomes computed from collections of run outcomes.

Saturation counts everyone ever infected (patient zero included) against the
run's roster.  "Infected" in the hourly curves is likewise cumulative
(E + I + R), which keeps the curves monotone.  The transmission likelihood
is the mean pairwise kernel rate over every co-present pair-second of the
session, times the total scheduled class time over the horizon; it predicts
per-individual infection probability without running any dynamics.

Aggregations use exact integer sums wherever possible so results are
independent of reduction order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import epidemic, kernel
from .errors import EmptyCollection, MixedCohorts, SinglePerson
from .kernel import KernelParams
from .scenario import RunOutcome
from .trajectory import Observation

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class OutcomeSummary:
    """Scalar policy metrics of one run."""

    saturation: float
    beta_hat: float
    exposure_t_s: float
    beta_hat_t: float
    t_symptomatic_days: tuple[float | None, float | None, float | None]


@dataclass(frozen=True)
class HourlyAggregate:
    """Mean/std compartment counts per hour boundary across runs."""

    hours: np.ndarray           # (H+1,)
    mean_counts: np.ndarray     # (H+1, 4) S/E/I/R
    std_counts: np.ndarray      # (H+1, 4)
    mean_infected_prop: np.ndarray
    std_infected_prop: np.ndarray
    n_runs: int
    roster_size: int


def ever_infected(outcome: RunOutcome) -> int:
    """Number of people infected at any point, patient zero included."""
    return len({e.person_id for e in outcome.events if e.kind == "infected"})


def saturation(outcome: RunOutcome) -> float:
    """Fraction of the run's roster ever infected."""
    return ever_infected(outcome) / len(outcome.roster_ids)


def transmission_likelihood(
    obs: Observation,
    kp: KernelParams,
    horizon_sessions: int,
) -> tuple[float, float, float]:
    """(beta_hat, T, beta_hat * T) for an observation.

    beta_hat averages the pairwise rate over all unordered pairs and seconds
    where both people are present; pair-seconds with an absent member count
    in neither numerator nor denominator.  T is the total scheduled in-class
    time: session length times the number of sessions.
    """
    if obs.n_people < 2:
        raise SinglePerson(f"need >= 2 people, roster has {obs.n_people}")
    beta_hat = kernel.mean_pair_rate(
        *kernel.pair_totals(obs.positions, obs.facings, obs.present, kp))
    t_exposure = float(obs.session_length_s) * horizon_sessions
    return beta_hat, t_exposure, beta_hat * t_exposure


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
    """Median days to the nth symptomatic case, treating non-emergence as +inf.

    None when the median itself is "never" (at least half the runs have no
    nth case), mirroring a not-observed report.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise EmptyCollection("no outcomes supplied")
    values = np.array(
        [v if (v := nth_symptomatic(o, n)) is not None else math.inf for o in outcomes]
    )
    med = float(np.median(values))
    return med if math.isfinite(med) else None


def aggregate_hourly(outcomes) -> HourlyAggregate:
    """Mean and population std of hourly compartment counts across runs.

    All outcomes must share roster size and horizon.  Each run's counts come
    from its event log and fold into integer-exact sums, so the result does
    not depend on accumulation order.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise EmptyCollection("no outcomes supplied")
    roster = len(outcomes[0].roster_ids)
    horizon = outcomes[0].horizon_days
    s1 = s2 = i1 = i2 = 0
    for o in outcomes:
        if len(o.roster_ids) != roster or o.horizon_days != horizon:
            raise MixedCohorts(
                f"roster {len(o.roster_ids)}/horizon {o.horizon_days} does not "
                f"match {roster}/{horizon}"
            )
        counts = epidemic.hourly_compartment_counts(o.events, roster, horizon * 24)  # (H+1, 4)
        infected = roster - counts[:, 0]  # E + I + R
        s1, s2 = s1 + counts, s2 + counts * counts
        i1, i2 = i1 + infected, i2 + infected * infected
    n = len(outcomes)
    mean = s1 / n
    var = np.maximum(s2 / n - mean * mean, 0.0)
    imean = i1 / n
    ivar = np.maximum(i2 / n - imean * imean, 0.0)
    return HourlyAggregate(
        hours=np.arange(horizon * 24 + 1),
        mean_counts=mean,
        std_counts=np.sqrt(var),
        mean_infected_prop=imean / roster,
        std_infected_prop=np.sqrt(ivar) / roster,
        n_runs=n,
        roster_size=roster,
    )


def summarize_run(outcome: RunOutcome) -> OutcomeSummary:
    """Scalar summary of one run."""
    return OutcomeSummary(
        saturation=saturation(outcome),
        beta_hat=outcome.beta_hat,
        exposure_t_s=outcome.exposure_t_s,
        beta_hat_t=outcome.beta_hat * outcome.exposure_t_s,
        t_symptomatic_days=tuple(nth_symptomatic(outcome, n) for n in (1, 2, 3)),
    )


# ---------------------------------------------------------------------------
# CSV outputs
# ---------------------------------------------------------------------------

SUMMARY_HEADER = [
    "scenario", "observation", "patient_zero", "seed", "saturation",
    "beta_hat", "T", "beta_hat_T", "t_sympt_1", "t_sympt_2", "t_sympt_3",
]
CURVES_HEADER = [
    "scenario", "hour", "mean_infected_prop", "std_infected_prop",
    "mean_S", "mean_E", "mean_I", "mean_R",
]
EMERGENCE_HEADER = ["scenario", "n", "proportion_not_emerged", "median_days"]


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def write_summary_csv(path: str | Path, rows) -> None:
    """rows: iterable of (RunOutcome, OutcomeSummary) in final order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(SUMMARY_HEADER)
        for outcome, summary in rows:
            t1, t2, t3 = summary.t_symptomatic_days
            w.writerow([
                outcome.scenario, outcome.observation_id, outcome.patient_zero,
                outcome.seed, _fmt(summary.saturation), _fmt(summary.beta_hat),
                _fmt(summary.exposure_t_s), _fmt(summary.beta_hat_t),
                _fmt(t1), _fmt(t2), _fmt(t3),
            ])


def write_curves_csv(path: str | Path, aggregates: dict[str, HourlyAggregate]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CURVES_HEADER)
        for scenario in sorted(aggregates):
            agg = aggregates[scenario]
            for h in range(len(agg.hours)):
                w.writerow([
                    scenario, int(agg.hours[h]),
                    _fmt(agg.mean_infected_prop[h]), _fmt(agg.std_infected_prop[h]),
                    _fmt(agg.mean_counts[h, 0]), _fmt(agg.mean_counts[h, 1]),
                    _fmt(agg.mean_counts[h, 2]), _fmt(agg.mean_counts[h, 3]),
                ])


def write_emergence_csv(path: str | Path, groups: dict[str, list]) -> None:
    """groups: scenario name -> outcomes of that scenario."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(EMERGENCE_HEADER)
        for scenario in sorted(groups):
            outcomes = groups[scenario]
            for n in (1, 2, 3):
                w.writerow([
                    scenario, n,
                    _fmt(emergence_proportion(outcomes, n)),
                    _fmt(median_emergence_days(outcomes, n)),
                ])
