"""Policy outcomes computed from collections of run outcomes.

Saturation counts everyone ever infected (patient zero included) against the
run's roster.  "Infected" in the hourly curves is likewise cumulative
(E + I + R), which keeps the curves monotone.  The transmission likelihood
``beta_hat_t`` is a run's ``beta_hat`` (``kernel.mean_pair_rate`` over its
roster's ``kernel.pair_totals``: the mean pairwise kernel rate over every
co-present pair-second of the session) times the total scheduled class time
over the horizon; it predicts per-individual infection probability without
running any dynamics.

Aggregations use exact integer sums wherever possible so results are
independent of reduction order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import epidemic
from .errors import EmptyCollection, MixedCohorts
from .kernel import SECONDS_PER_DAY
from .scenario import RunOutcome


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
    return int(np.isfinite(outcome.times[0]).sum())


def saturation(outcome: RunOutcome) -> float:
    """Fraction of the run's roster ever infected."""
    return ever_infected(outcome) / len(outcome.roster_ids)


def _nth_onsets(onset_days, n: int) -> list[float | None]:
    """Each run's nth symptomatic onset day, None where it never occurs."""
    if n not in (1, 2, 3):
        raise ValueError(f"n must be 1, 2 or 3, got {n}")
    days = [run[n - 1] for run in onset_days]
    if not days:
        raise EmptyCollection("no runs supplied")
    return days


def emergence_proportion(onset_days, n: int) -> float:
    """Fraction of runs in which the nth symptomatic case never emerges.

    ``onset_days`` holds each run's ``OutcomeSummary.t_symptomatic_days``.
    """
    days = _nth_onsets(onset_days, n)
    return sum(1 for d in days if d is None) / len(days)


def median_emergence_days(onset_days, n: int) -> float | None:
    """Median days to the nth symptomatic case, treating non-emergence as +inf.

    ``onset_days`` is as for ``emergence_proportion``.  None when the median
    itself is "never" (at least half the runs have no nth case), mirroring a
    not-observed report.
    """
    days = _nth_onsets(onset_days, n)
    med = float(np.median([math.inf if d is None else d for d in days]))
    return med if math.isfinite(med) else None


class HourlySums:
    """Integer-exact sums of hourly compartment counts, one run at a time.

    Every run must share the first run's roster size and horizon.  Each
    run's counts come from its clock array (``RunOutcome.times``), so no
    per-run hourly array is kept, and the sums do not depend on the order
    runs are added in.
    """

    def __init__(self):
        self.n_runs = 0
        self.roster = self.horizon = None
        self.s1 = self.s2 = 0  # per hour: S, E, I, R and infected (E + I + R)

    def add(self, outcome: RunOutcome) -> None:
        roster = len(outcome.roster_ids)
        if not self.n_runs:
            self.roster, self.horizon = roster, outcome.horizon_days
        elif (roster, outcome.horizon_days) != (self.roster, self.horizon):
            raise MixedCohorts(
                f"roster {roster}/horizon {outcome.horizon_days} does not "
                f"match {self.roster}/{self.horizon}"
            )
        counts = epidemic.hourly_compartment_counts(outcome.times, self.horizon * 24)
        x = np.column_stack([counts, roster - counts[:, 0]])
        self.s1, self.s2 = self.s1 + x, self.s2 + x * x
        self.n_runs += 1

    def aggregate(self) -> HourlyAggregate:
        """Mean and population std of the added runs' hourly counts."""
        if not self.n_runs:
            raise EmptyCollection("no outcomes supplied")
        mean = self.s1 / self.n_runs
        std = np.sqrt(np.maximum(self.s2 / self.n_runs - mean * mean, 0.0))
        return HourlyAggregate(
            hours=np.arange(self.horizon * 24 + 1),
            mean_counts=mean[:, :4],
            std_counts=std[:, :4],
            mean_infected_prop=mean[:, 4] / self.roster,
            std_infected_prop=std[:, 4] / self.roster,
            n_runs=self.n_runs,
            roster_size=self.roster,
        )


def aggregate_hourly(outcomes) -> HourlyAggregate:
    """``HourlySums.aggregate`` of an iterable of outcomes, folded as it is read."""
    sums = HourlySums()
    for outcome in outcomes:
        sums.add(outcome)
    return sums.aggregate()


def summarize_run(outcome: RunOutcome) -> OutcomeSummary:
    """Scalar summary of one run.

    Its first three symptomatic onsets are the three smallest finite
    entries of row 2 of its clock array (``RunOutcome.times``), in days
    from Day 0, None past the last.  This is the only place onsets are read.
    """
    first = np.sort(outcome.times[2])[:3]
    onsets = first[np.isfinite(first)].tolist()
    return OutcomeSummary(
        saturation=saturation(outcome),
        beta_hat=outcome.beta_hat,
        exposure_t_s=outcome.exposure_t_s,
        beta_hat_t=outcome.beta_hat * outcome.exposure_t_s,
        t_symptomatic_days=tuple(
            [t / SECONDS_PER_DAY for t in onsets] + [None] * (3 - len(onsets))),
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
    """groups: scenario name -> each run's ``t_symptomatic_days``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(EMERGENCE_HEADER)
        for scenario in sorted(groups):
            onset_days = groups[scenario]
            for n in (1, 2, 3):
                w.writerow([
                    scenario, n,
                    _fmt(emergence_proportion(onset_days, n)),
                    _fmt(median_emergence_days(onset_days, n)),
                ])
