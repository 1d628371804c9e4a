import csv
import dataclasses
import math

import numpy as np
import pytest

from classim.epidemic import Event
from classim.errors import EmptyCollection, MixedCohorts, SinglePerson
from classim.kernel import KernelParams, pair_rate, relative_geometry
from classim.metrics import (
    aggregate_hourly,
    emergence_proportion,
    median_emergence_days,
    nth_symptomatic,
    saturation,
    summarize_run,
    transmission_likelihood,
    write_curves_csv,
    write_emergence_csv,
    write_summary_csv,
    CURVES_HEADER,
    EMERGENCE_HEADER,
    SUMMARY_HEADER,
)
from classim.scenario import RunOutcome
from classim.trajectory import Observation, Person, Role

DAY = 86400.0
KP = KernelParams(beta_max=1.0)


def _outcome(events, roster=10, horizon_days=28, hourly=None):
    n_hours = horizon_days * 24 + 1
    if hourly is None:
        hourly = np.zeros((n_hours, 4), dtype=np.int64)
        hourly[:, 0] = roster
    return RunOutcome(
        scenario="full-novax",
        observation_id="obs",
        patient_zero="p0",
        seed=1,
        roster_ids=tuple(f"p{k}" for k in range(roster)),
        immune_ids=frozenset(),
        events=tuple(events),
        hourly_counts=hourly,
        final_counts=tuple(int(x) for x in hourly[-1]),
        horizon_days=horizon_days,
        beta_hat=2e-5,
        exposure_t_s=3600.0,
    )


def _infected(pid, t, src=None):
    return Event("infected", pid, t, src)


def _sympt(pid, t):
    return Event("symptomatic", pid, t)


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------

def test_saturation_patient_zero_only():
    out = _outcome([_infected("p0", -DAY)], roster=10)
    assert saturation(out) == pytest.approx(0.1)


def test_saturation_everyone():
    events = [_infected(f"p{k}", k * 100.0) for k in range(10)]
    assert saturation(_outcome(events, roster=10)) == 1.0


def test_saturation_six_of_thirteen():
    events = [_infected(f"p{k}", k * 100.0) for k in range(6)]
    assert saturation(_outcome(events, roster=13)) == pytest.approx(6 / 13)


# ---------------------------------------------------------------------------
# transmission likelihood
# ---------------------------------------------------------------------------

def _stationary_obs(coords, facings, t_total, present=None):
    n = len(coords)
    roster = tuple(Person(f"p{k}", Role.CHILD) for k in range(n))
    pos = np.tile(np.asarray(coords, dtype=float), (t_total, 1, 1))
    fac = np.tile(np.asarray(facings, dtype=float), (t_total, 1, 1))
    if present is None:
        present = np.ones((t_total, n), dtype=bool)
    return Observation(class_id="m", roster=roster, room_area_m2=50.0,
                       positions=pos, facings=fac, present=present)


def test_constant_pair_beta_hat_exact():
    obs = _stationary_obs([(0, 0), (1.5, 0)], [(1, 0), (-1, 0)], 50)
    g = relative_geometry((0, 0), (1, 0), (1.5, 0), (-1, 0))
    beta_hat, t_exp, prod = transmission_likelihood(obs, KP, horizon_sessions=20)
    assert beta_hat == pytest.approx(pair_rate(g, KP), rel=1e-12)
    assert t_exp == 50.0 * 20
    assert prod == pytest.approx(beta_hat * t_exp, rel=1e-12)


def test_distant_agents_rate_vanishes():
    obs = _stationary_obs([(0, 0), (25, 0)], [(1, 0), (-1, 0)], 10)
    beta_hat, _, _ = transmission_likelihood(obs, KP, 1)
    assert beta_hat < KP.beta_max * math.exp(-50)


def test_three_agent_brute_force():
    rng = np.random.default_rng(3)
    t_total = 40
    n = 3
    pos = rng.uniform(0, 6, size=(t_total, n, 2))
    ang = rng.uniform(0, 2 * math.pi, size=(t_total, n))
    fac = np.stack([np.cos(ang), np.sin(ang)], axis=2)
    present = rng.random((t_total, n)) > 0.25
    roster = tuple(Person(f"p{k}", Role.CHILD) for k in range(n))
    obs = Observation(class_id="bf", roster=roster, room_area_m2=36.0,
                      positions=np.where(present[:, :, None], pos, np.nan),
                      facings=np.where(present[:, :, None], fac, np.nan),
                      present=present)
    beta_hat, _, _ = transmission_likelihood(obs, KP, 1)
    # independent brute force over scalar kernel calls
    total, count = 0.0, 0
    for t in range(t_total):
        for i in range(n):
            for j in range(i + 1, n):
                if present[t, i] and present[t, j]:
                    g = relative_geometry(pos[t, i], fac[t, i], pos[t, j], fac[t, j])
                    total += pair_rate(g, KP)
                    count += 1
    assert beta_hat == pytest.approx(total / count, rel=1e-12)


def test_single_person_rejected():
    obs = _stationary_obs([(0, 0)], [(1, 0)], 5)
    with pytest.raises(SinglePerson):
        transmission_likelihood(obs, KP, 1)


def test_absent_seconds_excluded_from_average():
    present = np.ones((10, 2), dtype=bool)
    present[5:, 1] = False
    obs = _stationary_obs([(0, 0), (1, 0)], [(1, 0), (-1, 0)], 10, present=present)
    obs.positions[5:, 1] = np.nan
    obs.facings[5:, 1] = np.nan
    beta_hat, _, _ = transmission_likelihood(obs, KP, 1)
    g = relative_geometry((0, 0), (1, 0), (1, 0), (-1, 0))
    assert beta_hat == pytest.approx(pair_rate(g, KP), rel=1e-12)


def test_sweep_beta_hat_is_transmission_likelihood_of_run_roster():
    # the sweep reads beta_hat off the full-roster cache; it must equal the
    # metric recomputed on the run's own roster, bit for bit
    from classim.epidemic import DiseaseParams
    from classim.scenario import DensityVariant, ScenarioConfig, sweep

    rng = np.random.default_rng(11)
    t_total, n = 90, 7
    pos = rng.uniform(0, 6, size=(t_total, n, 2))
    ang = rng.uniform(0, 2 * math.pi, size=(t_total, n))
    fac = np.stack([np.cos(ang), np.sin(ang)], axis=2)
    present = rng.random((t_total, n)) > 0.2
    roster = tuple(Person(f"c{k}", Role.CHILD) for k in range(n - 1)) + (
        Person("t0", Role.TEACHER),)
    obs = Observation(class_id="bh", roster=roster, room_area_m2=36.0,
                      positions=np.where(present[:, :, None], pos, np.nan),
                      facings=np.where(present[:, :, None], fac, np.nan),
                      present=present)
    cells = [ScenarioConfig(density=d, horizon_days=3, reps_per_patient_zero=2, base_seed=2)
             for d in (DensityVariant.FULL, DensityVariant.HALF)]
    outs = sweep(obs, cells, KP, DiseaseParams(), workers=1)
    assert {len(o.roster_ids) for o in outs} == {n, 4}
    for o in outs:
        sub = obs.subset([obs.index_of(pid) for pid in o.roster_ids])
        assert o.beta_hat == transmission_likelihood(sub, KP, 1)[0]


# ---------------------------------------------------------------------------
# nth symptomatic / emergence
# ---------------------------------------------------------------------------

def test_nth_symptomatic_lookup():
    out = _outcome([_sympt("p0", 3.7 * DAY)])
    assert nth_symptomatic(out, 1) == pytest.approx(3.7)
    assert nth_symptomatic(out, 2) is None


def test_nth_symptomatic_empty():
    out = _outcome([])
    assert all(nth_symptomatic(out, n) is None for n in (1, 2, 3))


def test_nth_symptomatic_ordering():
    out = _outcome([_sympt("a", 4 * DAY), _sympt("b", 9 * DAY), _sympt("c", 12 * DAY)])
    assert nth_symptomatic(out, 3) == pytest.approx(12.0)
    assert nth_symptomatic(out, 1) == pytest.approx(4.0)


def test_nth_symptomatic_rejects_bad_n():
    with pytest.raises(ValueError):
        nth_symptomatic(_outcome([]), 0)


def test_emergence_proportion_all_present():
    outs = [_outcome([_sympt("a", 1 * DAY), _sympt("b", 2 * DAY), _sympt("c", 3 * DAY)])
            for _ in range(5)]
    for n in (1, 2, 3):
        assert emergence_proportion(outs, n) == 0.0


def test_emergence_proportion_none_symptomatic():
    outs = [_outcome([]) for _ in range(4)]
    for n in (1, 2, 3):
        assert emergence_proportion(outs, n) == 1.0


def test_emergence_proportion_mixed():
    outs = [_outcome([_sympt("a", DAY)]), _outcome([])]
    assert emergence_proportion(outs, 1) == 0.5


def test_emergence_empty_collection():
    with pytest.raises(EmptyCollection):
        emergence_proportion([], 1)


def test_median_emergence_not_observed():
    outs = [_outcome([_sympt("a", DAY)]), _outcome([]), _outcome([])]
    assert median_emergence_days(outs, 1) is None
    outs2 = [_outcome([_sympt("a", 2 * DAY)]) for _ in range(3)]
    assert median_emergence_days(outs2, 1) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# hourly aggregation
# ---------------------------------------------------------------------------

def _hourly(roster, horizon_days, infected_by_hour):
    n_hours = horizon_days * 24 + 1
    h = np.zeros((n_hours, 4), dtype=np.int64)
    for t in range(n_hours):
        inf = infected_by_hour(t)
        h[t, 0] = roster - inf
        h[t, 3] = inf
    return h


def test_aggregate_single_run_zero_std():
    out = _outcome([], hourly=_hourly(10, 28, lambda t: min(t // 24, 5)))
    agg = aggregate_hourly([out])
    assert (agg.std_counts == 0).all()
    assert (agg.std_infected_prop == 0).all()
    assert agg.n_runs == 1


def test_aggregate_two_point_moments():
    a = _outcome([], hourly=_hourly(10, 28, lambda t: 2))
    b = _outcome([], hourly=_hourly(10, 28, lambda t: 4))
    agg = aggregate_hourly([a, b])
    assert np.allclose(agg.mean_counts[:, 3], 3.0)
    assert np.allclose(agg.std_counts[:, 3], 1.0)
    assert np.allclose(agg.mean_infected_prop, 0.3)


def test_aggregate_mixed_cohorts_rejected():
    a = _outcome([], roster=10)
    b = _outcome([], roster=9)
    with pytest.raises(MixedCohorts):
        aggregate_hourly([a, b])


def test_aggregate_empty_rejected():
    with pytest.raises(EmptyCollection):
        aggregate_hourly([])


def test_cumulative_curve_monotone_from_simulation():
    from classim import synthgen
    from classim.epidemic import DiseaseParams
    from classim.scenario import ScenarioConfig, sweep

    obs = synthgen.generate(synthgen.SynthConfig(n_children=5, n_teachers=1,
                                                 session_length_s=300, seed=2))
    outs = sweep(obs, ScenarioConfig(horizon_days=7, reps_per_patient_zero=5, base_seed=4),
                 KernelParams(beta_max=3e-3), DiseaseParams(), workers=1)
    agg = aggregate_hourly(outs)
    assert (np.diff(agg.mean_infected_prop) >= -1e-12).all()


def test_median_emergence_non_decreasing_in_n():
    from classim import synthgen
    from classim.epidemic import DiseaseParams
    from classim.scenario import ScenarioConfig, sweep

    obs = synthgen.generate(synthgen.SynthConfig(n_children=6, n_teachers=1,
                                                 room_w=4.0, room_h=4.0,
                                                 session_length_s=600, seed=6))
    outs = sweep(obs, ScenarioConfig(horizon_days=21, reps_per_patient_zero=30, base_seed=8),
                 KernelParams(beta_max=2e-4), DiseaseParams(), workers=1)
    per_run_medians = []
    for n in (1, 2, 3):
        values = [v if (v := nth_symptomatic(o, n)) is not None else math.inf for o in outs]
        per_run_medians.append(np.median(values))
    assert per_run_medians[0] <= per_run_medians[1] <= per_run_medians[2]


def test_emergence_falls_as_symptomaticity_rises():
    # monotone under coupling: same seeds, higher p_symptomatic, fewer misses
    from classim import synthgen
    from classim.epidemic import DiseaseParams
    from classim.scenario import ScenarioConfig, sweep

    obs = synthgen.generate(synthgen.SynthConfig(n_children=5, n_teachers=1,
                                                 session_length_s=300, seed=2))
    sc = ScenarioConfig(horizon_days=14, reps_per_patient_zero=80, base_seed=13)
    kp = KernelParams(beta_max=1e-4)
    props = []
    for p_sym in (0.4, 0.9):
        outs = sweep(obs, sc, kp, DiseaseParams(p_symptomatic=p_sym), workers=1)
        props.append((emergence_proportion(outs, 1), len(outs)))
    (p_lo, n_lo), (p_hi, n_hi) = props
    pooled = (p_lo * n_lo + p_hi * n_hi) / (n_lo + n_hi)
    z = (p_lo - p_hi) / math.sqrt(pooled * (1 - pooled) * (1 / n_lo + 1 / n_hi))
    assert z >= 3.0


# ---------------------------------------------------------------------------
# summaries and CSV output
# ---------------------------------------------------------------------------

def test_summarize_uses_attached_stats():
    out = _outcome([_infected("p0", -DAY), _sympt("p0", 2 * DAY)])
    s = summarize_run(out)
    assert s.saturation == pytest.approx(0.1)
    assert s.beta_hat == 2e-5
    assert s.beta_hat_t == pytest.approx(2e-5 * 3600.0)
    assert s.t_symptomatic_days == (pytest.approx(2.0), None, None)


def test_summarize_without_attached_stats_raises():
    out = dataclasses.replace(_outcome([]), beta_hat=None)
    with pytest.raises(ValueError, match="no transmission stats"):
        summarize_run(out)


def test_summary_csv_round_trip(tmp_path):
    out = _outcome([_infected("p0", -DAY), _sympt("p0", 2 * DAY)])
    path = tmp_path / "summary.csv"
    write_summary_csv(path, [(out, summarize_run(out))])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SUMMARY_HEADER
    assert rows[1][0] == "full-novax"
    assert float(rows[1][4]) == pytest.approx(0.1)
    assert rows[1][9] == "" and rows[1][10] == ""  # absent 2nd/3rd onset


def test_curves_csv_schema(tmp_path):
    out = _outcome([], hourly=_hourly(10, 1, lambda t: 1))
    agg = aggregate_hourly([out])
    path = tmp_path / "curves.csv"
    write_curves_csv(path, {"full-novax": agg})
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CURVES_HEADER
    assert len(rows) == 1 + 25
    assert rows[1][:2] == ["full-novax", "0"]


def test_emergence_csv_schema_and_empty_median(tmp_path):
    outs = [_outcome([_sympt("a", DAY)]), _outcome([]), _outcome([])]
    path = tmp_path / "emergence.csv"
    write_emergence_csv(path, {"full-novax": outs})
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == EMERGENCE_HEADER
    assert rows[1] == ["full-novax", "1", repr(2 / 3), ""]
    assert rows[3][1] == "3"
