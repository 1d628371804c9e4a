import csv
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from classim.epidemic import (
    DiseaseParams,
    event_log,
    hourly_compartment_counts,
    new_epidemic_state,
    progress_offclass,
    seed_patient_zero,
    simulate_session,
)
from classim.errors import EmptyCollection, MixedCohorts
from classim.kernel import KernelParams, mean_pair_rate, pair_rate, pair_totals, relative_geometry
from classim.metrics import (
    aggregate_hourly,
    emergence_proportion,
    ever_infected,
    median_emergence_days,
    saturation,
    summarize_run,
    write_curves_csv,
    write_emergence_csv,
    write_summary_csv,
    CURVES_HEADER,
    EMERGENCE_HEADER,
    SUMMARY_HEADER,
)
from classim.scenario import RunOutcome
from classim.trajectory import Observation, Person, Role
from reference_epidemic import mask_counts, stacked_moments
import reference_metrics

DAY = 86400.0
KP = KernelParams(beta_max=1.0)


#: Rows of a run's clock array (``RunOutcome.times``).
KINDS = ("infected", "infectious", "symptomatic", "recovered")


def _outcome(entries=(), roster=10, horizon_days=28):
    """An outcome whose clocks are inf but for its (kind, roster position, t) entries."""
    times = np.full((4, roster), math.inf)
    for kind, k, t in entries:
        times[KINDS.index(kind), k] = t
    return RunOutcome(
        scenario="full-novax",
        observation_id="obs",
        patient_zero="p0",
        seed=1,
        roster_ids=tuple(f"p{k}" for k in range(roster)),
        times=times,
        horizon_days=horizon_days,
        beta_hat=2e-5,
        exposure_t_s=3600.0,
    )


def _infected(k, t):
    return "infected", k, t


def _sympt(k, t):
    return "symptomatic", k, t


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------

def test_saturation_patient_zero_only():
    out = _outcome([_infected(0, -DAY)], roster=10)
    assert saturation(out) == pytest.approx(0.1)


def test_saturation_everyone():
    entries = [_infected(k, k * 100.0) for k in range(10)]
    assert saturation(_outcome(entries, roster=10)) == 1.0


def test_saturation_six_of_thirteen():
    entries = [_infected(k, k * 100.0) for k in range(6)]
    assert saturation(_outcome(entries, roster=13)) == pytest.approx(6 / 13)


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
    beta_hat = mean_pair_rate(*pair_totals(obs.positions, obs.facings, obs.present, KP))
    assert beta_hat == pytest.approx(pair_rate(g, KP), rel=1e-12)


def test_distant_agents_rate_vanishes():
    obs = _stationary_obs([(0, 0), (25, 0)], [(1, 0), (-1, 0)], 10)
    beta_hat = mean_pair_rate(*pair_totals(obs.positions, obs.facings, obs.present, KP))
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
    beta_hat = mean_pair_rate(*pair_totals(obs.positions, obs.facings, obs.present, KP))
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


def test_absent_seconds_excluded_from_average():
    present = np.ones((10, 2), dtype=bool)
    present[5:, 1] = False
    obs = _stationary_obs([(0, 0), (1, 0)], [(1, 0), (-1, 0)], 10, present=present)
    obs.positions[5:, 1] = np.nan
    obs.facings[5:, 1] = np.nan
    beta_hat = mean_pair_rate(*pair_totals(obs.positions, obs.facings, obs.present, KP))
    g = relative_geometry((0, 0), (1, 0), (1, 0), (-1, 0))
    assert beta_hat == pytest.approx(pair_rate(g, KP), rel=1e-12)


def test_sweep_beta_hat_is_mean_pair_rate_of_run_roster():
    # the sweep reads beta_hat off the full-roster cache; it must equal the
    # rate recomputed from the run's own roster's pair totals, bit for bit
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
    outs = list(sweep(obs, cells, KP, DiseaseParams(), workers=1))
    assert {len(o.roster_ids) for o in outs} == {n, 4}
    for o in outs:
        sub = obs.subset([obs.index_of(pid) for pid in o.roster_ids])
        assert o.beta_hat == mean_pair_rate(
            *pair_totals(sub.positions, sub.facings, sub.present, KP))


# ---------------------------------------------------------------------------
# nth symptomatic / emergence
# ---------------------------------------------------------------------------

NEVER = (None, None, None)  # a run's onset days with no symptomatic case


def test_nth_symptomatic_lookup():
    out = _outcome([_sympt(0, 3.7 * DAY)])
    assert reference_metrics.nth_symptomatic(out, 1) == pytest.approx(3.7)
    assert reference_metrics.nth_symptomatic(out, 2) is None
    assert summarize_run(out).t_symptomatic_days == (pytest.approx(3.7), None, None)


def test_nth_symptomatic_empty():
    out = _outcome([])
    assert all(reference_metrics.nth_symptomatic(out, n) is None for n in (1, 2, 3))
    assert summarize_run(out).t_symptomatic_days == NEVER


def test_nth_symptomatic_ordering():
    out = _outcome([_sympt(0, 12 * DAY), _sympt(1, 4 * DAY), _sympt(2, 9 * DAY)])
    assert reference_metrics.nth_symptomatic(out, 3) == pytest.approx(12.0)
    assert reference_metrics.nth_symptomatic(out, 1) == pytest.approx(4.0)
    assert summarize_run(out).t_symptomatic_days == pytest.approx((4.0, 9.0, 12.0))


def test_nth_symptomatic_rejects_bad_n():
    with pytest.raises(ValueError):
        reference_metrics.nth_symptomatic(_outcome([]), 0)


@pytest.mark.parametrize("n", [0, 4])
def test_emergence_rejects_bad_n(n):
    with pytest.raises(ValueError):
        emergence_proportion([NEVER], n)
    with pytest.raises(ValueError):
        median_emergence_days([NEVER], n)


def test_emergence_proportion_all_present():
    onset_days = [(1.0, 2.0, 3.0)] * 5
    for n in (1, 2, 3):
        assert emergence_proportion(onset_days, n) == 0.0


def test_emergence_proportion_none_symptomatic():
    for n in (1, 2, 3):
        assert emergence_proportion([NEVER] * 4, n) == 1.0


def test_emergence_proportion_mixed():
    assert emergence_proportion([(1.0, None, None), NEVER], 1) == 0.5


def test_emergence_empty_collection():
    with pytest.raises(EmptyCollection):
        emergence_proportion([], 1)
    with pytest.raises(EmptyCollection):
        median_emergence_days([], 1)


def test_median_emergence_not_observed():
    assert median_emergence_days([(1.0, None, None), NEVER, NEVER], 1) is None
    assert median_emergence_days([(2.0, None, None)] * 3, 1) == pytest.approx(2.0)


def test_emergence_from_onset_days_equals_event_log_reference():
    # the onset days summarize_run reads once give the bits the event-log
    # derivation gave, with missing, tied and "never" onsets all present
    from classim import synthgen
    from classim.scenario import ScenarioConfig, sweep

    obs = synthgen.generate(synthgen.SynthConfig(n_children=5, n_teachers=1,
                                                 session_length_s=300, seed=2))
    outs = list(sweep(obs, ScenarioConfig(horizon_days=14, reps_per_patient_zero=8, base_seed=13),
                      KernelParams(beta_max=3e-3), DiseaseParams(), workers=1))
    # a copy of each run whose first onset one more person shares: a tie
    tied = [dataclasses.replace(o, roster_ids=o.roster_ids + ("tie",), times=np.column_stack(
                [o.times, [math.inf, math.inf, first, math.inf]]))
            for o in outs
            for first in [o.times[2].min()]
            if first < math.inf]
    groups = {"all": outs + tied, "early": outs[:6], "tied": tied}
    for n in (1, 2, 3):
        assert [summarize_run(o).t_symptomatic_days[n - 1] for o in outs + tied] == [
            reference_metrics.nth_symptomatic(o, n) for o in outs + tied]
    medians = []
    for runs in groups.values():
        onset_days = [summarize_run(o).t_symptomatic_days for o in runs]
        for n in (1, 2, 3):
            got = emergence_proportion(onset_days, n), median_emergence_days(onset_days, n)
            want = (reference_metrics.emergence_proportion(runs, n),
                    reference_metrics.median_emergence_days(runs, n))
            assert repr(got) == repr(want)
            medians.append(got[1])
    missing = {summarize_run(o).t_symptomatic_days.count(None) for o in outs}
    assert {0, 1, 3} <= missing  # runs with every onset, with some and with none
    assert tied and all(d[0] == d[1] for d in (summarize_run(o).t_symptomatic_days for o in tied))
    assert None in medians and any(m is not None for m in medians)


# ---------------------------------------------------------------------------
# hourly aggregation
# ---------------------------------------------------------------------------

def _recovered(ks, t):
    """Clock entries of people who are infected, infectious and recovered at time t."""
    return [(kind, k, t) for k in ks for kind in ("infected", "infectious", "recovered")]


def test_aggregate_single_run_zero_std():
    # person k recovers on day k, k = 1..5: R = min(hour // 24, 5)
    out = _outcome([e for k in range(1, 6) for e in _recovered([k], k * DAY)])
    agg = aggregate_hourly([out])
    assert agg.mean_counts[:, 3].tolist() == [min(h // 24, 5) for h in range(28 * 24 + 1)]
    assert (agg.std_counts == 0).all()
    assert (agg.std_infected_prop == 0).all()
    assert agg.n_runs == 1


def test_aggregate_two_point_moments():
    a = _outcome(_recovered([0, 1], -DAY))
    b = _outcome(_recovered([0, 1, 2, 3], -DAY))
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
    from classim.scenario import ScenarioConfig, sweep

    obs = synthgen.generate(synthgen.SynthConfig(n_children=5, n_teachers=1,
                                                 session_length_s=300, seed=2))
    outs = list(sweep(obs, ScenarioConfig(horizon_days=7, reps_per_patient_zero=5, base_seed=4),
                      KernelParams(beta_max=3e-3), DiseaseParams(), workers=1))
    agg = aggregate_hourly(outs)
    assert (np.diff(agg.mean_infected_prop) >= -1e-12).all()


def _simulated_states(seeds, sessions=3):
    """Run states of a 5-person class after a few 400-s sessions a day apart."""
    obs = _stationary_obs([(0, 0), (0.5, 0), (1, 0), (0, 1), (1, 1)],
                          [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 0)], 400)
    kp = KernelParams(beta_max=5e-3)
    dp = DiseaseParams(latency_h=6.0, gamma_per_day=0.5)
    states = []
    for seed in seeds:
        st = new_epidemic_state(obs.person_ids, np.random.Generator(np.random.PCG64(seed)),
                                np.arange(5) == 4 if seed % 3 == 0 else None)
        seed_patient_zero(st, f"p{seed % 4}", dp)
        for day in range(sessions):
            if st.clock < day * DAY:
                progress_offclass(st, day * DAY - st.clock)
            simulate_session(st, obs, day * DAY, kp, dp)
        states.append(st)
    return obs, states


@pytest.mark.parametrize("horizon_days", [1, 7])
def test_aggregate_equals_stacked_mask_counts_bitwise(horizon_days):
    obs, states = _simulated_states(range(24))
    outs = [dataclasses.replace(_outcome(roster=5, horizon_days=horizon_days),
                                roster_ids=obs.person_ids, times=event_log(st, horizon_days * DAY))
            for st in states]
    agg = aggregate_hourly(outs)
    expected = stacked_moments([mask_counts(st, horizon_days * 24) for st in states], 5)
    got = agg.mean_counts, agg.std_counts, agg.mean_infected_prop, agg.std_infected_prop
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.shape == e.shape and g.tobytes() == e.tobytes()
    assert len({o.times.tobytes() for o in outs}) > 5  # the runs differ
    assert agg.hours.tolist() == list(range(horizon_days * 24 + 1))


LATENCY_S = DiseaseParams().latency_s


def _on_hour(hour: int, ulps: int) -> float:
    """Hour boundary ``hour``, moved ``ulps`` representable doubles (-1, 0 or 1)."""
    t = hour * 3600.0
    return t if ulps == 0 else float(np.nextafter(t, ulps * math.inf))


@hst.composite
def clock_cases(draw):
    """(horizon days, immune flags, each person's four clocks or None for never infected).

    Times fall on an hour boundary or one ulp either side of it (the horizon
    and one ulp past it included), anywhere in a wide window, or at patient
    zero's back-dated -latency; onsets may share a time with another
    person's, or fall after recovery.
    """
    horizon_days = draw(hst.integers(1, 3))
    n = draw(hst.integers(1, 8))
    immune = draw(hst.lists(hst.booleans(), min_size=n, max_size=n))
    times = hst.one_of(
        hst.builds(_on_hour, hst.integers(-30, horizon_days * 24 + 30), hst.integers(-1, 1)),
        hst.floats(-2 * DAY, (horizon_days + 2) * DAY),
        hst.just(-LATENCY_S),
    )
    gaps = hst.one_of(hst.just(0.0), hst.just(LATENCY_S), hst.floats(0.0, 10 * DAY))
    shared_onsets = draw(hst.lists(times, min_size=1, max_size=2))
    clocks = []
    for _ in range(n):
        if draw(hst.booleans()):
            clocks.append(None)
            continue
        t_inf = draw(times)
        t_infectious = t_inf + draw(gaps)
        t_rec = t_infectious + draw(gaps)
        t_sym = draw(hst.one_of(hst.sampled_from(shared_onsets), gaps.map(lambda g: t_inf + g)))
        clocks.append((t_inf, t_infectious, t_sym, t_rec))
    return horizon_days, immune, clocks


@settings(max_examples=300, deadline=None)
@given(case=clock_cases())
# an immune patient zero: nobody is ever infected
@example(case=(2, [True, False, False], [None, None, None]))
# onsets tied on an hour boundary, at the horizon, one ulp past it, and
# after burn-out but inside the horizon
@example(case=(1, [False] * 4, [
    (-LATENCY_S, 0.0, 3600.0, 7200.0),
    (100.0, 100.0 + LATENCY_S, 3600.0, 200.0 + LATENCY_S),
    (3600.0, 3600.0 + LATENCY_S, DAY, 4 * 3600.0 + LATENCY_S),
    (3600.0, DAY, float(np.nextafter(DAY, math.inf)), DAY),
]))
def test_array_metrics_equal_event_log_reference(case):
    horizon_days, immune, clocks = case
    n = len(clocks)
    ids = tuple(f"p{k}" for k in range(n))
    st = new_epidemic_state(ids, np.random.Generator(np.random.PCG64(0)), immune)
    for k, c in enumerate(clocks):
        if c is not None and not immune[k]:
            st.times[:, k] = c
    horizon_s = horizon_days * DAY
    times = event_log(st, horizon_s)
    events = reference_metrics.event_log(st, horizon_s)
    # the array holds exactly the log's transitions, every clock bit for bit
    logged = np.full((4, n), math.inf)
    for e in events:
        logged[reference_metrics.EVENT_ORDER[e.kind], ids.index(e.person_id)] = e.t_s
    assert np.array_equal(times, logged)
    out = dataclasses.replace(_outcome(roster=n, horizon_days=horizon_days),
                              roster_ids=ids, times=times)
    summary = summarize_run(out)
    assert ever_infected(out) == reference_metrics.ever_infected(events)
    assert repr(summary.saturation) == repr(reference_metrics.ever_infected(events) / n)
    counts = hourly_compartment_counts(times, horizon_days * 24)
    want = reference_metrics.hourly_counts(events, n, horizon_days * 24)
    assert counts.dtype == want.dtype and counts.tobytes() == want.tobytes()
    assert np.array_equal(aggregate_hourly([out]).mean_counts, want)
    onsets = reference_metrics.first_onsets(events)
    assert repr(summary.t_symptomatic_days) == repr(
        tuple([t / DAY for t in onsets] + [None] * (3 - len(onsets))))


def test_outcome_pickle_size_does_not_grow_with_horizon():
    _, (st,) = _simulated_states([1])
    times = event_log(st, 28 * DAY)
    size = {h: len(pickle.dumps(dataclasses.replace(_outcome(roster=5), times=times, horizon_days=h)))
            for h in (28, 280)}
    # only the horizon field itself widens: 28 pickles in one byte, 280 in two
    assert size[280] == size[28] + 1


def test_median_emergence_non_decreasing_in_n():
    from classim import synthgen
    from classim.scenario import ScenarioConfig, sweep

    obs = synthgen.generate(synthgen.SynthConfig(n_children=6, n_teachers=1,
                                                 room_w=4.0, room_h=4.0,
                                                 session_length_s=600, seed=6))
    outs = list(sweep(obs, ScenarioConfig(horizon_days=21, reps_per_patient_zero=30, base_seed=8),
                      KernelParams(beta_max=2e-4), DiseaseParams(), workers=1))
    onset_days = [summarize_run(o).t_symptomatic_days for o in outs]
    per_run_medians = []
    for n in (1, 2, 3):
        values = [math.inf if days[n - 1] is None else days[n - 1] for days in onset_days]
        per_run_medians.append(np.median(values))
    assert per_run_medians[0] <= per_run_medians[1] <= per_run_medians[2]


def test_emergence_falls_as_symptomaticity_rises():
    # monotone under coupling: same seeds, higher p_symptomatic, fewer misses
    from classim import synthgen
    from classim.scenario import ScenarioConfig, sweep

    obs = synthgen.generate(synthgen.SynthConfig(n_children=5, n_teachers=1,
                                                 session_length_s=300, seed=2))
    sc = ScenarioConfig(horizon_days=14, reps_per_patient_zero=80, base_seed=13)
    kp = KernelParams(beta_max=1e-4)
    props = []
    for p_sym in (0.4, 0.9):
        outs = list(sweep(obs, sc, kp, DiseaseParams(p_symptomatic=p_sym), workers=1))
        onset_days = [summarize_run(o).t_symptomatic_days for o in outs]
        props.append((emergence_proportion(onset_days, 1), len(outs)))
    (p_lo, n_lo), (p_hi, n_hi) = props
    pooled = (p_lo * n_lo + p_hi * n_hi) / (n_lo + n_hi)
    z = (p_lo - p_hi) / math.sqrt(pooled * (1 - pooled) * (1 / n_lo + 1 / n_hi))
    assert z >= 3.0


# ---------------------------------------------------------------------------
# summaries and CSV output
# ---------------------------------------------------------------------------

def test_summarize_uses_attached_stats():
    out = _outcome([_infected(0, -DAY), _sympt(0, 2 * DAY)])
    s = summarize_run(out)
    assert s.saturation == pytest.approx(0.1)
    assert s.beta_hat == 2e-5
    assert s.beta_hat_t == pytest.approx(2e-5 * 3600.0)
    assert s.t_symptomatic_days == (pytest.approx(2.0), None, None)


def test_summary_csv_round_trip(tmp_path):
    out = _outcome([_infected(0, -DAY), _sympt(0, 2 * DAY)])
    path = tmp_path / "summary.csv"
    write_summary_csv(path, [(out, summarize_run(out))])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SUMMARY_HEADER
    assert rows[1][0] == "full-novax"
    assert float(rows[1][4]) == pytest.approx(0.1)
    assert rows[1][9] == "" and rows[1][10] == ""  # absent 2nd/3rd onset


def test_curves_csv_schema(tmp_path):
    out = _outcome(_recovered([0], -DAY), horizon_days=1)
    agg = aggregate_hourly([out])
    path = tmp_path / "curves.csv"
    write_curves_csv(path, {"full-novax": agg})
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CURVES_HEADER
    assert len(rows) == 1 + 25
    assert rows[1][:2] == ["full-novax", "0"]


def test_emergence_csv_schema_and_empty_median(tmp_path):
    path = tmp_path / "emergence.csv"
    write_emergence_csv(path, {"full-novax": [(1.0, None, None), NEVER, NEVER]})
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == EMERGENCE_HEADER
    assert rows[1] == ["full-novax", "1", repr(2 / 3), ""]
    assert rows[3][1] == "3"
