import math

import numpy as np
import pytest

from classim import kernel, scenario, synthgen
from classim.epidemic import DiseaseParams, hourly_compartment_counts
from classim.errors import ConfigError, NoTeacher, UnknownPerson
from classim.kernel import (
    CalibrationInputs,
    KernelParams,
    TransmissionMode,
    pair_rate,
    relative_geometry,
)
from classim.metrics import transmission_likelihood
from classim.scenario import (
    SCENARIO_CELLS,
    DensityVariant,
    ScenarioConfig,
    VaccinationVariant,
    apply_half_class,
    apply_vaccination,
    build_calendar,
    derive_seed,
    run_simulation,
    sweep,
)
from classim.trajectory import Observation, Person, Role

DAY = 86400.0
DP = DiseaseParams()


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _roster_obs(n_children, n_teachers, t_total=10):
    roster = tuple(
        Person(f"c{k}", Role.CHILD) for k in range(n_children)
    ) + tuple(Person(f"t{k}", Role.TEACHER) for k in range(n_teachers))
    n = len(roster)
    rng = np.random.default_rng(1)
    pos = rng.uniform(0, 8, size=(t_total, n, 2))
    ang = rng.uniform(0, 2 * math.pi, size=(t_total, n))
    fac = np.stack([np.cos(ang), np.sin(ang)], axis=2)
    present = np.ones((t_total, n), dtype=bool)
    return Observation(class_id="r", roster=roster, room_area_m2=64.0,
                       positions=pos, facings=fac, present=present)


def _pair_obs(r=1.0, t_total=400):
    roster = (Person("p0", Role.CHILD), Person("t0", Role.TEACHER))
    pos = np.tile(np.array([[0.0, 0.0], [r, 0.0]]), (t_total, 1, 1))
    fac = np.tile(np.array([[1.0, 0.0], [-1.0, 0.0]]), (t_total, 1, 1))
    present = np.ones((t_total, 2), dtype=bool)
    return Observation(class_id="pair", roster=roster, room_area_m2=64.0,
                       positions=pos, facings=fac, present=present)


# ---------------------------------------------------------------------------
# calendar
# ---------------------------------------------------------------------------

def test_one_school_week():
    cal = build_calendar(7, 3600.0)
    assert cal.n_sessions == 5
    gaps = np.diff(cal.session_starts_s)
    assert (gaps == DAY).all()
    # the following Monday would start 72 h after Friday
    cal2 = build_calendar(8, 3600.0)
    assert cal2.session_starts_s[5] - cal2.session_starts_s[4] == 3 * DAY


def test_single_day():
    cal = build_calendar(1, 1800.0)
    assert cal.session_starts_s == (0.0,)


def test_four_weeks_twenty_sessions():
    cal = build_calendar(28, 3600.0)
    assert cal.n_sessions == 20


def test_gap_invariant_72h_iff_friday():
    cal = build_calendar(30, 3600.0, start_weekday=2)  # Wednesday start
    starts = cal.session_starts_s
    for a, b in zip(starts, starts[1:]):
        gap = b - a
        weekday = (2 + int(a // DAY)) % 7
        if weekday == 4:  # Friday
            assert gap == 3 * DAY
        else:
            assert gap == DAY


def test_weekend_start_rejected():
    with pytest.raises(ConfigError):
        build_calendar(7, 3600.0, start_weekday=5)


def test_bad_session_length_rejected():
    with pytest.raises(ConfigError):
        build_calendar(7, 0.0)
    with pytest.raises(ConfigError):
        build_calendar(7, 2 * DAY)


# ---------------------------------------------------------------------------
# half class
# ---------------------------------------------------------------------------

def test_half_class_18_children_3_teachers():
    obs = _roster_obs(18, 3)
    half = apply_half_class(obs, _rng(1))
    roles = [p.role for p in half.roster]
    assert roles.count(Role.CHILD) == 9
    assert roles.count(Role.TEACHER) == 1
    assert half.room_area_m2 == obs.room_area_m2


def test_half_class_rounds_up_odd():
    obs = _roster_obs(11, 2)
    half = apply_half_class(obs, _rng(2))
    assert sum(1 for p in half.roster if p.role == Role.CHILD) == 6
    assert len(half.roster) == 7  # ceil(11/2) + 1


def test_half_class_deterministic_per_seed():
    obs = _roster_obs(2, 1)
    ids = {apply_half_class(obs, _rng(3)).person_ids for _ in range(5)}
    assert len(ids) == 1


def test_half_class_requires_teacher():
    obs = _roster_obs(4, 0)
    with pytest.raises(NoTeacher):
        apply_half_class(obs, _rng(4))


def test_half_class_forced_include_child():
    obs = _roster_obs(10, 2)
    for seed in range(20):
        half = apply_half_class(obs, _rng(seed), include="c7")
        assert "c7" in half.person_ids
        assert sum(1 for p in half.roster if p.role == Role.CHILD) == 5


def test_half_class_forced_include_teacher():
    obs = _roster_obs(10, 3)
    for seed in range(20):
        half = apply_half_class(obs, _rng(seed), include="t2")
        teachers = [p.person_id for p in half.roster if p.role == Role.TEACHER]
        assert teachers == ["t2"]


def test_half_class_subsets_vary_across_seeds():
    obs = _roster_obs(12, 2)
    ids = {apply_half_class(obs, _rng(seed)).person_ids for seed in range(30)}
    assert len(ids) > 1


# ---------------------------------------------------------------------------
# vaccination
# ---------------------------------------------------------------------------

def test_vaccination_extremes():
    roster = _roster_obs(5, 3).roster
    assert apply_vaccination(roster, 0.0, _rng(5)) == frozenset()
    assert apply_vaccination(roster, 1.0, _rng(6)) == {"t0", "t1", "t2"}


def test_vaccination_never_flags_children():
    roster = _roster_obs(5, 2).roster
    for seed in range(50):
        immune = apply_vaccination(roster, 0.9, _rng(seed))
        assert all(pid.startswith("t") for pid in immune)


def test_vaccination_rate_band():
    roster = _roster_obs(0, 1).roster
    rng = _rng(7)
    n = 10_000
    hits = sum(bool(apply_vaccination(roster, 0.858, rng)) for _ in range(n))
    assert abs(hits / n - 0.858) <= 0.011  # 3 sigma binomial


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------

def test_derive_seed_stable_and_distinct():
    a = derive_seed(42, 3, 7)
    assert a == derive_seed(42, 3, 7)
    seen = {derive_seed(42, pz, rep) for pz in range(30) for rep in range(60)}
    assert len(seen) == 30 * 60
    assert derive_seed(43, 3, 7) != a
    assert 0 <= a < 1 << 64


# ---------------------------------------------------------------------------
# run_simulation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: ScenarioConfig(vaccine_efficacy=True),
    lambda: ScenarioConfig(horizon_days=True),
    lambda: DiseaseParams(p_symptomatic=True),
    lambda: DiseaseParams(gamma_per_day=True),
    lambda: KernelParams(beta_max=True),
    lambda: KernelParams(beta_max=1e-6, sigma_theta=True),
    lambda: CalibrationInputs(contact_radius=True),
])
def test_parameters_reject_bools_for_numbers(make):
    with pytest.raises((ValueError, ConfigError), match="(?i)true"):
        make()


def _hourly(out):
    """A run's hourly (S, E, I, R) counts, from its event log."""
    return hourly_compartment_counts(out.events, len(out.roster_ids), out.horizon_days * 24)


def test_immune_patient_zero_empty_run():
    obs = _pair_obs()
    cal = build_calendar(7, obs.session_length_s)
    sc = ScenarioConfig(vaccination=VaccinationVariant.TEACHERS, vaccine_efficacy=1.0,
                        horizon_days=7, reps_per_patient_zero=1, base_seed=1)
    out = run_simulation(obs, cal, sc, "t0", 123, KernelParams(beta_max=10.0), DP)
    assert out.events == ()
    assert _hourly(out)[-1].tolist() == [2, 0, 0, 0]


def test_zero_kernel_only_patient_zero():
    obs = _pair_obs(r=0.2)
    cal = build_calendar(7, obs.session_length_s)
    sc = ScenarioConfig(horizon_days=7, reps_per_patient_zero=1, base_seed=1)
    out = run_simulation(obs, cal, sc, "p0", 5, KernelParams(beta_max=1e-300), DP)
    infected = {e.person_id for e in out.events if e.kind == "infected"}
    assert infected == {"p0"}


def test_unknown_patient_zero():
    obs = _pair_obs()
    cal = build_calendar(7, obs.session_length_s)
    sc = ScenarioConfig(horizon_days=7)
    with pytest.raises(UnknownPerson):
        run_simulation(obs, cal, sc, "nobody", 1, KernelParams(beta_max=1.0), DP)


def test_single_session_two_agent_closed_form():
    obs = _pair_obs(r=1.0, t_total=400)
    cal = build_calendar(1, obs.session_length_s)
    sc = ScenarioConfig(horizon_days=1, reps_per_patient_zero=1)
    kp = KernelParams(beta_max=2e-3)
    g = relative_geometry((0, 0), (1, 0), (1.0, 0), (-1, 0))
    expected = 1.0 - (1.0 - pair_rate(g, kp)) ** 400
    runs = 1500
    hits = 0
    for seed in range(runs):
        out = run_simulation(obs, cal, sc, "p0", seed, kp, DP)
        hits += any(e.kind == "infected" and e.person_id == "t0" for e in out.events)
    sigma = math.sqrt(expected * (1 - expected) / runs)
    assert abs(hits / runs - expected) <= 3 * sigma


def test_run_is_deterministic_bitwise():
    obs = _roster_obs(6, 1, t_total=300)
    cal = build_calendar(14, obs.session_length_s)
    sc = ScenarioConfig(density=DensityVariant.HALF, vaccination=VaccinationVariant.TEACHERS,
                        horizon_days=14)
    kp = KernelParams(beta_max=1e-3)
    a = run_simulation(obs, cal, sc, "c0", 99, kp, DP)
    b = run_simulation(obs, cal, sc, "c0", 99, kp, DP)
    assert a.events == b.events
    assert a.roster_ids == b.roster_ids
    assert a.immune_ids == b.immune_ids
    assert np.array_equal(_hourly(a), _hourly(b))


def test_hourly_counts_shape_and_conservation():
    obs = _pair_obs(t_total=100)
    cal = build_calendar(3, obs.session_length_s)
    sc = ScenarioConfig(horizon_days=3)
    out = run_simulation(obs, cal, sc, "p0", 7, KernelParams(beta_max=1e-3), DP)
    counts = _hourly(out)
    assert counts.shape == (3 * 24 + 1, 4)
    assert (counts.sum(axis=1) == 2).all()
    # patient zero starts infectious: hour 0 shows (1, 0, 1, 0)
    assert tuple(counts[0]) == (1, 0, 1, 0)


def test_calendar_session_length_must_match():
    obs = _pair_obs(t_total=100)
    cal = build_calendar(3, 999.0)
    sc = ScenarioConfig(horizon_days=3)
    with pytest.raises(ConfigError):
        run_simulation(obs, cal, sc, "p0", 7, KernelParams(beta_max=1e-3), DP)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_counts_13_by_60():
    obs = _roster_obs(12, 1, t_total=5)
    sc = ScenarioConfig(horizon_days=1, reps_per_patient_zero=60, base_seed=3)
    outs = sweep(obs, sc, KernelParams(beta_max=1e-6), DP, workers=1)
    assert len(outs) == 13 * 60


def test_sweep_reproducible_and_seed_sensitive():
    obs = _roster_obs(3, 1, t_total=50)
    kp = KernelParams(beta_max=2e-3)
    sc = ScenarioConfig(horizon_days=5, reps_per_patient_zero=2, base_seed=1)
    a = sweep(obs, sc, kp, DP, workers=1)
    b = sweep(obs, sc, kp, DP, workers=1)
    assert [o.events for o in a] == [o.events for o in b]
    assert [o.seed for o in a] == [o.seed for o in b]
    sc2 = ScenarioConfig(horizon_days=5, reps_per_patient_zero=2, base_seed=2)
    c = sweep(obs, sc2, kp, DP, workers=1)
    assert [o.seed for o in c] != [o.seed for o in a]


def test_sweep_worker_count_invariant():
    obs = _roster_obs(4, 1, t_total=120)
    kp = KernelParams(beta_max=3e-3)
    sc = ScenarioConfig(horizon_days=7, reps_per_patient_zero=4, base_seed=8)
    one = sweep(obs, sc, kp, DP, workers=1)
    two = sweep(obs, sc, kp, DP, workers=2)
    assert len(one) == len(two) == 20
    for a, b in zip(one, two):
        assert a.patient_zero == b.patient_zero
        assert a.seed == b.seed
        assert a.events == b.events
        assert a.beta_hat == b.beta_hat
        assert np.array_equal(_hourly(a), _hourly(b))


def _four_cells(**kw):
    return [ScenarioConfig(density=d, vaccination=v, **kw) for d, v in SCENARIO_CELLS.values()]


@pytest.mark.parametrize("workers", [1, 2])
def test_multi_cell_sweep_matches_single_cell_sweeps(workers):
    obs = _roster_obs(4, 2, t_total=120)
    kp = KernelParams(beta_max=3e-3)
    cells = _four_cells(horizon_days=7, reps_per_patient_zero=2, base_seed=8)
    multi = sweep(obs, cells, kp, DP, workers=workers)
    single = [o for sc in cells for o in sweep(obs, sc, kp, DP, workers=1)]
    assert len(multi) == len(single) == 4 * 6 * 2
    for a, b in zip(multi, single):
        assert a.scenario == b.scenario
        assert a.patient_zero == b.patient_zero
        assert a.seed == b.seed
        assert a.roster_ids == b.roster_ids
        assert a.immune_ids == b.immune_ids
        assert a.events == b.events
        assert a.beta_hat == b.beta_hat
        assert a.exposure_t_s == b.exposure_t_s
        assert np.array_equal(_hourly(a), _hourly(b))


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(kernel, name)

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel, name, counting)
    return calls


def test_multi_cell_sweep_builds_rate_cache_once(monkeypatch):
    obs = _roster_obs(4, 2, t_total=60)
    calls = _count_calls(monkeypatch, "pair_rates")
    cells = _four_cells(horizon_days=7, reps_per_patient_zero=2, base_seed=3)
    outs = sweep(obs, cells, KernelParams(beta_max=3e-3), DP, workers=1)
    assert len(outs) == 4 * 6 * 2
    assert calls == [obs.positions.shape]


def test_sweep_rates_a_multi_chunk_recording_once(monkeypatch):
    # 2500 s of 15 pairs spans three time chunks: the sweep's one pass rates
    # every pair-second once, and no run rates any
    obs = _roster_obs(4, 2, t_total=2500)
    n_pairs = 15
    assert obs.session_length_s * n_pairs > 2 * kernel._CHUNK_ELEMENTS
    rated = []
    real_rates, real_run = kernel.pair_rates, scenario.run_simulation

    def rating(*args, **kwargs):
        out = real_rates(*args, **kwargs)
        rated.append(out.shape)
        return out

    def run(*args, **kwargs):
        before = len(rated)
        outcome = real_run(*args, **kwargs)
        assert len(rated) == before
        return outcome

    monkeypatch.setattr(kernel, "pair_rates", rating)
    monkeypatch.setattr(scenario, "run_simulation", run)
    cells = _four_cells(horizon_days=7, reps_per_patient_zero=1, base_seed=3)
    outs = sweep(obs, cells, KernelParams(beta_max=3e-3), DP, workers=1)
    assert len(outs) == 4 * 6
    assert sum(len(o.events) for o in outs) > 4 * len(outs)  # infections happen
    assert len(rated) > 1
    assert sum(t * pairs for t, pairs in rated) == obs.session_length_s * n_pairs


@pytest.mark.parametrize("density", list(DensityVariant))
def test_run_without_hazard_builds_no_roster_cache(monkeypatch, density):
    # a run given no cache rates each segment's own (susceptible, source)
    # pairs, never its whole roster's triangle, and gives the cached events
    obs = _roster_obs(4, 2, t_total=60)
    kp = KernelParams(beta_max=3e-2)
    sc = ScenarioConfig(density=density, horizon_days=7)
    cal = build_calendar(7, obs.session_length_s)
    shared = scenario._PairArrays(obs, kp, cache=True)
    assert shared.hazard is not None
    hazards = _count_calls(monkeypatch, "cumulative_hazard")
    spread = 0
    for seed in range(6):
        cached = run_simulation(obs, cal, sc, "c1", seed, kp, DP, shared)
        assert hazards == []
        uncached = run_simulation(obs, cal, sc, "c1", seed, kp, DP)
        roster = len(uncached.roster_ids)
        assert hazards and max(shape[1] for shape in hazards) < roster * (roster - 1) // 2
        assert cached.events == uncached.events
        assert cached.beta_hat == uncached.beta_hat
        spread += len(cached.events) > 4  # patient zero has at most 4 events
        hazards.clear()
    assert spread >= 2


def test_sweep_past_cache_cap_matches_cached_sweep(monkeypatch):
    # past the cap no cache is built: each segment rates its own pairs and
    # beta_hat comes from time sums made chunk by chunk; nothing may move
    obs = _roster_obs(4, 2, t_total=60)
    kp = KernelParams(beta_max=3e-2)
    cells = _four_cells(horizon_days=7, reps_per_patient_zero=2, base_seed=4)
    cached = sweep(obs, cells, kp, DP, workers=1)
    monkeypatch.setattr(scenario, "_RATE_CACHE_MAX_ELEMENTS", 0)
    hazards = _count_calls(monkeypatch, "cumulative_hazard")
    uncached = sweep(obs, cells, kp, DP, workers=1)
    # segment blocks only: S x I pairs, never the 15-pair triangle of a cache
    assert hazards and all(shape[1] < 15 for shape in hazards)
    assert sum(len(o.events) for o in cached) > 2 * len(cached)  # infections happen
    for a, b in zip(cached, uncached):
        assert a.events == b.events
        assert a.beta_hat == b.beta_hat


def test_airborne_sweep_builds_no_hazard_cache(monkeypatch):
    obs = _roster_obs(2, 1, t_total=30)
    kp = KernelParams(beta_max=3e-2, mode=TransmissionMode.AIRBORNE)
    hazards = _count_calls(monkeypatch, "cumulative_hazard")
    cells = [ScenarioConfig(horizon_days=1, reps_per_patient_zero=1),
             ScenarioConfig(density=DensityVariant.HALF, horizon_days=1,
                            reps_per_patient_zero=1)]
    outs = sweep(obs, cells, kp, DP, workers=1)
    assert hazards == []
    for o in outs:
        sub = obs.subset([obs.index_of(pid) for pid in o.roster_ids])
        assert o.beta_hat == transmission_likelihood(sub, kp, 1)[0]


@pytest.mark.parametrize("setting", ["cached", "over_cap", "airborne"])
def test_single_run_equals_its_sweep_run(monkeypatch, setting):
    # a run given no pair arrays makes its own, with no cache, and returns
    # the whole outcome a sweep returns, beta_hat and T included
    if setting == "airborne":
        obs = _roster_obs(2, 1, t_total=30)
        kp = KernelParams(beta_max=3e-2, mode=TransmissionMode.AIRBORNE)
    else:
        obs = _roster_obs(4, 2, t_total=60)
        kp = KernelParams(beta_max=3e-2)
    if setting == "over_cap":
        monkeypatch.setattr(scenario, "_RATE_CACHE_MAX_ELEMENTS", 0)
    cells = _four_cells(horizon_days=7, reps_per_patient_zero=2, base_seed=4)
    outs = sweep(obs, cells, kp, DP, workers=1)
    assert sum(len(o.events) for o in outs) > 2 * len(outs)  # infections happen
    per_cell = obs.n_people * 2
    for k, out in enumerate(outs):
        sc = cells[k // per_cell]
        cal = build_calendar(sc.horizon_days, obs.session_length_s)
        assert run_simulation(obs, cal, sc, out.patient_zero, out.seed, kp, DP) == out
        sub = obs.subset([obs.index_of(pid) for pid in out.roster_ids])
        assert (out.beta_hat, out.exposure_t_s) == transmission_likelihood(sub, kp, 5)[:2]


def test_run_sums_its_pair_rates_in_row_major_order():
    # beta_hat adds the roster's pairs i < j in row-major order, the order of
    # kernel.pair_rates' own triangle; these rate sums give other bits in
    # the transposed order
    obs = _roster_obs(4, 2, t_total=60)
    kp = KernelParams(beta_max=3e-2)
    shared = scenario._PairArrays(obs, kp, cache=True)
    rng = np.random.default_rng(5)
    shared.rate_sums = rng.uniform(size=15) * 10.0 ** rng.integers(-8, 8, size=15)
    shared.pair_seconds = np.ones(15, dtype=np.int64)
    cal = build_calendar(1, obs.session_length_s)
    transposed_differs = False
    for density in DensityVariant:
        sc = ScenarioConfig(density=density, horizon_days=1)
        for seed in range(4):
            out = run_simulation(obs, cal, sc, "c1", seed, kp, DP, shared)
            idx = np.array([obs.index_of(pid) for pid in out.roster_ids])
            sums = [shared.rate_sums[shared.pairs[idx[a], idx[b]]].sum() / len(a)
                    for a, b in (np.triu_indices(len(idx), 1), np.tril_indices(len(idx), -1))]
            assert out.beta_hat == sums[0]
            transposed_differs |= sums[1] != sums[0]
    assert transposed_differs


def test_sweep_builds_pair_maps_once_per_process(monkeypatch):
    # the pair map and the triangle's indices are built with the process's
    # pair arrays, never per run: more runs make no more calls
    obs = _roster_obs(4, 2, t_total=60)
    kp = KernelParams(beta_max=3e-2)
    calls = []

    def count(owner, name):
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count(kernel, "pair_index")
    count(np, "triu_indices")
    counts = []
    for reps in (1, 3):
        calls.clear()
        outs = sweep(obs, _four_cells(horizon_days=7, reps_per_patient_zero=reps), kp, DP,
                     workers=1)
        assert len(outs) == 4 * 6 * reps
        counts.append((calls.count("pair_index"), calls.count("triu_indices")))
    assert counts[0] == counts[1]
    assert counts[0][0] == 1


def test_sweep_order_is_pz_then_rep():
    obs = _roster_obs(2, 1, t_total=5)
    sc = ScenarioConfig(horizon_days=1, reps_per_patient_zero=3, base_seed=0)
    outs = sweep(obs, sc, KernelParams(beta_max=1e-6), DP, workers=1)
    expected = [(pid, rep) for pid in obs.person_ids for rep in range(3)]
    got = [(o.patient_zero, k % 3) for k, o in enumerate(outs)]
    assert got == expected
    assert [o.seed for o in outs] == [
        derive_seed(0, pz, rep) for pz in range(3) for rep in range(3)
    ]


def test_half_sweep_saturation_below_full_when_transmission_strong():
    # statistical monotonicity on a dense synthetic classroom; needs enough
    # transmission that the density effect beats the smaller-roster baseline
    # (patient zero alone is 1/5 of a half class but 1/10 of a full one)
    from classim.kernel import default_beta_max_per_s
    from classim.trajectory import Activity

    cfg = synthgen.SynthConfig(
        n_children=8, n_teachers=2, room_w=7.0, room_h=5.0, session_length_s=1800,
        schedule=((0, 900, Activity.STRUCTURED), (900, 1800, Activity.UNSTRUCTURED)),
        seed=5,
    )
    obs = synthgen.generate(cfg)
    kp = KernelParams(beta_max=default_beta_max_per_s() * 4)
    reps = 20
    full = sweep(obs, ScenarioConfig(horizon_days=14, reps_per_patient_zero=reps,
                                     base_seed=21), kp, DP, workers=2)
    half = sweep(obs, ScenarioConfig(density=DensityVariant.HALF, horizon_days=14,
                                     reps_per_patient_zero=reps, base_seed=21),
                 kp, DP, workers=2)
    sat_full = np.array([len({e.person_id for e in o.events if e.kind == "infected"})
                         / len(o.roster_ids) for o in full])
    sat_half = np.array([len({e.person_id for e in o.events if e.kind == "infected"})
                         / len(o.roster_ids) for o in half])
    se = math.sqrt(sat_full.var() / len(sat_full) + sat_half.var() / len(sat_half))
    assert sat_half.mean() < sat_full.mean() - 3 * se
