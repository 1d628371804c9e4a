import dataclasses
import math
import signal

import numpy as np
import pytest

from classim import kernel, scenario, synthgen
from classim.epidemic import (
    DiseaseParams,
    IncubationModel,
    RecoveryModel,
    hourly_compartment_counts,
)
from classim.errors import ConfigError, NoTeacher, UnknownPerson
from classim.kernel import (
    CalibrationInputs,
    KernelParams,
    TransmissionMode,
    mean_pair_rate,
    pair_rate,
    pair_totals,
    relative_geometry,
)
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


def _same(a, b) -> bool:
    """Every field of two outcomes is equal, the clock array included."""
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in ((getattr(a, f.name), getattr(b, f.name))
                            for f in dataclasses.fields(a)))


def _transitions(out) -> int:
    """Transitions a run logged up to its horizon: its finite clocks."""
    return int(np.isfinite(out.times).sum())


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
    assert len(cal.session_starts_s) == 5
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
    assert len(cal.session_starts_s) == 20


def test_gap_invariant_72h_iff_friday():
    cal = build_calendar(30, 3600.0)  # Day 0 is a Monday
    starts = cal.session_starts_s
    for a, b in zip(starts, starts[1:]):
        gap = b - a
        weekday = int(a // DAY) % 7
        if weekday == 4:  # Friday
            assert gap == 3 * DAY
        else:
            assert gap == DAY


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
    assert not apply_vaccination(roster, 0.0, _rng(5)).any()
    assert apply_vaccination(roster, 1.0, _rng(6)).tolist() == [False] * 5 + [True] * 3


def test_vaccination_never_flags_children():
    roster = _roster_obs(5, 2).roster
    for seed in range(50):
        immune = apply_vaccination(roster, 0.9, _rng(seed))
        assert all(roster[k].role == Role.TEACHER for k in np.flatnonzero(immune))


def test_vaccination_rate_band():
    roster = _roster_obs(0, 1).roster
    rng = _rng(7)
    n = 10_000
    hits = sum(bool(apply_vaccination(roster, 0.858, rng).any()) for _ in range(n))
    assert abs(hits / n - 0.858) <= 0.011  # 3 sigma binomial


def test_vaccination_draws_one_uniform_per_teacher():
    # children and teachers interleaved: each teacher, in roster order, draws
    # one uniform and is flagged when it falls below the efficacy; a child
    # draws nothing, so the generator ends where one random() per teacher does
    roles = "CTCCTTC"
    roster = tuple(Person(f"x{k}", Role.TEACHER if r == "T" else Role.CHILD)
                   for k, r in enumerate(roles))
    teachers = [k for k, r in enumerate(roles) if r == "T"]
    children = [k for k, r in enumerate(roles) if r == "C"]
    seen = set()
    for seed in range(20):
        rng, twin = _rng(seed), _rng(seed)
        immune = apply_vaccination(roster, 0.6, rng)
        draws = [twin.random() for _ in teachers]
        assert rng.bit_generator.state == twin.bit_generator.state
        assert immune.dtype == bool and immune.shape == (len(roster),)
        assert not immune[children].any()
        assert immune[teachers].tolist() == [u < 0.6 for u in draws]
        seen.update(immune[teachers].tolist())
    assert seen == {True, False}


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


@pytest.mark.parametrize("make", [
    lambda: KernelParams(beta_max=1.0, mode="x"),
    lambda: DiseaseParams(incubation_model="x"),
    lambda: DiseaseParams(recovery_model="x"),
])
def test_parameters_reject_unknown_enum_values(make):
    with pytest.raises(ValueError, match="'x' is not a valid"):
        make()


def test_parameters_turn_enum_values_into_members():
    kp = KernelParams(beta_max=1.0, mode="airborne")
    dp = DiseaseParams(incubation_model="poisson_days", recovery_model="geometric_steps")
    assert kp.mode is TransmissionMode.AIRBORNE
    assert dp.incubation_model is IncubationModel.POISSON_DAYS
    assert dp.recovery_model is RecoveryModel.GEOMETRIC_STEPS


def test_horizon_is_at_most_ten_years():
    assert ScenarioConfig(horizon_days=3650).horizon_days == 3650
    with pytest.raises(ConfigError, match="horizon_days must be <= 3650"):
        ScenarioConfig(horizon_days=3651)


def _hourly(out):
    """A run's hourly (S, E, I, R) counts, from its clock array."""
    return hourly_compartment_counts(out.times, out.horizon_days * 24)


def test_immune_patient_zero_empty_run():
    obs = _pair_obs()
    cal = build_calendar(7, obs.session_length_s)
    sc = ScenarioConfig(vaccination=VaccinationVariant.TEACHERS, vaccine_efficacy=1.0,
                        horizon_days=7, reps_per_patient_zero=1, base_seed=1)
    out = run_simulation(obs, cal, sc, "t0", 123, KernelParams(beta_max=10.0), DP)
    assert out.times.shape == (4, 2) and (out.times == math.inf).all()
    assert _hourly(out)[-1].tolist() == [2, 0, 0, 0]


def test_zero_kernel_only_patient_zero():
    obs = _pair_obs(r=0.2)
    cal = build_calendar(7, obs.session_length_s)
    sc = ScenarioConfig(horizon_days=7, reps_per_patient_zero=1, base_seed=1)
    out = run_simulation(obs, cal, sc, "p0", 5, KernelParams(beta_max=1e-300), DP)
    infected = {pid for pid, t in zip(out.roster_ids, out.times[0]) if t < math.inf}
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
        hits += bool(out.times[0, out.roster_ids.index("t0")] < math.inf)
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
    assert np.array_equal(a.times, b.times)
    assert a.roster_ids == b.roster_ids
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


def test_calendar_length_does_not_change_a_run():
    # a calendar holds only session starts; each session lasts as long as
    # the observation, whatever length the calendar was built for
    obs = _pair_obs(r=0.5, t_total=100)
    sc = ScenarioConfig(horizon_days=3)
    kp = KernelParams(beta_max=1e-2)
    own, other = (run_simulation(obs, build_calendar(3, length), sc, "p0", 7, kp, DP)
                  for length in (100.0, 999.0))
    assert _same(own, other)
    assert own.exposure_t_s == 3 * 100.0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_counts_13_by_60():
    obs = _roster_obs(12, 1, t_total=5)
    sc = ScenarioConfig(horizon_days=1, reps_per_patient_zero=60, base_seed=3)
    outs = list(sweep(obs, sc, KernelParams(beta_max=1e-6), DP, workers=1))
    assert len(outs) == 13 * 60


def test_sweep_reproducible_and_seed_sensitive():
    obs = _roster_obs(3, 1, t_total=50)
    kp = KernelParams(beta_max=2e-3)
    sc = ScenarioConfig(horizon_days=5, reps_per_patient_zero=2, base_seed=1)
    a = list(sweep(obs, sc, kp, DP, workers=1))
    b = list(sweep(obs, sc, kp, DP, workers=1))
    assert len(a) == len(b) and all(np.array_equal(x.times, y.times) for x, y in zip(a, b))
    assert [o.seed for o in a] == [o.seed for o in b]
    sc2 = ScenarioConfig(horizon_days=5, reps_per_patient_zero=2, base_seed=2)
    c = list(sweep(obs, sc2, kp, DP, workers=1))
    assert [o.seed for o in c] != [o.seed for o in a]


def test_sweep_worker_count_invariant():
    obs = _roster_obs(4, 1, t_total=120)
    kp = KernelParams(beta_max=3e-3)
    sc = ScenarioConfig(horizon_days=7, reps_per_patient_zero=4, base_seed=8)
    one = list(sweep(obs, sc, kp, DP, workers=1))
    two = list(sweep(obs, sc, kp, DP, workers=2))
    assert len(one) == len(two) == 20
    for a, b in zip(one, two):
        assert a.patient_zero == b.patient_zero
        assert a.seed == b.seed
        assert np.array_equal(a.times, b.times)
        assert a.beta_hat == b.beta_hat
        assert np.array_equal(_hourly(a), _hourly(b))


def test_sweep_starts_no_more_workers_than_tasks(monkeypatch):
    # a worker with no task would still build the whole hazard cache in its
    # initializer.  A stand-in Pool records the size asked for and runs the
    # initializer and the tasks in this process, so no process is started.
    started = []

    class InProcessPool:
        def __init__(self, processes, initializer, initargs):
            started.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, tasks, chunksize=1):
            return map(func, tasks)

    monkeypatch.setattr(scenario, "Pool", InProcessPool)
    monkeypatch.setattr(scenario, "_WORKER", {})
    obs = _roster_obs(3, 1, t_total=60)  # 4 people x 1 rep: 4 tasks
    kp = KernelParams(beta_max=3e-2)
    sc = ScenarioConfig(horizon_days=7, reps_per_patient_zero=1, base_seed=4)
    handler = signal.getsignal(signal.SIGTERM)  # the initializer resets it
    try:
        pooled = list(sweep(obs, sc, kp, DP, workers=8))
    finally:
        signal.signal(signal.SIGTERM, handler)
    assert started == [4]
    alone = list(sweep(obs, sc, kp, DP, workers=1))
    assert len(pooled) == len(alone) == 4
    assert all(_same(a, b) for a, b in zip(pooled, alone))
    assert sum(map(_transitions, alone)) > 4 * len(alone)  # infections happen


def _four_cells(**kw):
    return [ScenarioConfig(density=d, vaccination=v, **kw) for d, v in SCENARIO_CELLS.values()]


@pytest.mark.parametrize("n_teachers,t_total,error", [
    (0, 10, NoTeacher),          # a half cell keeps one teacher
    (1, 0, ConfigError),         # no session to replay
    (1, 86_401, ConfigError),    # a session longer than a day
], ids=["no_teacher", "zero_length", "past_a_day"])
def test_sweep_checks_its_plan_when_called(n_teachers, t_total, error):
    # the faults surface at the call, before any run is read, so a caller
    # can check every sweep before it makes any output
    obs = _roster_obs(3, n_teachers, t_total=t_total)
    cells = _four_cells(horizon_days=7, reps_per_patient_zero=1)
    with pytest.raises(error):
        sweep(obs, cells, KernelParams(beta_max=1e-3), DP, workers=2)


def test_sweep_without_half_cells_needs_no_teacher():
    obs = _roster_obs(3, 0)
    sc = ScenarioConfig(horizon_days=1, reps_per_patient_zero=1)
    assert len(list(sweep(obs, sc, KernelParams(beta_max=1e-3), DP))) == 3


@pytest.mark.parametrize("workers", [1, 2])
def test_multi_cell_sweep_matches_single_cell_sweeps(workers):
    obs = _roster_obs(4, 2, t_total=120)
    kp = KernelParams(beta_max=3e-3)
    cells = _four_cells(horizon_days=7, reps_per_patient_zero=2, base_seed=8)
    multi = list(sweep(obs, cells, kp, DP, workers=workers))
    single = [o for sc in cells for o in sweep(obs, sc, kp, DP, workers=1)]
    assert len(multi) == len(single) == 4 * 6 * 2
    for a, b in zip(multi, single):
        assert a.scenario == b.scenario
        assert a.patient_zero == b.patient_zero
        assert a.seed == b.seed
        assert a.roster_ids == b.roster_ids
        assert np.array_equal(a.times, b.times)
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
    outs = list(sweep(obs, cells, KernelParams(beta_max=3e-3), DP, workers=1))
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
    outs = list(sweep(obs, cells, KernelParams(beta_max=3e-3), DP, workers=1))
    assert len(outs) == 4 * 6
    assert sum(map(_transitions, outs)) > 4 * len(outs)  # infections happen
    assert len(rated) > 1
    assert sum(t * pairs for t, pairs in rated) == obs.session_length_s * n_pairs


@pytest.mark.parametrize("density", list(DensityVariant))
def test_run_without_pair_arrays_builds_the_sweep_cache(monkeypatch, density):
    # a run given no pair arrays builds the whole triangle's hazard cache
    # once, as a sweep process does, and returns the outcome of a run given
    # a sweep's pair arrays: clocks, beta_hat and T
    obs = _roster_obs(4, 2, t_total=60)
    kp = KernelParams(beta_max=3e-2)
    sc = ScenarioConfig(density=density, horizon_days=7)
    cal = build_calendar(7, obs.session_length_s)
    shared = scenario._PairArrays(obs, kp)
    assert shared.hazard is not None
    hazards = _count_calls(monkeypatch, "cumulative_hazard")
    spread = 0
    for seed in range(6):
        given = run_simulation(obs, cal, sc, "c1", seed, kp, DP, shared)
        assert hazards == []
        own = run_simulation(obs, cal, sc, "c1", seed, kp, DP)
        assert hazards == [(obs.session_length_s, 15)]
        assert _same(own, given)  # clocks, beta_hat and T included
        spread += _transitions(given) > 4  # patient zero has at most 4 transitions
        hazards.clear()
    assert spread >= 2


def test_sweep_past_cache_cap_matches_cached_sweep(monkeypatch):
    # past the cap no cache is built: each segment rates its own pairs and
    # beta_hat comes from time sums made chunk by chunk; nothing may move
    obs = _roster_obs(4, 2, t_total=60)
    kp = KernelParams(beta_max=3e-2)
    cells = _four_cells(horizon_days=7, reps_per_patient_zero=2, base_seed=4)
    cached = list(sweep(obs, cells, kp, DP, workers=1))
    monkeypatch.setattr(scenario, "_RATE_CACHE_MAX_ELEMENTS", 0)
    hazards = _count_calls(monkeypatch, "cumulative_hazard")
    uncached = list(sweep(obs, cells, kp, DP, workers=1))
    # segment blocks only: S x I pairs, never the 15-pair triangle of a cache
    assert hazards and all(shape[1] < 15 for shape in hazards)
    assert sum(map(_transitions, cached)) > 2 * len(cached)  # infections happen
    for a, b in zip(cached, uncached):
        assert np.array_equal(a.times, b.times)
        assert a.beta_hat == b.beta_hat


def test_airborne_sweep_builds_no_hazard_cache(monkeypatch):
    obs = _roster_obs(2, 1, t_total=30)
    kp = KernelParams(beta_max=3e-2, mode=TransmissionMode.AIRBORNE)
    hazards = _count_calls(monkeypatch, "cumulative_hazard")
    cells = [ScenarioConfig(horizon_days=1, reps_per_patient_zero=1),
             ScenarioConfig(density=DensityVariant.HALF, horizon_days=1,
                            reps_per_patient_zero=1)]
    outs = list(sweep(obs, cells, kp, DP, workers=1))
    assert hazards == []
    for o in outs:
        sub = obs.subset([obs.index_of(pid) for pid in o.roster_ids])
        assert o.beta_hat == mean_pair_rate(
            *pair_totals(sub.positions, sub.facings, sub.present, kp))


@pytest.mark.parametrize("setting", ["cached", "over_cap", "airborne"])
def test_single_run_equals_its_sweep_run(monkeypatch, setting):
    # a run given no pair arrays makes its own, as a sweep process does, and
    # returns the whole outcome a sweep returns, beta_hat and T included
    if setting == "airborne":
        obs = _roster_obs(2, 1, t_total=30)
        kp = KernelParams(beta_max=3e-2, mode=TransmissionMode.AIRBORNE)
    else:
        obs = _roster_obs(4, 2, t_total=60)
        kp = KernelParams(beta_max=3e-2)
    if setting == "over_cap":
        monkeypatch.setattr(scenario, "_RATE_CACHE_MAX_ELEMENTS", 0)
    cells = _four_cells(horizon_days=7, reps_per_patient_zero=2, base_seed=4)
    outs = list(sweep(obs, cells, kp, DP, workers=1))
    assert sum(map(_transitions, outs)) > 2 * len(outs)  # infections happen
    per_cell = obs.n_people * 2
    for k, out in enumerate(outs):
        sc = cells[k // per_cell]
        cal = build_calendar(sc.horizon_days, obs.session_length_s)
        assert _same(run_simulation(obs, cal, sc, out.patient_zero, out.seed, kp, DP), out)
        sub = obs.subset([obs.index_of(pid) for pid in out.roster_ids])
        assert out.beta_hat == mean_pair_rate(
            *pair_totals(sub.positions, sub.facings, sub.present, kp))
        assert out.exposure_t_s == 5 * obs.session_length_s


def test_run_sums_its_pair_rates_in_row_major_order():
    # beta_hat adds the roster's pairs i < j in row-major order, the order of
    # kernel.pair_rates' own triangle; these rate sums give other bits in
    # the transposed order
    obs = _roster_obs(4, 2, t_total=60)
    kp = KernelParams(beta_max=3e-2)
    shared = scenario._PairArrays(obs, kp)
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
        outs = list(sweep(obs, _four_cells(horizon_days=7, reps_per_patient_zero=reps), kp, DP,
                          workers=1))
        assert len(outs) == 4 * 6 * reps
        counts.append((calls.count("pair_index"), calls.count("triu_indices")))
    assert counts[0] == counts[1]
    assert counts[0][0] == 1


def test_sweep_order_is_pz_then_rep():
    obs = _roster_obs(2, 1, t_total=5)
    sc = ScenarioConfig(horizon_days=1, reps_per_patient_zero=3, base_seed=0)
    outs = list(sweep(obs, sc, KernelParams(beta_max=1e-6), DP, workers=1))
    expected = [(pid, rep) for pid in obs.person_ids for rep in range(3)]
    got = [(o.patient_zero, k % 3) for k, o in enumerate(outs)]
    assert got == expected
    assert [o.seed for o in outs] == [
        derive_seed(0, pz, rep) for pz in range(3) for rep in range(3)
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_draws_tasks_lazily(workers):
    # a reps count whose task list would not fit in memory still yields its
    # first runs at once, and they are the first runs of a small sweep
    import contextlib
    import itertools
    import tracemalloc

    obs = _roster_obs(2, 1, t_total=30)
    kp = KernelParams(beta_max=1e-3)

    def first_runs(reps):
        sc = ScenarioConfig(horizon_days=1, reps_per_patient_zero=reps, base_seed=4)
        with contextlib.closing(sweep(obs, sc, kp, DP, workers=workers)) as runs:
            return list(itertools.islice(runs, 3))

    # a list of 300,000 tasks takes tens of MB: fail here, before the huge sweep
    tracemalloc.start()
    try:
        first_runs(10**5)
        assert tracemalloc.get_traced_memory()[1] < 8 << 20
    finally:
        tracemalloc.stop()
    first = first_runs(10**12)
    small = ScenarioConfig(horizon_days=1, reps_per_patient_zero=3, base_seed=4)
    want = list(sweep(obs, small, kp, DP, workers=workers))[:3]
    assert len(first) == len(want) == 3
    assert all(_same(a, b) for a, b in zip(first, want))


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
    full = list(sweep(obs, ScenarioConfig(horizon_days=14, reps_per_patient_zero=reps,
                                          base_seed=21), kp, DP, workers=2))
    half = list(sweep(obs, ScenarioConfig(density=DensityVariant.HALF, horizon_days=14,
                                          reps_per_patient_zero=reps, base_seed=21),
                      kp, DP, workers=2))
    sat_full = np.array([np.isfinite(o.times[0]).sum() / len(o.roster_ids) for o in full])
    sat_half = np.array([np.isfinite(o.times[0]).sum() / len(o.roster_ids) for o in half])
    se = math.sqrt(sat_full.var() / len(sat_full) + sat_half.var() / len(sat_half))
    assert sat_half.mean() < sat_full.mean() - 3 * se
