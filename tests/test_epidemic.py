import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from classim.epidemic import (
    EMISSION_ROWS,
    DiseaseParams,
    IncubationModel,
    RecoveryModel,
    event_log,
    hourly_compartment_counts,
    is_run_complete,
    new_epidemic_state,
    progress_offclass,
    sample_incubation,
    sample_recovery,
    seed_patient_zero,
    simulate_session,
    transmission_step,
)
from classim.errors import FrameRosterMismatch, UnknownPerson
from classim.kernel import (
    KernelParams,
    TransmissionMode,
    cumulative_hazard,
    pair_index,
    pair_rate,
    pair_rates,
    pairwise_rates,
    relative_geometry,
)
from classim.trajectory import Observation, Person, Role
from reference_epidemic import (
    compartment_at,
    first_crossing_bisect,
    mask_counts,
    simulate_session_bisect,
)

DP = DiseaseParams()
DAY = 86400.0


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _stationary_obs(coords, facings, t_total, roles=None):
    n = len(coords)
    roles = roles or [Role.CHILD] * n
    roster = tuple(Person(f"p{k}", roles[k]) for k in range(n))
    pos = np.tile(np.asarray(coords, dtype=float), (t_total, 1, 1))
    fac = np.tile(np.asarray(facings, dtype=float), (t_total, 1, 1))
    present = np.ones((t_total, n), dtype=bool)
    return Observation(class_id="fixture", roster=roster, room_area_m2=64.0,
                       positions=pos, facings=fac, present=present)


def _pair_obs(r=1.0, t_total=600):
    return _stationary_obs([(0, 0), (r, 0)], [(1, 0), (-1, 0)], t_total)


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def test_seed_patient_zero_basic():
    st = new_epidemic_state(["a", "b", "c"], _rng())
    seed_patient_zero(st, "a", DP)
    assert compartment_at(st, 0, 0.0) == "I"
    assert st.times[0, 0] == -DP.latency_s
    assert st.times[1, 0] == 0.0
    assert compartment_at(st, 1, 0.0) == "S"
    assert compartment_at(st, 2, 0.0) == "S"


def test_seed_unknown_person():
    st = new_epidemic_state(["a"], _rng())
    with pytest.raises(UnknownPerson):
        seed_patient_zero(st, "zz", DP)


def test_seed_immune_is_noop():
    st = new_epidemic_state(["a", "b"], _rng(), np.array([True, False]))
    seed_patient_zero(st, "a", DP)
    assert st.times[0, 0] == math.inf
    assert compartment_at(st, 0, 0.0) == "S"
    assert is_run_complete(st)


def test_seed_symptomatic_share():
    rng = _rng(99)
    n = 10_000
    hits = 0
    for _ in range(n):
        st = new_epidemic_state(["a"], rng)
        seed_patient_zero(st, "a", DP)
        hits += math.isfinite(st.times[2, 0])
    assert abs(hits / n - 0.75) <= 0.013  # 3 sigma binomial


# ---------------------------------------------------------------------------
# disease clocks
# ---------------------------------------------------------------------------

def test_incubation_mean_and_positivity():
    rng = _rng(1)
    draws = np.array([sample_incubation(rng, DP) for _ in range(10_000)])
    assert (draws > 0).all()
    assert abs(draws.mean() - 4.0) <= 0.12


def test_incubation_deterministic_per_seed():
    a = [sample_incubation(_rng(7), DP) for _ in range(1)]
    b = [sample_incubation(_rng(7), DP) for _ in range(1)]
    assert a == b


def test_incubation_poisson_days_model():
    dp = DiseaseParams(incubation_model=IncubationModel.POISSON_DAYS)
    rng = _rng(2)
    draws = np.array([sample_incubation(rng, dp) for _ in range(10_000)])
    assert np.allclose(draws, np.round(draws))
    assert abs(draws.mean() - 4.0) <= 0.12


def test_recovery_mean():
    rng = _rng(3)
    draws = np.array([sample_recovery(rng, DP) for _ in range(10_000)])
    assert abs(draws.mean() - 10.0) <= 0.3


def test_recovery_geometric_steps_model():
    dp = DiseaseParams(recovery_model=RecoveryModel.GEOMETRIC_STEPS)
    rng = _rng(4)
    draws = np.array([sample_recovery(rng, dp) for _ in range(5_000)])
    steps = draws * DAY
    assert np.allclose(steps, np.round(steps))
    assert abs(draws.mean() - 10.0) <= 0.45  # 3 sigma of geometric at n=5000


# ---------------------------------------------------------------------------
# off-class progression
# ---------------------------------------------------------------------------

def test_exposed_becomes_infectious_at_exactly_24h():
    st = new_epidemic_state(["a", "b"], _rng(5))
    seed_patient_zero(st, "a", DP)
    # infect b by hand at t=0 through the scheduler used in transmission
    from classim.epidemic import _schedule_infection
    _schedule_infection(st, 1, 0.0, DP)
    progress_offclass(st, DAY)
    assert st.clock == DAY
    assert compartment_at(st, 1, st.clock) == "I"
    assert compartment_at(st, 1, st.clock - 1e-6) == "E"


def test_progress_all_recovered_only_moves_clock():
    st = new_epidemic_state(["a"], _rng(6))
    seed_patient_zero(st, "a", DP)
    st.times[3, 0] = 10.0
    progress_offclass(st, 100.0)
    assert st.clock == 100.0
    assert is_run_complete(st)


def test_progress_rejects_nonpositive():
    st = new_epidemic_state(["a"], _rng())
    with pytest.raises(ValueError):
        progress_offclass(st, 0.0)


# ---------------------------------------------------------------------------
# is_run_complete
# ---------------------------------------------------------------------------

def test_complete_when_patient_zero_recovered():
    st = new_epidemic_state(["a", "b"], _rng(8))
    seed_patient_zero(st, "a", DP)
    assert not is_run_complete(st)
    st.clock = st.times[3, 0]
    assert is_run_complete(st)


def test_incomplete_with_exposed():
    st = new_epidemic_state(["a", "b"], _rng(9))
    seed_patient_zero(st, "a", DP)
    from classim.epidemic import _schedule_infection
    _schedule_infection(st, 1, 0.0, DP)
    st.clock = max(st.times[3, 0], 1.0)
    if st.times[3, 1] > st.clock:
        assert not is_run_complete(st)


def test_immune_mask_must_match_the_roster():
    # one flag per roster position; a set of ids is not a mask
    for immune in (np.ones(3, dtype=bool), frozenset({"a"})):
        with pytest.raises(ValueError, match="immune mask"):
            new_epidemic_state(["a", "b"], _rng(), immune)


def test_immune_only_roster_is_complete():
    st = new_epidemic_state(["a", "b"], _rng(10), np.ones(2, dtype=bool))
    assert is_run_complete(st)


# ---------------------------------------------------------------------------
# transmission_step
# ---------------------------------------------------------------------------

def test_no_infectious_only_clock_moves():
    obs = _pair_obs(t_total=3)
    st = new_epidemic_state(obs.person_ids, _rng(11))
    before = st.times[0].tolist()
    transmission_step(st, obs, 0, KernelParams(beta_max=1.0), DP)
    assert st.clock == 1.0
    assert st.times[0].tolist() == before


def test_absent_susceptible_cannot_be_infected():
    obs = _pair_obs(r=0.2, t_total=3)
    obs.present[:, 1] = False
    obs.positions[:, 1] = np.nan
    obs.facings[:, 1] = np.nan
    kp = KernelParams(beta_max=5.0)  # beta*dt would be certain infection
    st = new_epidemic_state(obs.person_ids, _rng(12))
    seed_patient_zero(st, "p0", DP)
    for t in range(3):
        transmission_step(st, obs, t, kp, DP)
    assert st.times[0, 1] == math.inf


def test_absent_infectious_cannot_transmit():
    obs = _pair_obs(r=0.2, t_total=3)
    obs.present[:, 0] = False
    obs.positions[:, 0] = np.nan
    obs.facings[:, 0] = np.nan
    kp = KernelParams(beta_max=5.0)
    st = new_epidemic_state(obs.person_ids, _rng(13))
    seed_patient_zero(st, "p0", DP)
    for t in range(3):
        transmission_step(st, obs, t, kp, DP)
    assert st.times[0, 1] == math.inf


@pytest.mark.parametrize("case, k", [("no_infectious", 3), ("infectious", 2),
                                     ("no_susceptible", 0)])
def test_step_draws_one_uniform_per_susceptible(case, k):
    # a step draws random(k) for its k susceptible non-immune people, whether
    # or not anyone is infectious; the pair is too far apart to infect
    obs = _stationary_obs([(0, 0), (20, 0), (0, 20)], [(1, 0), (-1, 0), (0, -1)], 2)
    immune = np.array([False, True, True]) if case == "no_susceptible" else None
    st = new_epidemic_state(obs.person_ids, _rng(14), immune)
    if case != "no_infectious":
        seed_patient_zero(st, "p0", DP)
    twin = _rng()
    twin.bit_generator.state = st.rng.bit_generator.state
    transmission_step(st, obs, 0, KernelParams(beta_max=1e-9), DP)
    twin.random(k)
    assert st.rng.bit_generator.state == twin.bit_generator.state
    assert np.isinf(st.times[0, 1:]).all()


def test_roster_mismatch_rejected():
    obs = _pair_obs(t_total=1)
    st = new_epidemic_state(["a", "b", "c"], _rng())
    with pytest.raises(FrameRosterMismatch):
        transmission_step(st, obs, 0, KernelParams(beta_max=1.0), DP)


@pytest.mark.parametrize("t, until", [(0, 0), (2, 1), (0, 4), (3, None), (-1, None)])
def test_span_outside_the_observation_rejected(t, until):
    obs = _pair_obs(t_total=3)
    st = new_epidemic_state(obs.person_ids, _rng())
    with pytest.raises(ValueError, match="span"):
        transmission_step(st, obs, t, KernelParams(beta_max=1.0), DP, until=until)
    assert st.clock == 0.0


def _two_agent_mc(kp, obs, n_runs, seed0, stepwise):
    hits = 0
    t_total = obs.session_length_s
    for k in range(n_runs):
        st = new_epidemic_state(obs.person_ids, _rng(seed0 + k))
        seed_patient_zero(st, "p0", DP)
        if stepwise:
            for t in range(t_total):
                transmission_step(st, obs, t, kp, DP)
        else:
            simulate_session(st, obs, 0.0, kp, DP)
        hits += math.isfinite(st.times[0, 1])
    return hits / n_runs


@pytest.mark.parametrize(
    "stepwise,t_total,n_runs",
    [(True, 200, 600), (False, 400, 2_000)],
    ids=["per_frame", "session_engine"],
)
def test_two_agent_closed_form(stepwise, t_total, n_runs):
    # Fixed face-to-face geometry; infection prob has the closed form
    # 1 - (1 - beta dt)^n.  beta picked so the session probability is mid-range.
    r = 1.0
    kp = KernelParams(beta_max=4e-3 if stepwise else 2e-3)
    g = relative_geometry((0, 0), (1, 0), (r, 0), (-1, 0))
    beta = pair_rate(g, kp)
    expected = 1.0 - (1.0 - beta * 1.0) ** t_total
    freq = _two_agent_mc(kp, _pair_obs(r=r, t_total=t_total), n_runs, 1000, stepwise)
    sigma = math.sqrt(expected * (1 - expected) / n_runs)
    assert abs(freq - expected) <= 3 * sigma, (freq, expected)


def test_two_agent_oracle_random_geometries():
    rng = np.random.default_rng(77)
    t_total = 250
    n_runs = 800
    for _ in range(4):
        r = rng.uniform(0.3, 3.0)
        ai = rng.uniform(0, math.pi / 2)
        aj = rng.uniform(0, math.pi / 2)
        fi = (math.cos(ai), math.sin(ai))
        fj = (-math.cos(aj), math.sin(aj))
        obs = _stationary_obs([(0, 0), (r, 0)], [fi, fj], t_total)
        kp = KernelParams(beta_max=3e-3)
        g = relative_geometry((0, 0), fi, (r, 0), fj)
        expected = 1.0 - (1.0 - pair_rate(g, kp)) ** t_total
        freq = _two_agent_mc(kp, obs, n_runs, int(rng.integers(1 << 30)), False)
        sigma = math.sqrt(expected * (1 - expected) / n_runs) + 1e-9
        assert abs(freq - expected) <= 3 * sigma, (r, ai, aj, freq, expected)


# ---------------------------------------------------------------------------
# session engine specifics
# ---------------------------------------------------------------------------

def test_session_engine_matches_cache_and_on_the_fly():
    obs = _pair_obs(r=0.8, t_total=200)
    kp = KernelParams(beta_max=1e-3)
    rates = pair_rates(obs.positions, obs.facings, obs.present, kp)

    st1 = new_epidemic_state(obs.person_ids, _rng(21))
    seed_patient_zero(st1, "p0", DP)
    simulate_session(st1, obs, 0.0, kp, DP, hazard=cumulative_hazard(rates),
                     pairs=pair_index(2))

    st2 = new_epidemic_state(obs.person_ids, _rng(21))
    seed_patient_zero(st2, "p0", DP)
    simulate_session(st2, obs, 0.0, kp, DP)

    assert st1.times[0, 1] == st2.times[0, 1]
    assert np.array_equal(event_log(st1, 28 * DAY), event_log(st2, 28 * DAY))


def test_session_engine_rejects_full_matrix_cache():
    obs = _pair_obs(r=0.8, t_total=50)
    kp = KernelParams(beta_max=1e-3)
    full = cumulative_hazard(pairwise_rates(obs.positions, obs.facings, obs.present, kp))
    st = new_epidemic_state(obs.person_ids, _rng(3))
    seed_patient_zero(st, "p0", DP)
    with pytest.raises(ValueError, match="seconds, pairs"):
        simulate_session(st, obs, 0.0, kp, DP, hazard=full)


def test_half_roster_cache_matches_on_the_fly():
    # a half roster whose columns are not contiguous in the full recording
    # reads the full-roster triangle cache through its pair map; it must
    # draw exactly what rating only its own segment pairs draws
    from classim.epidemic import _schedule_infection
    t_total, n = 90, 7
    rng = np.random.default_rng(31)
    present = rng.random((t_total, n)) < 0.8
    pos = rng.uniform(0, 2, size=(t_total, n, 2))
    ang = rng.uniform(0, 2 * math.pi, size=(t_total, n))
    fac = np.stack([np.cos(ang), np.sin(ang)], axis=2)
    roster = tuple(Person(f"p{k}", Role.CHILD) for k in range(n))
    obs = Observation(class_id="half", roster=roster, room_area_m2=4.0,
                      positions=np.where(present[:, :, None], pos, np.nan),
                      facings=np.where(present[:, :, None], fac, np.nan), present=present)
    kp = KernelParams(beta_max=0.05)
    idx = np.array([0, 2, 3, 6])
    sub = obs.subset(idx)
    hazard = cumulative_hazard(pair_rates(obs.positions, obs.facings, obs.present, kp))
    pairs = pair_index(n)[np.ix_(idx, idx)]
    infected = 0
    for seed in range(40):
        states = []
        for cache in (True, False):
            st = new_epidemic_state(sub.person_ids, _rng(seed))
            seed_patient_zero(st, "p0", DP)
            _schedule_infection(st, 2, 30.0 - DP.latency_s, DP)  # a second source
            simulate_session(st, sub, 0.0, kp, DP, hazard=hazard if cache else None,
                             pairs=pairs if cache else None)
            states.append(st)
        a, b = states
        assert np.array_equal(a.times, b.times), seed
        infected += int(np.isfinite(a.times[0]).sum()) - 2
    assert infected > 0


def test_session_engine_handles_midsession_recovery():
    # patient zero recovers partway through the session; no infections after
    obs = _pair_obs(r=0.2, t_total=100)
    kp = KernelParams(beta_max=10.0)  # certain infection while infectious
    st = new_epidemic_state(obs.person_ids, _rng(22))
    seed_patient_zero(st, "p0", DP)
    st.times[3, 0] = 40.0
    simulate_session(st, obs, 0.0, kp, DP)
    assert st.times[0, 1] == 0.0  # infected at the first opportunity

    st2 = new_epidemic_state(obs.person_ids, _rng(23))
    seed_patient_zero(st2, "p0", DP)
    st2.times[3, 0] = 0.0  # recovered before the session
    simulate_session(st2, obs, 0.0, kp, DP)
    assert st2.times[0, 1] == math.inf


def test_session_engine_midsession_infectiousness():
    # third agent exposed earlier becomes infectious mid-session and transmits
    obs = _stationary_obs([(0, 0), (0.2, 0), (40, 40)],
                          [(1, 0), (-1, 0), (1, 0)], 100)
    kp = KernelParams(beta_max=10.0)
    st = new_epidemic_state(obs.person_ids, _rng(24))
    from classim.epidemic import _schedule_infection
    _schedule_infection(st, 0, -DP.latency_s + 50.0, DP)  # infectious at t=50
    st.times[3, 0] = 1e9
    assert compartment_at(st, 0, 0.0) == "E"
    simulate_session(st, obs, 0.0, kp, DP)
    assert st.times[0, 1] == 50.0  # p1 infected the second p0 turns infectious
    assert st.times[0, 2] == math.inf  # far corner never reached


@settings(max_examples=150, deadline=None)
@given(data=hst.data())
def test_session_engine_infections_are_feasible(data):
    # small random rooms with presence gaps, immune people, people turning
    # infectious or recovering mid-session (several segments) or never, and
    # rates up to p = 1; the engine also matches the mask-and-bisection
    # reference bit for bit, draws included
    from classim.epidemic import _schedule_infection
    n = data.draw(hst.integers(2, 6), label="n")
    t_total = data.draw(hst.integers(1, 40), label="t_total")
    beta_max = data.draw(hst.sampled_from([1e-3, 0.1, 2.0, 50.0]), label="beta_max")
    cached = data.draw(hst.booleans(), label="cached")
    rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1), label="seed"))
    present = rng.random((t_total, n)) < 0.7
    ang = rng.uniform(0, 2 * math.pi, size=(t_total, n))
    fac = np.stack([np.cos(ang), np.sin(ang)], axis=2)
    pos = rng.uniform(0, 2, size=(t_total, n, 2))
    roster = tuple(Person(f"p{k}", Role.CHILD) for k in range(n))
    obs = Observation(class_id="prop", roster=roster, room_area_m2=4.0,
                      positions=np.where(present[:, :, None], pos, np.nan),
                      facings=np.where(present[:, :, None], fac, np.nan),
                      present=present)
    kp = KernelParams(beta_max=beta_max)
    rates = pairwise_rates(obs.positions, obs.facings, obs.present, kp)

    st = new_epidemic_state(obs.person_ids, _rng(data.draw(hst.integers(0, 2**32 - 1))))
    for k in range(n):
        role = data.draw(hst.sampled_from(["S", "S", "I", "E"]), label=f"role{k}")
        st.immune[k] = data.draw(hst.booleans(), label=f"immune{k}")
        if role == "S":
            continue
        t_on = 0 if role == "I" else data.draw(hst.integers(1, t_total), label=f"on{k}")
        _schedule_infection(st, k, t_on - DP.latency_s, DP)
        st.times[3, k] = data.draw(
            hst.integers(t_on, t_total + 5) | hst.just(math.inf), label=f"off{k}")
    new = np.isinf(st.times[0])
    twin = copy.deepcopy(st)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        hazard = (cumulative_hazard(pair_rates(obs.positions, obs.facings, obs.present, kp))
                  if cached else None)
        simulate_session(st, obs, 0.0, kp, DP, hazard=hazard)
        simulate_session_bisect(twin, obs, 0.0, kp, DP, hazard=hazard)
    assert np.array_equal(st.times, twin.times)
    assert st.clock == twin.clock == t_total
    assert st.rng.bit_generator.state == twin.rng.bit_generator.state
    assert not (st.immune & np.isfinite(st.times[0]) & new).any()
    for k in np.flatnonzero(new & np.isfinite(st.times[0])):
        t = st.times[0, k]
        assert t == int(t) and 0 <= t < t_total
        t = int(t)
        assert present[t, k]
        # some other person was infectious, present and rated above zero that second
        live = (st.times[1] <= t) & (t < st.times[3]) & present[t]
        live[k] = False
        assert (rates[t, k, live] > 0.0).any()


def test_accrued_total_is_last_entry_of_series():
    # numpy's pairwise sum over the last axis rounds differently for an
    # (S, I) block than for an (seconds, I) one once I >= 8; the engine's
    # sum over sources must not, or its crossing search could run off a
    # segment.  The search reads the accrued hazard of single seconds and
    # of blocks of seconds, so every shape must agree.
    from classim.epidemic import _accrued
    rng = np.random.default_rng(9)
    for _ in range(300):
        t_total, m = rng.integers(2, 40), rng.integers(2, 32)
        cum = np.cumsum(rng.random((t_total, m, m)) * rng.choice([1e-6, 1e-3, 1.0, 40.0]),
                        axis=0)
        rows = rng.choice(m, rng.integers(1, m))
        srcs = rng.choice(m, rng.integers(1, m))
        lo = rng.integers(0, t_total - 1)
        hi = rng.integers(lo + 1, t_total + 1)
        base = cum[lo - 1, rows[:, None], srcs] if lo > 0 else np.zeros((len(rows), len(srcs)))
        total = _accrued(cum[hi - 1, rows[:, None], srcs], base)
        for pos, row in enumerate(rows):
            series = _accrued(cum[lo:hi, row, srcs], base[pos])
            assert series[-1] == total[pos]
            assert (np.diff(series) >= 0).all()
            at = [_accrued(cum[t, row, srcs], base[pos]) for t in range(lo, hi)]
            assert np.array_equal(at, series)


@pytest.mark.parametrize("lo", [0, 3])
@pytest.mark.parametrize("span", [1, 2, 16, 17, 40])
@settings(max_examples=40, deadline=None)
@given(data=hst.data())
def test_first_crossing_equals_bisection(span, lo, data):
    # non-decreasing columns with plateaus (zero steps) from 1-8 sources;
    # thresholds on a series value (the total included), one ulp below the
    # total, or anywhere below it
    from classim.epidemic import _accrued, _first_crossing
    m = data.draw(hst.integers(1, 8), label="sources")
    scale = data.draw(hst.sampled_from([1e-6, 1e-3, 1.0, 40.0]), label="scale")
    rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1), label="seed"))
    hi = lo + span
    steps = rng.random((hi + 2, m + 2)) * scale
    steps[rng.random(steps.shape) < data.draw(hst.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    cum = np.cumsum(steps, axis=0)
    col = rng.permutation(m + 2)[:m]
    since = cum[lo - 1, col] if lo > 0 else np.zeros(m)
    series = _accrued(cum[lo:hi, col], since)
    kind = data.draw(hst.sampled_from(["value", "below_total", "uniform"]), label="kind")
    if kind == "value":
        threshold = series[data.draw(hst.integers(0, span - 1), label="at")]
    elif kind == "below_total":
        threshold = np.nextafter(series[-1], -math.inf)
    else:
        threshold = rng.uniform(0.0, series[-1])
    assert (_first_crossing(cum, col, since, lo, hi, threshold)
            == first_crossing_bisect(cum, col, since, lo, hi, threshold))


@pytest.mark.parametrize("cached", [True, False], ids=["cache", "on_the_fly"])
def test_segment_boundary_oracle(cached):
    # p0 is infectious throughout; p2 turns infectious at t_on, which splits
    # the session into two segments.  p1's chance of infection has the
    # closed form 1 - (1 - b01)^T (1 - b21)^(T - t_on), and of infection
    # before t_on  1 - (1 - b01)^t_on.
    from classim.epidemic import _schedule_infection
    t_total, t_on, n_runs = 300, 120, 4000
    coords = [(0, 0), (1.2, 0), (1.2, 1.2)]
    facings = [(1, 0), (0, 1), (0, -1)]
    obs = _stationary_obs(coords, facings, t_total)
    kp = KernelParams(beta_max=5e-3)
    b01 = pair_rate(relative_geometry(coords[1], facings[1], coords[0], facings[0]), kp)
    b21 = pair_rate(relative_geometry(coords[1], facings[1], coords[2], facings[2]), kp)
    hazard = (cumulative_hazard(pair_rates(obs.positions, obs.facings, obs.present, kp))
              if cached else None)
    assert b21 > b01
    hits = early = 0
    for k in range(n_runs):
        st = new_epidemic_state(obs.person_ids, _rng(5000 + k))
        seed_patient_zero(st, "p0", DP)
        _schedule_infection(st, 2, t_on - DP.latency_s, DP)
        simulate_session(st, obs, 0.0, kp, DP, hazard=hazard)
        hits += math.isfinite(st.times[0, 1])
        early += st.times[0, 1] < t_on
    for count, p in ((hits, 1.0 - (1.0 - b01) ** t_total * (1.0 - b21) ** (t_total - t_on)),
                     (early, 1.0 - (1.0 - b01) ** t_on)):
        z = (count / n_runs - p) / math.sqrt(p * (1.0 - p) / n_runs)
        assert abs(z) <= 5.0, (count, n_runs, p, z)


def test_moving_room_oracle():
    # two sources (one recovers mid-session, one turns infectious
    # mid-session), moving people and presence gaps.  Nobody infected during
    # a session becomes infectious in it, so each susceptible escapes with
    # probability prod over seconds and present sources of (1 - min(b, 1)),
    # taken here from the scalar kernel.
    from classim.epidemic import _schedule_infection
    t_total, n, n_runs = 60, 5, 3000
    rng = np.random.default_rng(17)
    present = rng.random((t_total, n)) < 0.8
    pos = np.cumsum(rng.normal(0.0, 0.15, size=(t_total, n, 2)), axis=0) + rng.uniform(0, 2, (n, 2))
    ang = rng.uniform(0, 2 * math.pi, size=(t_total, n))
    fac = np.stack([np.cos(ang), np.sin(ang)], axis=2)
    roster = tuple(Person(f"p{k}", Role.CHILD) for k in range(n))
    obs = Observation(class_id="room", roster=roster, room_area_m2=9.0,
                      positions=np.where(present[:, :, None], pos, np.nan),
                      facings=np.where(present[:, :, None], fac, np.nan), present=present)
    kp = KernelParams(beta_max=0.15)
    t_on, t_off = 25, 40                       # p1 turns infectious, p0 recovers
    infectious = {0: range(0, t_off), 1: range(t_on, t_total)}
    escape = np.ones(n)
    for k in range(2, n):
        for j, seconds in infectious.items():
            for t in seconds:
                if present[t, k] and present[t, j]:
                    g = relative_geometry(pos[t, k], fac[t, k], pos[t, j], fac[t, j])
                    escape[k] *= 1.0 - min(pair_rate(g, kp), 1.0)
    hits = np.zeros(n)
    for r in range(n_runs):
        st = new_epidemic_state(obs.person_ids, _rng(7000 + r))
        seed_patient_zero(st, "p0", DP)
        st.times[3, 0] = float(t_off)
        _schedule_infection(st, 1, t_on - DP.latency_s, DP)
        simulate_session(st, obs, 0.0, kp, DP)
        hits += np.isfinite(st.times[0])
    for k in range(2, n):
        p = 1.0 - escape[k]
        z = (hits[k] / n_runs - p) / math.sqrt(p * (1.0 - p) / n_runs)
        assert abs(z) <= 5.0, (k, hits[k], p, z)


def test_determinism_bitwise_event_logs():
    obs = _pair_obs(r=0.5, t_total=300)
    kp = KernelParams(beta_max=2e-3)

    def run(seed):
        st = new_epidemic_state(obs.person_ids, _rng(seed))
        seed_patient_zero(st, "p0", DP)
        simulate_session(st, obs, 0.0, kp, DP)
        return event_log(st, 28 * DAY)

    assert np.array_equal(run(42), run(42))
    logs_a = [run(s) for s in range(50)]
    logs_b = [run(s) for s in range(50)]
    assert len(logs_a) == len(logs_b)
    assert all(np.array_equal(a, b) for a, b in zip(logs_a, logs_b))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_one_way_flow_and_conservation():
    obs = _stationary_obs(
        [(0, 0), (0.5, 0), (1, 0), (0, 1), (1, 1)],
        [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 0)],
        400,
    )
    kp = KernelParams(beta_max=5e-3)
    st = new_epidemic_state(obs.person_ids, _rng(31))
    seed_patient_zero(st, "p0", DP)
    simulate_session(st, obs, 0.0, kp, DP)
    horizon = 28 * DAY
    times = event_log(st, horizon)
    # conservation at every hour
    counts = hourly_compartment_counts(times, 28 * 24)
    assert (counts.sum(axis=1) == len(obs.roster)).all()
    assert counts.tobytes() == mask_counts(st, 28 * 24).tobytes()
    # one-way flow: per person, the transitions that happened are a prefix of
    # S->E->I->R, in time order
    for core in times[[0, 1, 3]].T.tolist():
        happened = [t < math.inf for t in core]
        assert happened == sorted(happened, reverse=True)
        assert core[:sum(happened)] == sorted(core[:sum(happened)])
    # nobody infectious before infection + latency, exactly
    for t_infected, t_infectious in zip(st.times[0], st.times[1]):
        if math.isfinite(t_infected):
            assert t_infectious == t_infected + DP.latency_s


def test_immune_agents_never_exposed():
    obs = _pair_obs(r=0.2, t_total=200)
    kp = KernelParams(beta_max=10.0)
    st = new_epidemic_state(obs.person_ids, _rng(32), np.array([False, True]))
    seed_patient_zero(st, "p0", DP)
    simulate_session(st, obs, 0.0, kp, DP)
    assert st.times[0, 1] == math.inf
    assert compartment_at(st, 1, st.clock) == "S"


def test_counts_before_infection_agree_with_hourly_counts():
    # someone infected at 5000 s is still susceptible at 1000 s, whichever
    # way the counts are taken
    st = new_epidemic_state(["a", "b"], _rng(34))
    seed_patient_zero(st, "a", DP)
    from classim.epidemic import _schedule_infection
    _schedule_infection(st, 1, 5000.0, DP)
    st.clock = 6000.0
    assert st.counts(at=1000.0) == (1, 0, 1, 0)
    assert compartment_at(st, 1, 1000.0) == "S"
    assert hourly_compartment_counts(event_log(st, 3600.0), 1)[0].tolist() == [1, 0, 1, 0]
    assert st.counts() == (0, 1, 1, 0)


def test_event_log_order_and_horizon_cap():
    st = new_epidemic_state(["a", "b"], _rng(33))
    seed_patient_zero(st, "a", DP)
    st.times[2, 0] = 40 * DAY  # symptomatic, but beyond horizon
    times = event_log(st, 28 * DAY)
    # rows: infection, infectiousness, onset, recovery; columns: the roster
    assert times.shape == (4, 2) and times.dtype == np.float64
    want = [t if t <= 28 * DAY else math.inf for t in st.times[:, 0].tolist()]
    assert times[:, 0].tolist() == want
    assert want[0] == -DP.latency_s and want[2] == math.inf
    assert (times[:, 1] == math.inf).all()  # never infected
    times[0, 0] = 0.0
    assert st.times[0, 0] == -DP.latency_s  # a copy, not a view of the state


def _boundary_time(hour: int, ulps: int) -> float:
    """Hour boundary ``hour``, moved ``ulps`` representable doubles (-1, 0 or 1)."""
    t = hour * 3600.0
    return t if ulps == 0 else float(np.nextafter(t, ulps * math.inf))


@settings(max_examples=300, deadline=None)
@given(data=hst.data())
def test_event_log_counts_equal_mask_reference(data):
    # immune people, patient zero back-dated to -latency, transitions on an
    # hour boundary or one ulp either side of it, and times past the horizon
    horizon_hours = data.draw(hst.integers(1, 60))
    n = data.draw(hst.integers(1, 8))
    immune = data.draw(hst.lists(hst.booleans(), min_size=n, max_size=n))
    st = new_epidemic_state([f"p{k}" for k in range(n)], _rng(0), immune)
    times = hst.one_of(
        hst.builds(_boundary_time, hst.integers(-30, horizon_hours + 30), hst.integers(-1, 1)),
        hst.floats(-2 * DAY, (horizon_hours + 30) * 3600.0),
        hst.just(-DP.latency_s),
    )
    gaps = hst.one_of(hst.just(0.0), hst.just(DP.latency_s), hst.floats(0.0, 10 * DAY))
    for k in np.flatnonzero(~st.immune):
        if data.draw(hst.booleans()):
            continue  # never infected
        st.times[0, k] = data.draw(times)
        st.times[1, k] = st.times[0, k] + data.draw(gaps)
        st.times[3, k] = st.times[1, k] + data.draw(gaps)
        st.times[2, k] = st.times[0, k] + data.draw(gaps)
    times = event_log(st, horizon_hours * 3600.0)
    counts = hourly_compartment_counts(times, horizon_hours)
    expected = mask_counts(st, horizon_hours)
    assert counts.dtype == expected.dtype and counts.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# airborne mode
# ---------------------------------------------------------------------------

def test_airborne_past_positions_contribute():
    # infectious agent sits at the far end, then leaves; susceptible arrives
    # at the vacated spot: droplet sees nothing, airborne does
    t_total = 240
    n = 2
    roster = tuple(Person(f"p{k}", Role.CHILD) for k in range(n))
    pos = np.zeros((t_total, n, 2))
    fac = np.zeros((t_total, n, 2))
    present = np.ones((t_total, n), dtype=bool)
    pos[:, 0] = (0.0, 0.0)
    fac[:, 0] = (1.0, 0.0)
    pos[:120, 1] = (30.0, 0.0)
    pos[120:, 1] = (0.05, 0.0)     # far away, then on top of the source spot
    fac[:, 1] = (-1.0, 0.0)
    present[120:, 0] = False       # source walks out
    pos[120:, 0] = np.nan
    fac[120:, 0] = np.nan
    obs = Observation(class_id="air", roster=roster, room_area_m2=900.0,
                      positions=pos, facings=fac, present=present)

    def infection_prob(mode, runs):
        kp = KernelParams(beta_max=0.5, mode=mode)
        hits = 0
        for k in range(runs):
            st = new_epidemic_state(obs.person_ids, _rng(4000 + k))
            seed_patient_zero(st, "p0", DP)
            simulate_session(st, obs, 0.0, kp, DP)
            hits += math.isfinite(st.times[0, 1])
        return hits / runs

    assert infection_prob(TransmissionMode.DROPLET, 30) == 0.0
    assert infection_prob(TransmissionMode.AIRBORNE, 120) > 0.05


def test_airborne_stationary_pair_bounded_by_decay_budget():
    # for a stationary pair the buffered hazard adds at most
    # (1 - exp(-lambda * horizon)) of the contemporaneous hazard
    t_total = 250
    obs = _pair_obs(r=1.0, t_total=t_total)
    kp_air = KernelParams(beta_max=2.5e-3, mode=TransmissionMode.AIRBORNE)
    g = relative_geometry((0, 0), (1, 0), (1.0, 0), (-1, 0))
    beta0 = pair_rate(g, kp_air)
    runs = 250
    hits = 0
    for k in range(runs):
        st = new_epidemic_state(obs.person_ids, _rng(9000 + k))
        seed_patient_zero(st, "p0", DP)
        simulate_session(st, obs, 0.0, kp_air, DP)
        hits += math.isfinite(st.times[0, 1])
    freq = hits / runs
    lo = 1.0 - (1.0 - beta0) ** t_total
    hi = 1.0 - (1.0 - 2.0 * beta0) ** t_total  # 2x budget is a safe ceiling
    assert lo - 3 * math.sqrt(lo * (1 - lo) / runs) <= freq <= hi


def test_emission_ring_matches_list_buffers_past_the_horizon():
    # The ring must read what the old per-person lists held: the slots before
    # the current one, oldest first, none older than the 3-h horizon.  The
    # session runs past 181 slots (10,860 s), so rows of an earlier round are
    # read back, and p0 leaves and comes back, so some rows are stale then.
    # the span helpers are called on one-second spans
    from classim.epidemic import _frame_source_rates, _record_emissions, _usable_emissions
    from reference_airborne import ListEmissions
    t_total, start = 11_600, 86_400.0
    rng = np.random.default_rng(41)
    pos = rng.uniform(0.0, 3.0, size=(t_total, 4, 2))
    ang = rng.uniform(0.0, 2 * math.pi, size=(t_total, 4))
    fac = np.stack([np.cos(ang), np.sin(ang)], axis=2)
    present = np.ones((t_total, 4), dtype=bool)
    present[3000:3400, 0] = present[10_900:11_300, 0] = False   # p0 leaves twice
    present[6000:9000, 1] = False                               # p1 leaves once
    present[::17, 3] = False                                    # p3 flickers
    pos[~present] = fac[~present] = np.nan
    obs = Observation(class_id="ring", roster=tuple(Person(f"p{k}", Role.CHILD) for k in range(4)),
                      room_area_m2=64.0, positions=pos, facings=fac, present=present)
    kp = KernelParams(beta_max=0.05, mode=TransmissionMode.AIRBORNE)
    st = new_epidemic_state(obs.person_ids, _rng(0))
    ref = ListEmissions(4)
    sus_idx, inf_idx = np.array([2, 3]), np.array([0, 1])
    compared = 0
    for t in range(t_total):
        now = start + t
        if t % 7 == 0 or t >= 10_700:
            history = _usable_emissions(st, now, inf_idx)
            got = _frame_source_rates(obs, t, kp, np.array([now]), sus_idx, inf_idx, history)[0]
            want = ref.frame_source_rates(obs, t, kp, now, sus_idx, inf_idx)
            assert np.array_equal(got, want), t
            compared += 1
        _record_emissions(st, obs, t, np.array([now]), inf_idx)
        ref.record(obs, t, now, inf_idx)
    assert compared > 2000
    assert len(ref.buffers[0]) < 180  # p0's absence left slots empty at the end


def test_only_airborne_runs_hold_an_emission_ring():
    # droplet sessions, cached or not, never read emissions, so their state
    # has no ring; an airborne session makes one when it first records
    obs = _pair_obs(r=1.0, t_total=120)
    droplet = KernelParams(beta_max=0.01)
    hazard = cumulative_hazard(pair_rates(obs.positions, obs.facings, obs.present, droplet))
    airborne = KernelParams(beta_max=0.01, mode=TransmissionMode.AIRBORNE)
    for kp, cache in ((droplet, None), (droplet, hazard), (airborne, None)):
        st = new_epidemic_state(obs.person_ids, _rng(3))
        assert st.emissions is None
        seed_patient_zero(st, "p0", DP)
        simulate_session(st, obs, 0.0, kp, DP, hazard=cache)
        if kp is droplet:
            assert st.emissions is None
        else:
            assert st.emissions.shape == (2, EMISSION_ROWS, 5)


def _random_class(seed, n, t_total, stay=0.85):
    """Random positions, facings and absences of ``n`` people in a 3 x 3 m room."""
    rng = np.random.default_rng(seed)
    present = rng.random((t_total, n)) < stay
    pos = rng.uniform(0.0, 3.0, size=(t_total, n, 2))
    ang = rng.uniform(0.0, 2 * math.pi, size=(t_total, n))
    fac = np.stack([np.cos(ang), np.sin(ang)], axis=2)
    pos[~present] = fac[~present] = np.nan
    roster = tuple(Person(f"p{k}", Role.CHILD) for k in range(n))
    return Observation(class_id="spans", roster=roster, room_area_m2=9.0,
                       positions=pos, facings=fac, present=present)


def _assert_twins_equal(st, twin):
    assert np.array_equal(st.times, twin.times)
    assert st.clock == twin.clock
    assert st.rng.bit_generator.state == twin.rng.bit_generator.state
    if twin.emissions is None:
        assert st.emissions is None
    else:
        assert np.array_equal(st.emissions, twin.emissions)


def _spans_against_per_second(obs, st, kp, dp, sessions, chunks=None):
    """Replay sessions in spans on ``st`` and per second on a twin; compare after each.

    ``sessions`` holds the off-class gap before each session (for the first,
    its start).  The spans come from ``simulate_session`` in airborne mode, else from the
    same ``until=T`` loop, or with ``chunks`` from calls whose ``until`` lies
    that many seconds on.  Returns the twin, which holds the reference.
    """
    from reference_airborne import step_per_second
    twin = copy.deepcopy(st)
    t_total = obs.session_length_s
    for gap in sessions:
        if gap:
            progress_offclass(st, gap)
            progress_offclass(twin, gap)
        start = st.clock
        if chunks is None and kp.mode == TransmissionMode.AIRBORNE:
            simulate_session(st, obs, start, kp, dp)
        else:
            t, calls = 0, 0
            while t < t_total:
                step = chunks[calls % len(chunks)] if chunks else t_total
                transmission_step(st, obs, t, kp, dp, until=min(t_total, t + step))
                t, calls = round(st.clock - start), calls + 1
        for t in range(t_total):
            step_per_second(twin, obs, t, kp, dp)
        _assert_twins_equal(st, twin)
    return twin


@settings(max_examples=150, deadline=None)
@given(data=hst.data())
def test_spans_match_the_per_second_stepper(data):
    # twin states, one advanced a span at a time and one by the per-second
    # stepper the spans replaced, end every session bit for bit alike: the
    # clock fields, the clock, the generator and the ring.
    # Sources turn infectious (short latency) and recover (large gamma, or
    # never: gamma = 1e-308 overflows to +inf) mid-session; a second session
    # follows at once, or 10,800 - 1.5 T s after the first ends, so emissions
    # of the first one's first half pass the horizon during it, mid-slot.
    n = data.draw(hst.sampled_from(range(1, 7)), label="n")
    t_total = data.draw(hst.sampled_from(range(1, 241)), label="t_total")
    mode = data.draw(hst.sampled_from(list(TransmissionMode)), label="mode")
    kp = KernelParams(beta_max=data.draw(hst.sampled_from([1e-3, 0.05, 0.3, 2.0]),
                                         label="beta_max"), mode=mode)
    latency_h = data.draw(hst.sampled_from([24.0, 0.01, 1e-4]), label="latency_h")
    gamma = data.draw(hst.sampled_from([0.1, 500.0, 1e-308]), label="gamma")
    dp = DiseaseParams(latency_h=latency_h, gamma_per_day=gamma)
    obs = _random_class(data.draw(hst.integers(0, 2**32 - 1), label="obs"), n, t_total,
                        stay=data.draw(hst.sampled_from([1.0, 0.85, 0.5]), label="stay"))
    zero = data.draw(hst.integers(0, n - 1), label="zero")
    immune = [k != zero and data.draw(hst.integers(0, 3), label=f"immune{k}") == 0
              for k in range(n)]
    st = new_epidemic_state(obs.person_ids, _rng(data.draw(hst.integers(0, 2**32 - 1))), immune)
    if data.draw(hst.booleans(), label="buffered"):
        # PCG64 hands out 32-bit draws in pairs; the spare half it holds
        # must come through a span as it comes through the per-second draws
        st.rng.integers(2**32, dtype=np.uint32)
    seed_patient_zero(st, f"p{zero}", dp)
    start = data.draw(hst.sampled_from([0.0, 30.0, DAY]), label="start")
    later = data.draw(hst.sampled_from([None, 0.0, 10_800.0 - 1.5 * t_total]), label="later")
    chunks = data.draw(hst.none() | hst.lists(hst.integers(1, 90), min_size=1, max_size=4),
                       label="chunks")
    sessions = [start] if later is None else [start, later]
    _spans_against_per_second(obs, st, kp, dp, sessions, chunks)


def test_a_long_airborne_session_matches_the_per_second_stepper():
    # one session past 181 slots: emissions recorded early in it pass the
    # horizon mid-slot while it runs, and a second source turns infectious
    # half-way through
    from classim.epidemic import _schedule_infection
    obs = _random_class(7, 3, 11_000, stay=0.9)
    kp = KernelParams(beta_max=1e-4, mode=TransmissionMode.AIRBORNE)
    dp = DiseaseParams(latency_h=1.5)
    st = new_epidemic_state(obs.person_ids, _rng(8))
    seed_patient_zero(st, "p0", dp)
    _schedule_infection(st, 1, 30.0 + 5_000.0 - dp.latency_s, dp)
    twin = _spans_against_per_second(obs, st, kp, dp, [30.0])
    assert st.times[1, 1] == 5_030.0 < st.times[3, 1]
    assert (twin.emissions[:2, :, 0] > 30.0 + 10_800.0).any()  # the ring came round


def test_a_quiet_airborne_session_takes_few_spans(monkeypatch):
    # a 1200-s session that infects no one runs in spans, not one call per
    # second, and each span still goes through transmission_step and
    # kernel.rates_between
    from classim import epidemic, kernel
    calls = {"transmission_step": 0, "rates_between": 0}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    spy(epidemic, "transmission_step")
    spy(kernel, "rates_between")
    obs = _random_class(3, 6, 1200)
    st = new_epidemic_state(obs.person_ids, _rng(4))
    seed_patient_zero(st, "p0", DP)
    simulate_session(st, obs, 0.0, KernelParams(beta_max=1e-12, mode=TransmissionMode.AIRBORNE), DP)
    assert np.isinf(st.times[0, 1:]).all() and st.clock == 1200.0
    assert 1 <= calls["transmission_step"] < 1200 / 4
    assert calls["rates_between"] >= 1
