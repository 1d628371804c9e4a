"""Acceptance suite: one test per release criterion, at the stated tolerance.

Each test prints one line, ``ACCEPTANCE <n> PASS|FAIL: <detail>``, so a plain
``pytest -s tests/test_acceptance.py`` reads as a checklist.  The heavyweight
scenario sweeps are shared between criteria through module fixtures.
"""

import hashlib
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from classim import synthgen
from classim.cli import main
from classim.epidemic import (
    DiseaseParams,
    new_epidemic_state,
    seed_patient_zero,
    simulate_session,
)
from classim.kernel import (
    CalibrationInputs,
    KernelParams,
    calibrate_beta_max,
    default_beta_max_per_s,
    pair_rate,
    relative_geometry,
)
from classim.metrics import emergence_proportion, saturation
from classim.scenario import (
    SCENARIO_CELLS,
    ScenarioConfig,
    build_calendar,
    run_simulation,
    sweep,
)
from classim.trajectory import Activity, Observation, Person, Role

DAY = 86400.0
DP = DiseaseParams()
WORKERS = max(1, os.cpu_count() or 1)


@contextmanager
def criterion(n: int, detail_parts: list):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {n} FAIL: {'; '.join(map(str, detail_parts)) or 'see assertion'}")
        raise
    print(f"\nACCEPTANCE {n} PASS: {'; '.join(map(str, detail_parts))}")


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _pair_observation(r, fi, fj, t_total):
    roster = (Person("p0", Role.CHILD), Person("p1", Role.CHILD))
    pos = np.tile(np.array([[0.0, 0.0], [r, 0.0]]), (t_total, 1, 1))
    fac = np.tile(np.array([fi, fj], dtype=float), (t_total, 1, 1))
    present = np.ones((t_total, 2), dtype=bool)
    return Observation(class_id="oracle", roster=roster, room_area_m2=100.0,
                       positions=pos, facings=fac, present=present)


# ---------------------------------------------------------------------------
# 1. calibration constant
# ---------------------------------------------------------------------------

def test_criterion_1_calibration_constant(capsys):
    detail = []
    with criterion(1, detail):
        beta_day = calibrate_beta_max(CalibrationInputs())
        detail.append(f"beta_max={beta_day:.4f}/day (band 8.18 +- 0.09)")
        assert abs(beta_day - 8.18) <= 0.09
        # the CLI agrees with the library
        code = main(["calibrate"])
        out = capsys.readouterr().out
        assert code == 0
        printed = {k: v for k, _, v in (l.partition("=") for l in out.splitlines())}
        assert float(printed["beta_max_per_day"]) == beta_day


# ---------------------------------------------------------------------------
# 2. kernel point checks and property suites
# ---------------------------------------------------------------------------

def test_criterion_2_kernel_points_and_properties():
    detail = []
    with criterion(2, detail):
        kp = KernelParams(beta_max=0.37)
        from classim.kernel import PairGeometry
        assert pair_rate(PairGeometry(0.0, 0.0, 0.0), kp) == kp.beta_max
        ratio = pair_rate(PairGeometry(2.0, 0.0, 0.0), kp) / kp.beta_max
        assert ratio == pytest.approx(math.exp(-0.5), rel=1e-12)
        detail.append("point checks exact")

        rng = np.random.default_rng(20260811)
        n = 10_000
        r = rng.uniform(0.0, 10.0, n)
        ti = rng.uniform(0.0, math.pi, n)
        tj = rng.uniform(0.0, math.pi, n)
        rate = np.array([pair_rate(PairGeometry(r[k], ti[k], tj[k]), kp) for k in range(n)])
        swapped = np.array([pair_rate(PairGeometry(r[k], tj[k], ti[k]), kp) for k in range(n)])
        assert np.allclose(rate, swapped, rtol=1e-12, atol=0.0)
        assert (rate > 0.0).all() and (rate <= kp.beta_max).all()
        # monotone: shrinking any argument never lowers the rate
        shrink = rng.uniform(0.0, 1.0, n)
        closer = np.array([
            pair_rate(PairGeometry(r[k] * shrink[k], ti[k], tj[k]), kp) for k in range(n)
        ])
        straighter = np.array([
            pair_rate(PairGeometry(r[k], ti[k] * shrink[k], tj[k]), kp) for k in range(n)
        ])
        assert (closer >= rate).all()
        assert (straighter >= rate).all()
        detail.append(f"{n} random symmetry/monotonicity cases")


# ---------------------------------------------------------------------------
# 3. two-agent Monte Carlo oracle
# ---------------------------------------------------------------------------

def test_criterion_3_two_agent_oracle():
    detail = []
    with criterion(3, detail):
        rng = np.random.default_rng(7)
        t_total = 600
        n_runs = 10_000
        worst = 0.0
        for g_idx in range(10):
            r = float(rng.uniform(0.3, 2.5))
            ai = float(rng.uniform(0.0, math.pi / 2))
            aj = float(rng.uniform(0.0, math.pi / 2))
            fi = (math.cos(ai), math.sin(ai))
            fj = (-math.cos(aj), math.sin(aj))
            geom = relative_geometry((0, 0), fi, (r, 0), fj)
            # scale beta_max so the session infection probability is mid-range
            p_target = float(rng.uniform(0.1, 0.9))
            beta_needed = 1.0 - (1.0 - p_target) ** (1.0 / t_total)
            shape = pair_rate(geom, KernelParams(beta_max=1.0))
            kp = KernelParams(beta_max=beta_needed / shape)
            expected = 1.0 - (1.0 - pair_rate(geom, kp)) ** t_total
            obs = _pair_observation(r, fi, fj, t_total)
            hits = 0
            for k in range(n_runs):
                st = new_epidemic_state(obs.person_ids, _rng(1_000_000 * g_idx + k))
                seed_patient_zero(st, "p0", DP)
                simulate_session(st, obs, 0.0, kp, DP)
                hits += math.isfinite(st.t_infected[1])
            freq = hits / n_runs
            sigma = math.sqrt(expected * (1.0 - expected) / n_runs)
            pull = abs(freq - expected) / sigma
            worst = max(worst, pull)
            assert pull <= 3.0, (g_idx, freq, expected, pull)
        detail.append(f"10 geometries x {n_runs} runs, worst |z| = {worst:.2f}")


# ---------------------------------------------------------------------------
# 4. disease-clock statistics
# ---------------------------------------------------------------------------

def test_criterion_4_disease_clocks():
    detail = []
    with criterion(4, detail):
        rng = _rng(404)
        n = 10_000
        incubations, durations, symptomatic = [], [], 0
        for _ in range(n):
            st = new_epidemic_state(["z"], rng)
            seed_patient_zero(st, "z", DP)
            assert st.t_infectious[0] - st.t_infected[0] == DP.latency_s  # hard, exact
            durations.append((st.t_recovered[0] - st.t_infectious[0]) / DAY)
            if math.isfinite(st.t_symptomatic[0]):
                symptomatic += 1
                incubations.append((st.t_symptomatic[0] - st.t_infected[0]) / DAY)
        mean_inc = float(np.mean(incubations))
        mean_dur = float(np.mean(durations))
        frac = symptomatic / n
        detail.append(f"incubation {mean_inc:.3f}d, duration {mean_dur:.3f}d, "
                      f"symptomatic {frac:.4f}")
        assert abs(mean_inc - 4.0) <= 0.12 * math.sqrt(n / len(incubations))
        assert abs(mean_dur - 10.0) <= 0.3
        assert abs(frac - 0.75) <= 0.013


# ---------------------------------------------------------------------------
# 5. patient zero is the first symptomatic case in ~75% of runs
# ---------------------------------------------------------------------------

def test_criterion_5_patient_zero_symptomatic_share():
    detail = []
    with criterion(5, detail):
        obs = synthgen.generate(synthgen.SynthConfig(
            n_children=4, n_teachers=1, room_w=10.0, room_h=10.0,
            session_length_s=600, seed=9))
        kp = KernelParams(beta_max=default_beta_max_per_s())
        sc = ScenarioConfig(horizon_days=28, reps_per_patient_zero=1100, base_seed=77)
        outcomes = sweep(obs, sc, kp, DP, workers=WORKERS)
        hits = 0
        for o in outcomes:
            onsets = sorted((e.t_s, e.person_id) for e in o.events
                            if e.kind == "symptomatic")
            if onsets and onsets[0][1] == o.patient_zero:
                hits += 1
        share = hits / len(outcomes)
        three_sigma = 3.0 * math.sqrt(0.75 * 0.25 / len(outcomes))
        detail.append(f"share {share:.4f} over {len(outcomes)} runs "
                      f"(band 0.75 +- 0.02, 3 sigma = {three_sigma:.4f})")
        assert three_sigma <= 0.02  # enough runs for the band to be meaningful
        assert abs(share - 0.75) <= 0.02


# ---------------------------------------------------------------------------
# 6 + 7. scenario effects on a dense synthetic classroom
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dense_cells():
    """Four scenario cells, >= 500 runs each, on a 0.25 /m^2 classroom."""
    cfg = synthgen.SynthConfig(
        n_children=13, n_teachers=2, room_w=10.0, room_h=6.0,
        session_length_s=3600,
        schedule=((0, 900, Activity.STRUCTURED), (900, 1800, Activity.UNSTRUCTURED),
                  (1800, 2700, Activity.STRUCTURED), (2700, 3600, Activity.UNSTRUCTURED)),
        seed=12,
    )
    obs = synthgen.generate(cfg)
    assert obs.n_people / obs.room_area_m2 == pytest.approx(0.25)
    kp = KernelParams(beta_max=default_beta_max_per_s())
    cells = {}
    for name, (dvar, vvar) in SCENARIO_CELLS.items():
        sc = ScenarioConfig(density=dvar, vaccination=vvar, horizon_days=28,
                            reps_per_patient_zero=34, base_seed=20260811)
        cells[name] = sweep(obs, sc, kp, DP, workers=WORKERS)
        assert len(cells[name]) >= 500
    return cells


def _mean_z(a, b):
    a, b = np.asarray(a), np.asarray(b)
    se = math.sqrt(a.var() / len(a) + b.var() / len(b))
    return (a.mean() - b.mean()) / se


def test_criterion_6_directional_scenario_effects(dense_cells):
    detail = []
    with criterion(6, detail):
        sat = {name: np.array([saturation(o) for o in outs])
               for name, outs in dense_cells.items()}
        z_density = _mean_z(np.concatenate([sat["full-novax"], sat["full-vax"]]),
                            np.concatenate([sat["half-novax"], sat["half-vax"]]))
        z_vax = _mean_z(np.concatenate([sat["full-novax"], sat["half-novax"]]),
                        np.concatenate([sat["full-vax"], sat["half-vax"]]))
        full_nv, half_nv = sat["full-novax"].mean(), sat["half-novax"].mean()
        nv = np.concatenate([sat["full-novax"], sat["half-novax"]]).mean()
        vx = np.concatenate([sat["full-vax"], sat["half-vax"]]).mean()
        drop_half = (full_nv - half_nv) / full_nv
        drop_vax = (nv - vx) / nv
        # reported against the reference reductions, factor-of-2 agreement
        # recorded rather than asserted (interaction structure is synthetic)
        detail.append(f"half-class drop {drop_half:.1%} vs 18.2% "
                      f"(x{drop_half / 0.182:.2f}), z = {z_density:.1f}")
        detail.append(f"vaccination drop {drop_vax:.1%} vs 25.3% "
                      f"(x{drop_vax / 0.253:.2f}), z = {z_vax:.1f}")
        assert z_density >= 3.0
        assert z_vax >= 3.0


def test_criterion_7_non_emergence_ordering(dense_cells):
    detail = []
    with criterion(7, detail):
        def z_two_proportions(p1, n1, p2, n2):
            pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
            if pooled in (0.0, 1.0):
                return math.inf if p2 != p1 else 0.0
            return (p2 - p1) / math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))

        full = dense_cells["full-novax"] + dense_cells["full-vax"]
        half = dense_cells["half-novax"] + dense_cells["half-vax"]
        novax = dense_cells["full-novax"] + dense_cells["half-novax"]
        vax = dense_cells["full-vax"] + dense_cells["half-vax"]
        p_full = emergence_proportion(full, 2)
        p_half = emergence_proportion(half, 2)
        p_novax = emergence_proportion(novax, 2)
        p_vax = emergence_proportion(vax, 2)
        z_density = z_two_proportions(p_full, len(full), p_half, len(half))
        z_vax = z_two_proportions(p_novax, len(novax), p_vax, len(vax))
        detail.append(f"P(no 2nd) full {p_full:.3f} -> half {p_half:.3f} "
                      f"(z = {z_density:.1f}; reference 35.2% -> 53.0%)")
        detail.append(f"P(no 2nd) novax {p_novax:.3f} -> vax {p_vax:.3f} "
                      f"(z = {z_vax:.1f}; reference 38.7% -> 49.5%)")
        assert p_half > p_full and z_density >= 3.0
        assert p_vax > p_novax and z_vax >= 3.0


# ---------------------------------------------------------------------------
# 8. determinism and parallel invariance through the CLI
# ---------------------------------------------------------------------------

def test_criterion_8_manifest_determinism(tmp_path):
    detail = []
    with criterion(8, detail):
        obs_path = tmp_path / "class.csv"
        assert main(["synth", "--children", "5", "--teachers", "1", "--length", "300",
                     "--seed", "4", "--out", str(obs_path)]) == 0
        out1, out2 = tmp_path / "w1", tmp_path / "wN"
        assert main(["simulate", str(obs_path), "--out", str(out1),
                     "--reps", "3", "--horizon-days", "7", "--base-seed", "5",
                     "--workers", "1"]) == 0
        assert main(["simulate", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2), "--workers", str(max(2, WORKERS))]) == 0
        digests = []
        for out in (out1, out2):
            digests.append({
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("summary.csv", "curves.csv", "emergence.csv", "manifest.json")
            })
        assert digests[0] == digests[1]
        detail.append(f"identical digests at workers 1 and {max(2, WORKERS)} "
                      f"({digests[0]['summary.csv'][:12]}...)")


# ---------------------------------------------------------------------------
# 9. performance
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def three_hour_obs():
    return synthgen.generate(synthgen.SynthConfig(
        n_children=13, n_teachers=2, room_w=10.0, room_h=6.0,
        session_length_s=10_800,
        schedule=((0, 5400, Activity.STRUCTURED), (5400, 10_800, Activity.UNSTRUCTURED)),
        seed=15,
    ))


def test_criterion_9a_single_run_under_two_seconds(three_hour_obs):
    detail = []
    with criterion(9, detail):
        obs = three_hour_obs
        kp = KernelParams(beta_max=default_beta_max_per_s())
        cal = build_calendar(28, obs.session_length_s)
        sc = ScenarioConfig(horizon_days=28, reps_per_patient_zero=1, base_seed=1)
        t0 = time.perf_counter()
        run_simulation(obs, cal, sc, obs.person_ids[0], 123, kp, DP)
        elapsed = time.perf_counter() - t0
        detail.append(f"single 28-day run: {elapsed:.2f} s <= 2 s")
        assert elapsed <= 2.0


def test_criterion_9b_full_sweep_within_budget(three_hour_obs):
    detail = []
    with criterion(9, detail):
        obs = three_hour_obs
        kp = KernelParams(beta_max=default_beta_max_per_s())
        t0 = time.perf_counter()
        total_runs = 0
        for name, (dvar, vvar) in SCENARIO_CELLS.items():
            sc = ScenarioConfig(density=dvar, vaccination=vvar, horizon_days=28,
                                reps_per_patient_zero=60, base_seed=6)
            total_runs += len(sweep(obs, sc, kp, DP, workers=WORKERS))
        wall = time.perf_counter() - t0
        assert total_runs == 4 * 60 * 15
        # embarrassingly parallel: project the measured core-seconds onto 8 cores
        eight_core_s = wall * WORKERS / 8.0
        detail.append(f"4-cell sweep, {total_runs} runs: {wall:.0f} s wall on "
                      f"{WORKERS} workers ~= {eight_core_s:.0f} s on 8 cores (<= 900 s)")
        assert eight_core_s <= 900.0
