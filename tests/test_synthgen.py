import hashlib
import json

import numpy as np
import pytest

from classim.errors import ConfigError
from classim.kernel import KernelParams, pairwise_rates
from classim.synthgen import SEAT_RADIUS_M, SynthConfig, _make_seating, generate
from classim.trajectory import Activity, Role, save_observation


def test_zero_length_session():
    obs = generate(SynthConfig(session_length_s=0))
    assert obs.session_length_s == 0
    assert obs.n_people == 15
    assert obs.activity is None
    assert generate(SynthConfig(n_children=0, n_teachers=0, session_length_s=0)).activity is None


def test_empty_roster_activity_follows_schedule(tmp_path):
    cfg = SynthConfig(n_children=0, n_teachers=0, session_length_s=60,
                      schedule=((0, 30, Activity.STRUCTURED), (30, 60, Activity.UNSTRUCTURED)))
    obs = generate(cfg)
    assert obs.n_people == 0 and obs.session_length_s == 60
    assert (obs.activity[:30] == 1).all() and (obs.activity[30:] == 0).all()
    save_observation(obs, tmp_path / "empty.csv")
    meta = json.loads((tmp_path / "empty.meta.json").read_text())
    assert meta["activity"] == [
        {"start_s": 0, "end_s": 30, "label": "structured"},
        {"start_s": 30, "end_s": 60, "label": "unstructured"},
    ]


def test_both_regimes_write_pinned_bytes(tmp_path):
    # seated start, free play, then the walk back to the tables: every
    # movement branch and its draws, pinned to the bytes synth writes
    cfg = SynthConfig(n_children=5, n_teachers=1, room_w=4.0, room_h=4.0, session_length_s=120,
                      schedule=((0, 40, Activity.STRUCTURED), (40, 80, Activity.UNSTRUCTURED),
                                (80, 120, Activity.STRUCTURED)), seed=3)
    save_observation(generate(cfg), tmp_path / "class.csv")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("class.csv", "class.meta.json")}
    assert digests == {
        "class.csv": "c002ef74a9655ec3cf6b4c6fa5b6da827ae588a6442c6779df7c6a98c09ad430",
        "class.meta.json": "7f04ec50cfd1d86a310f077def2cbc2850488d9d1263b7e1db0f8045c8e7f214",
    }


def test_all_structured_children_stay_at_tables():
    cfg = SynthConfig(n_children=12, n_teachers=3, session_length_s=300,
                      schedule=((0, 300, Activity.STRUCTURED),), seed=1)
    obs = generate(cfg)
    seating = _make_seating(cfg, [p.role for p in obs.roster])
    child_idx = [k for k, p in enumerate(obs.roster) if p.role == Role.CHILD]
    for k in child_idx:
        d = np.linalg.norm(obs.positions[:, k] - seating.center[k], axis=1)
        assert (d <= 1.5).all()


def test_same_seed_bitwise_identical():
    cfg = SynthConfig(session_length_s=200, seed=42)
    a, b = generate(cfg), generate(cfg)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.facings, b.facings)
    assert np.array_equal(a.activity, b.activity)


def test_different_seeds_differ():
    a = generate(SynthConfig(session_length_s=50, seed=1))
    b = generate(SynthConfig(session_length_s=50, seed=2))
    assert not np.array_equal(a.positions, b.positions)


def test_positions_inside_room():
    cfg = SynthConfig(n_children=10, n_teachers=2, room_w=6.0, room_h=4.0,
                      session_length_s=400, seed=3)
    obs = generate(cfg)
    assert (obs.positions[..., 0] >= 0).all() and (obs.positions[..., 0] <= 6.0).all()
    assert (obs.positions[..., 1] >= 0).all() and (obs.positions[..., 1] <= 4.0).all()


def test_facings_unit_norm():
    obs = generate(SynthConfig(session_length_s=300, seed=4,
                               schedule=((0, 150, Activity.STRUCTURED),
                                         (150, 300, Activity.UNSTRUCTURED))))
    norms = np.linalg.norm(obs.facings, axis=2)
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_within_cluster_rates_dominate_between():
    cfg = SynthConfig(n_children=12, n_teachers=0, room_w=8.0, room_h=8.0,
                      session_length_s=120,
                      schedule=((0, 120, Activity.STRUCTURED),), seed=6)
    obs = generate(cfg)
    seating = _make_seating(cfg, [p.role for p in obs.roster])
    kp = KernelParams(beta_max=1.0)
    rates = pairwise_rates(obs.positions, obs.facings, obs.present, kp)
    within, between = [], []
    n = obs.n_people
    for i in range(n):
        for j in range(i + 1, n):
            mean_rate = rates[:, i, j].mean()
            if seating.cluster_of[i] == seating.cluster_of[j]:
                within.append(mean_rate)
            else:
                between.append(mean_rate)
    assert np.mean(within) >= 10 * np.mean(between)


def test_activity_labels_follow_schedule():
    cfg = SynthConfig(session_length_s=100,
                      schedule=((0, 40, Activity.STRUCTURED),
                                (40, 100, Activity.UNSTRUCTURED)), seed=7)
    obs = generate(cfg)
    assert (obs.activity[:40] == 1).all()
    assert (obs.activity[40:] == 0).all()


def test_overlapping_schedule_rejected():
    with pytest.raises(ConfigError):
        SynthConfig(session_length_s=100,
                    schedule=((0, 60, Activity.STRUCTURED),
                              (50, 100, Activity.UNSTRUCTURED)))


def test_gap_in_schedule_rejected():
    with pytest.raises(ConfigError):
        SynthConfig(session_length_s=100,
                    schedule=((0, 40, Activity.STRUCTURED),
                              (60, 100, Activity.UNSTRUCTURED)))


def test_short_schedule_rejected():
    with pytest.raises(ConfigError):
        SynthConfig(session_length_s=100, schedule=((0, 40, Activity.STRUCTURED),))


def test_nonpositive_room_rejected():
    with pytest.raises(ConfigError):
        SynthConfig(room_w=0.0)


def test_bad_speed_range_rejected():
    with pytest.raises(ConfigError):
        SynthConfig(speed_min=2.0, speed_max=1.0)


def test_all_present_every_second():
    obs = generate(SynthConfig(session_length_s=150, seed=8))
    assert obs.present.all()


def test_seat_radius_within_one_meter():
    assert SEAT_RADIUS_M <= 1.0


def test_high_mixing_free_play_outbreak_exceeds_capped_table_outbreak():
    # pipeline exercise for the activity contrast: table work transmits hard
    # inside a cluster but the outbreak caps there, while high-mixing free
    # play in a cramped room eventually reaches everyone
    import math

    from classim.epidemic import DiseaseParams
    from classim.kernel import default_beta_max_per_s
    from classim.metrics import saturation
    from classim.scenario import ScenarioConfig, sweep

    free_play = generate(SynthConfig(
        n_children=10, n_teachers=2, room_w=3.0, room_h=3.0, session_length_s=1800,
        speed_min=0.5, speed_max=1.5, seed=11))
    spread_tables = generate(SynthConfig(
        n_children=10, n_teachers=2, room_w=14.0, room_h=14.0, session_length_s=1800,
        schedule=((0, 1800, Activity.STRUCTURED),), seed=11))
    kp = KernelParams(beta_max=default_beta_max_per_s() * 16)
    sc = ScenarioConfig(horizon_days=14, reps_per_patient_zero=15, base_seed=33)
    dp = DiseaseParams()
    sat_play = np.array([saturation(o) for o in sweep(free_play, sc, kp, dp, workers=2)])
    sat_tables = np.array([saturation(o) for o in sweep(spread_tables, sc, kp, dp, workers=2)])
    se = math.sqrt(sat_play.var() / len(sat_play) + sat_tables.var() / len(sat_tables))
    assert sat_play.mean() > sat_tables.mean() + 3 * se
