"""The four workloads: their sizes, inputs, timed operation and set-up.

Nothing here imports classim or numpy at module level.  child.py times
set-up from the start of a fresh process, so importing classim has to happen
inside the functions below.  Every workload drives classim through its public
entry points only: ``classim.cli.main`` for the command line, and public
library calls for the two-agent oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

NPROC = len(os.sched_getaffinity(0))

def _cells(children: int, teachers: int, names) -> dict[str, int]:
    """Roster size per cell: a half class keeps ceil(children / 2) + 1 teacher."""
    full = children + teachers
    half = math.ceil(children / 2) + 1
    return {c: (half if c.startswith("half") else full) for c in names}


ALL_CELLS = ("full-novax", "half-novax", "full-vax", "half-vax")

#: Sizes of each workload.  ``reps`` x roster x cells simulated runs per
#: timed operation; see README.md for why each workload exists.
SIZES = {
    # Criterion-9 reference classroom: 13 children + 2 teachers in 10 x 6 m,
    # 1.5 h structured then 1.5 h unstructured.
    "sweep-ref": dict(children=13, teachers=2, room="10x6", length=10_800,
                      reps=3, horizon_days=28, cells=ALL_CELLS),
    # Closed-form two-agent sessions in the shape of criterion 3.
    "pair-oracle": dict(geometries=10, sessions=800, length=600),
    # 30-person class recorded as raw dual tags, fused, then swept.
    "ingest-raw": dict(children=27, teachers=3, room="12x10", length=900,
                       reps=1, horizon_days=28, cells=ALL_CELLS),
    # 20-min, 15-person session through the per-frame airborne stepper.
    "airborne": dict(children=13, teachers=2, room="10x6", length=1_200,
                     reps=1, horizon_days=2, cells=("full-novax",)),
}
WORKLOADS = tuple(SIZES)


def expected(name: str) -> dict:
    """What a correct output of one timed operation holds."""
    s = SIZES[name]
    if name == "pair-oracle":
        return {"runs": s["geometries"] * s["sessions"]}
    n = s["children"] + s["teachers"]
    return {
        "runs": len(s["cells"]) * s["reps"] * n,
        "cells": _cells(s["children"], s["teachers"], s["cells"]),
        "reps": s["reps"],
        "n_people": n,
        "horizon_days": s["horizon_days"],
    }


def _quiet_cli(argv: list[str]) -> None:
    from classim import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"classim {' '.join(argv)} exited {code}")


def _schedule(length: int) -> str:
    half = length // 2
    return f"0-{half}:structured,{half}-{length}:unstructured"


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def generate(name: str, seed: int, in_dir: str) -> dict:
    """Write the workload's input files; return facts about them."""
    import numpy
    import classim

    info = {"numpy": numpy.__version__, "classim": classim.__version__}
    s = SIZES[name]
    if name == "pair-oracle":
        return info
    os.makedirs(in_dir, exist_ok=True)
    if name == "ingest-raw":
        from classim import synthgen
        from classim.trajectory import Activity
        from rawtags import write_raw_tags

        half = s["length"] // 2
        intervals = ((0, half, Activity.STRUCTURED), (half, s["length"], Activity.UNSTRUCTURED))
        w, h = (float(v) for v in s["room"].split("x"))
        obs = synthgen.generate(synthgen.SynthConfig(
            n_children=s["children"], n_teachers=s["teachers"], room_w=w, room_h=h,
            session_length_s=s["length"], schedule=intervals, seed=seed,
            class_id="ingest"))
        info.update(write_raw_tags(obs, intervals, os.path.join(in_dir, "raw.csv"), seed))
        info["teachers"] = [p.person_id for p in obs.roster if p.role.value == "teacher"]
        return info
    path = os.path.join(in_dir, "class.csv")
    _quiet_cli(["synth", "--children", str(s["children"]), "--teachers", str(s["teachers"]),
                "--room", s["room"], "--length", str(s["length"]),
                "--schedule", _schedule(s["length"]), "--seed", str(seed),
                "--class-id", name, "--out", path])
    if name == "airborne":
        with open(os.path.join(in_dir, "airborne.json"), "w", encoding="utf-8") as fh:
            json.dump({"kernel": {"mode": "airborne"}}, fh)
    with open(path, encoding="utf-8") as fh:
        info["input_rows"] = sum(1 for _ in fh) - 1
    info["input_bytes"] = os.path.getsize(path)
    info["teachers"] = [f"t{k + 1:02d}" for k in range(s["teachers"])]
    return info


def _oracle_cases(seed: int):
    """(observation, kernel params, closed-form hit probability) per geometry.

    As in acceptance criterion 3: two people at a fixed distance and facing,
    with beta_max scaled so the session infection probability lies in
    [0.1, 0.9].
    """
    import numpy as np
    from classim import kernel, trajectory

    s = SIZES["pair-oracle"]
    t_total = s["length"]
    rng = np.random.default_rng([seed, 0x0AC1E])
    roster = (trajectory.Person("p0", trajectory.Role.CHILD),
              trajectory.Person("p1", trajectory.Role.CHILD))
    cases = []
    for _ in range(s["geometries"]):
        r = float(rng.uniform(0.3, 2.5))
        ai, aj = (float(a) for a in rng.uniform(0.0, math.pi / 2, size=2))
        fi, fj = (math.cos(ai), math.sin(ai)), (-math.cos(aj), math.sin(aj))
        p_target = float(rng.uniform(0.1, 0.9))
        geom = kernel.relative_geometry((0.0, 0.0), fi, (r, 0.0), fj)
        shape = kernel.pair_rate(geom, kernel.KernelParams(beta_max=1.0))
        kp = kernel.KernelParams(beta_max=(1.0 - (1.0 - p_target) ** (1.0 / t_total)) / shape)
        p_hit = 1.0 - (1.0 - kernel.pair_rate(geom, kp)) ** t_total
        obs = trajectory.Observation(
            class_id="oracle", roster=roster, room_area_m2=100.0,
            positions=np.tile(np.array([[0.0, 0.0], [r, 0.0]]), (t_total, 1, 1)),
            facings=np.tile(np.array([fi, fj]), (t_total, 1, 1)),
            present=np.ones((t_total, 2), dtype=bool),
        )
        cases.append((obs, kp, p_hit))
    return cases


# ---------------------------------------------------------------------------
# set-up: what must happen before the first run can start
# ---------------------------------------------------------------------------

def setup(name: str, seed: int, in_dir: str):
    """Import classim, load the input, build one rate cache; return the input."""
    import classim

    if name == "pair-oracle":
        cases = _oracle_cases(seed)
        obs, kp, _ = cases[0]
        classim.pairwise_rates(obs.positions, obs.facings, obs.present, kp)
        return cases
    if name == "ingest-raw":
        obs = classim.load_observation(os.path.join(in_dir, "raw.csv"), classim.TrackFormat.RAW_TAGS)
    else:
        obs = classim.load_observation(os.path.join(in_dir, "class.csv"))
    classim.pairwise_rates(obs.positions, obs.facings, obs.present,
                           classim.default_kernel_params())
    return obs


def prepare(name: str, seed: int):
    """Untimed state the operation needs: the oracle's in-memory cases."""
    return _oracle_cases(seed) if name == "pair-oracle" else None


# ---------------------------------------------------------------------------
# the timed operation
# ---------------------------------------------------------------------------

def operate(name: str, seed: int, in_dir: str, out_dir: str, workers: int, prepared) -> dict:
    """Run the workload's timed operation once; return what it produced."""
    s = SIZES[name]
    if name == "pair-oracle":
        return _oracle_loop(seed, prepared, s["sessions"])
    sim_in = os.path.join(in_dir, "class.csv")
    if name == "ingest-raw":
        sim_in = os.path.join(out_dir, "fused.csv")
        _quiet_cli(["fuse", "--input", os.path.join(in_dir, "raw.csv"), "--out", sim_in])
    argv = ["simulate", sim_in, "--out", os.path.join(out_dir, "sim"),
            "--scenarios", ",".join(s["cells"]), "--reps", str(s["reps"]),
            "--horizon-days", str(s["horizon_days"]), "--base-seed", str(seed),
            "--workers", str(workers)]
    if name == "airborne":
        argv += ["--config", os.path.join(in_dir, "airborne.json")]
    _quiet_cli(argv)
    return {}


def _oracle_loop(seed: int, cases, sessions: int) -> dict:
    """Each session: new state, seed p0, replay 600 s with no rate cache."""
    import numpy as np
    from classim import epidemic

    dp = epidemic.DiseaseParams()
    hits = []
    for g, (obs, kp, _p) in enumerate(cases):
        rng = np.random.default_rng([seed, g])
        h = 0
        for _ in range(sessions):
            st = epidemic.new_epidemic_state(obs.person_ids, rng)
            epidemic.seed_patient_zero(st, "p0", dp)
            epidemic.simulate_session(st, obs, 0.0, kp, dp)
            h += st.counts()[0] == 0  # p1 no longer susceptible
        hits.append(h)
    return {"hits": hits, "sessions": sessions, "p_hit": [c[2] for c in cases]}


# ---------------------------------------------------------------------------
# checks that need classim
# ---------------------------------------------------------------------------

def fused_checks(fused_obs, fused_csv: str) -> list[tuple[str, bool, str]]:
    """Presence share of the fused input, and a lossless write + reload.

    ``fused_obs`` is the raw recording fused in memory; ``fused_csv`` is what
    ``classim fuse`` wrote from the same recording.
    """
    import numpy as np
    import classim

    share = float(fused_obs.present.mean())
    back = classim.load_observation(fused_csv)
    same = (
        back.roster == fused_obs.roster
        and back.room_area_m2 == fused_obs.room_area_m2
        and np.array_equal(back.present, fused_obs.present)
        and np.array_equal(back.positions, fused_obs.positions, equal_nan=True)
        and np.array_equal(back.facings, fused_obs.facings, equal_nan=True)
        and (back.activity is None) == (fused_obs.activity is None)
        and (back.activity is None or np.array_equal(back.activity, fused_obs.activity))
    )
    return [
        ("ingest.presence_share", share >= 0.99, f"{share:.4f} >= 0.99"),
        ("ingest.reload_identical", bool(same), "fused CSV reloads to the fused arrays"),
    ]
