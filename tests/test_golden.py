"""Byte-identity of ``classim simulate`` outputs across refactors.

A change that is only meant to restructure or speed up the code must leave
every output byte as it was.  These digests were recorded on a tiny seeded
input; a refactor that moves them has changed behaviour.

A declared change of the random-number stream (e.g. a one-draw-per-
susceptible transmission engine) re-baselines these digests: record the new
values in the same change and say so in CHANGES.md.

``summary.csv`` is left out on purpose: its ``beta_hat`` columns go through
numpy's vectorized ``exp``, which may differ by an ulp between CPUs.
"""

import hashlib
import json

from classim.cli import main

DROPLET_DIGESTS = {
    "curves.csv": "c8167c10996fa66054afaa683f7328cc058d5754ca6c66d7153a7decb157eb7b",
    "emergence.csv": "a1e13d67c0535ef3aad33208cca8abe74082543c6c8e6f2ffc92a2f01dfc0bfc",
}
AIRBORNE_DIGESTS = {
    "curves.csv": "0e4228c91b84f93553876f294fc6fc93948faaa71627be2150c6e303e716776d",
    "emergence.csv": "341a56687ffa93ab34135aa9633d40376fa21aff3987c7e24d4b42fce93d4a19",
}
#: The 600-s class over 3 days, 2 reps, every cell: 10 slots a session and
#: sources turning infectious mid-session.  Recorded with the per-second
#: airborne stepper, before sessions advanced in spans.
AIRBORNE_DAYS_DIGESTS = {
    "curves.csv": "903e992dd9b3957ec3e1008b7f2fc45838b7e7c4d5b00c600a068b16f7e6a933",
    "emergence.csv": "e7e280d33a275e40abecec44135703ab04120ee614a9c1859ddeba8de7cbe9e5",
}


def _synth(path, length_s):
    assert main(["synth", "--children", "5", "--teachers", "1", "--room", "4x4",
                 "--length", str(length_s), "--seed", "11", "--class-id", "golden",
                 "--out", str(path)]) == 0


def _simulate(tmp_path, obs, name, config, *flags):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / name
    assert main(["simulate", str(obs), "--config", str(cfg), "--out", str(out),
                 "--base-seed", "5", "--workers", "1", *flags]) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("curves.csv", "emergence.csv")}


def test_simulate_outputs_byte_identical(tmp_path, capsys):
    obs = tmp_path / "class.csv"
    _synth(obs, 600)
    droplet = _simulate(tmp_path, obs, "droplet",
                        {"kernel": {"beta_max_per_s": 2e-3}},
                        "--reps", "2", "--horizon-days", "7")
    assert droplet == DROPLET_DIGESTS
    airborne = _simulate(tmp_path, obs, "airborne-days",
                         {"kernel": {"beta_max_per_s": 2e-2, "mode": "airborne"}},
                         "--reps", "2", "--horizon-days", "3")
    assert airborne == AIRBORNE_DAYS_DIGESTS

    short = tmp_path / "short.csv"
    _synth(short, 120)
    airborne = _simulate(tmp_path, short, "airborne",
                         {"kernel": {"beta_max_per_s": 2e-2, "mode": "airborne"}},
                         "--reps", "1", "--horizon-days", "1", "--scenarios", "full-novax")
    assert airborne == AIRBORNE_DIGESTS
