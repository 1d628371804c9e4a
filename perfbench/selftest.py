"""Self-test of the benchmark at tiny sizes; exits 1 if anything is off.

    python3 perfbench/selftest.py

Shows that every correctness check passes on a real output and fails on a
deliberately wrong one, so no check is vacuous; that the tracer's counts
repeat and its self times add up to the traced wall; and that
BENCHMARK.json names exactly the metrics run.py prints.  Works in a scratch
directory under the checkout (.perfbench_work/), removed at the end.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(what: str, ok: bool) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def passed(results, name: str) -> bool:
    return all(ok for n, ok, _ in results if n == name) and any(n == name for n, *_ in results)


def caught(results, name: str) -> bool:
    return any(n == name and not ok for n, ok, _ in results)


def cli(*argv: str) -> None:
    workloads._quiet_cli(list(argv))


def rewrite(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def set_field(line: str, col: int, value: str) -> str:
    cells = line.rstrip("\n").split(",")
    cells[col] = value
    return ",".join(cells) + "\n"


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect("BENCHMARK.json end_to_end == run.END_TO_END",
           [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END))
    expect("BENCHMARK.json per_layer == tracer.LAYER_METRICS",
           [(m["name"], m["unit"]) for m in spec["per_layer"]]
           == [(name, unit) for name, unit, *_ in tracer.LAYER_METRICS])
    expect("BENCHMARK.json workloads == workloads.WORKLOADS",
           tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect("setup_s has the largest bound",
           bool(setup) and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]))


def test_sweep_checks(work: Path) -> None:
    cli("synth", "--children", "3", "--teachers", "1", "--room", "4x4", "--length", "120",
        "--schedule", "0-60:structured,60-120:unstructured", "--seed", "5",
        "--out", str(work / "tiny.csv"))
    exp = {"cells": workloads._cells(3, 1, workloads.ALL_CELLS), "reps": 2, "n_people": 4,
           "horizon_days": 2}
    for w in (1, 2):
        cli("simulate", str(work / "tiny.csv"), "--out", str(work / f"sim{w}"), "--reps", "2",
            "--horizon-days", "2", "--base-seed", "3", "--workers", str(w))
    good = checks.sweep_checks(str(work / "sim1"), exp, {"t01"})
    expect("sweep checks pass on a real sweep", all(ok for _, ok, _ in good))
    expect("workers=1 and workers=2 outputs identical",
           checks.same("w", checks.output_hashes(str(work / "sim1")),
                       checks.output_hashes(str(work / "sim2")), "")[1])

    def hour0(cell: str, lines):
        return next(k for k, line in enumerate(lines) if line.startswith(f"{cell},0,"))

    wrong = {
        "sweep.headers": ("summary.csv", lambda ls: [ls[0].replace("saturation", "sat")] + ls[1:]),
        "sweep.rows": ("summary.csv", lambda ls: ls[:-1]),
        "sweep.curve_rows": ("curves.csv", lambda ls: ls[:-1]),
        "sweep.numbers": ("curves.csv", lambda ls: ls[:5] + [set_field(ls[5], 2, "nan")] + ls[6:]),
        "sweep.roster_sizes": ("curves.csv", lambda ls: [
            set_field(line, 4, "4.0") if k == hour0("half-novax", ls) else line
            for k, line in enumerate(ls)]),
        "sweep.saturation": ("summary.csv", lambda ls: ls[:1] + [set_field(ls[1], 4, "1.5")] + ls[2:]),
    }
    for name, (fname, edit) in wrong.items():
        bad = work / f"bad-{name}"
        shutil.copytree(work / "sim1", bad)
        rewrite(bad / fname, edit)
        expect(f"{name} fails on a wrong {fname}",
               passed(good, name) and caught(checks.sweep_checks(str(bad), exp, {"t01"}), name))
    bad = work / "bad-immune"
    shutil.copytree(work / "sim1", bad)
    rewrite(bad / "summary.csv", lambda ls: ls[:1] + [set_field(ls[1], 4, "0.0")] + ls[2:])
    expect("sweep.saturation fails on 0 for a child patient zero in an unvaccinated cell",
           caught(checks.sweep_checks(str(bad), exp, {"t01"}), "sweep.saturation"))
    digest = checks.output_hashes(str(work / "sim1"))
    expect("sweep.workers_identical fails on different outputs",
           not checks.same("sweep.workers_identical", digest,
                           checks.output_hashes(str(work / "bad-sweep.rows")), "")[1])


def test_oracle_checks() -> None:
    cases = workloads._oracle_cases(seed=4)
    result = workloads._oracle_loop(4, cases, 400)
    runs = 400 * len(cases)
    good = checks.oracle_checks(result, runs)
    expect("oracle checks pass on the engine's sessions", all(ok for _, ok, _ in good))
    off = copy.deepcopy(result)
    off["hits"][3] = min(400, off["hits"][3] + 100)  # frequency off by 0.25
    expect("oracle.geometry_3 fails on a shifted hit frequency",
           caught(checks.oracle_checks(off, runs), "oracle.geometry_3"))
    expect("oracle.sessions fails on a wrong session count",
           caught(checks.oracle_checks(result, runs + 1), "oracle.sessions"))


def test_fused_checks(work: Path) -> None:
    from classim import synthgen, trajectory

    from rawtags import write_raw_tags

    half = 60
    intervals = ((0, half, trajectory.Activity.STRUCTURED), (half, 120, trajectory.Activity.UNSTRUCTURED))
    obs = synthgen.generate(synthgen.SynthConfig(n_children=3, n_teachers=1, room_w=4.0, room_h=4.0,
                                                 session_length_s=120, schedule=intervals, seed=2))
    info = write_raw_tags(obs, intervals, str(work / "raw.csv"), seed=2)
    expect("raw-tag writer reports rows and bytes", info["raw_rows"] > 0 and info["raw_bytes"] > 0)
    cli("fuse", "--input", str(work / "raw.csv"), "--out", str(work / "fused.csv"))
    fused = trajectory.load_observation(work / "raw.csv", trajectory.TrackFormat.RAW_TAGS)
    good = workloads.fused_checks(fused, str(work / "fused.csv"))
    expect("fused checks pass on classim fuse output", all(ok for _, ok, _ in good))
    sparse = copy.copy(fused)
    sparse.present = fused.present.copy()
    sparse.present[: len(sparse.present) // 2] = False
    expect("ingest.presence_share fails on a half-absent recording",
           caught(workloads.fused_checks(sparse, str(work / "fused.csv")), "ingest.presence_share"))
    rewrite(work / "fused.csv", lambda ls: [  # move one present person at t = 60
        set_field(line, 4, "0.123") if line.startswith("60,c01,child,1,") else line for line in ls])
    expect("ingest.reload_identical fails on a changed coordinate",
           caught(workloads.fused_checks(fused, str(work / "fused.csv")), "ingest.reload_identical"))
    # the fused centre is the synthetic centre, up to interpolation between tag reports
    both = fused.present[:, :] & obs.present[: len(fused.present)]
    err = abs(fused.positions[both] - obs.positions[: len(fused.present)][both]).max()
    expect(f"fused tags give back the centres (max error {err:.3f} m < 0.5 m)", err < 0.5)


def test_tracer(work: Path) -> None:
    from classim import cli as classim_cli

    argv = ["simulate", str(work / "tiny.csv"), "--out", str(work / "traced"), "--reps", "2",
            "--horizon-days", "2", "--base-seed", "3", "--workers", "1"]
    layers = []
    t = tracer.Tracer()
    t.install()
    for _ in range(2):
        t.spans.clear()
        t.counts.clear()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            classim_cli.main(argv)
        layers.append(t.summary(time.perf_counter() - start))
    counts = [{n: lay[n] for n in tracer.COUNTS} for lay in layers]
    expect("traced work counts repeat exactly", counts[0] == counts[1])
    expect("trace.counts_repeat fails on different counts",
           not checks.same("trace.counts_repeat", counts[0],
                           dict(counts[0], **{"epidemic.sessions": -1}), "")[1])
    lay = layers[0]
    expect(f"unattributed time is small ({lay['unattributed_s']:.2e} s of {lay['trace.wall_s']:.3f} s)",
           -1e-3 < lay["unattributed_s"] < 0.05 * lay["trace.wall_s"])
    expect("traced runs == 4 cells x 2 reps x 4 people", lay["scenario.runs"] == 32)
    expect("traced outputs == untraced outputs",
           checks.output_hashes(str(work / "traced")) == checks.output_hashes(str(work / "sim1")))
    exp = {"runs": 32}
    expect("isolation checks pass on the traced sweep",
           all(ok for _, ok, _ in run.isolation_checks("sweep-ref", lay, exp)))
    expect("isolation.engine_only fails when a sweep is passed off as the oracle",
           caught(run.isolation_checks("pair-oracle", lay, exp), "isolation.engine_only"))
    expect("isolation.stepper fails when a droplet sweep is passed off as airborne",
           caught(run.isolation_checks("airborne", lay, exp), "isolation.stepper"))
    expect("isolation.ingest fails when nothing was fused",
           caught(run.isolation_checks("ingest-raw", lay, exp), "isolation.ingest"))
    expect("isolation.runs fails on a wrong run count",
           caught(run.isolation_checks("sweep-ref", lay, {"runs": 33}), "isolation.runs"))


def main() -> int:
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        test_benchmark_json()
        test_sweep_checks(work)
        test_oracle_checks()
        test_fused_checks(work)
        test_tracer(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
