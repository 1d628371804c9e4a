"""Compare two revisions on the benchmark: N alternating pairs per workload.

Usage:
    python3 scripts/bench_compare.py --base REV --change REV --out BENCH_<n>.json
        [--pairs 10] [--seconds 4] [--first-seed 1] [--workloads sweep-ref,pair-oracle]
        [--scratch DIR]

Each revision is exported with ``git archive`` into its own directory under
--scratch (default: a new temporary directory, removed at the end), so
both sides run from committed files only and outside this checkout.  Pair
i runs each side's own, unchanged ``perfbench/run.py --trace 0`` once on
seed first-seed + i; the side that goes first alternates from pair to
pair.

The JSON holds, per workload and end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles, every sample, the pairs the change won
and tied, and whether the median gap in the change's favour exceeds the
base's interquartile range; every run's exit code, ``correct`` and
``failed``; and nproc, the CPU model, and the Python and numpy versions.
Exits 1 when any run exits non-zero, reports a failed check, or lacks an
end-to-end metric.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-ref", "pair-oracle", "ingest-raw", "airborne")


def quantile(values: list[float], q: float) -> float:
    """Linearly interpolated quantile of the sorted values (numpy's default)."""
    values = sorted(values)
    at = q * (len(values) - 1)
    below = math.floor(at)
    above = min(below + 1, len(values) - 1)
    return values[below] + (values[above] - values[below]) * (at - below)


def side_stats(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "q1": quantile(samples, 0.25),
            "q3": quantile(samples, 0.75), "samples": samples}


def compare(base: list[float], change: list[float], better: str = "lower") -> dict:
    """Both sides' statistics, and the change's wins and ties, pair by pair.

    ``base[i]`` and ``change[i]`` are pair i.  A tie counts as no win.
    ``gap_exceeds_base_iqr`` is true when the change's median is better
    than the base's by more than the base's q3 - q1.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    ties = sum(c == b for b, c in zip(base, change))
    out = {"base": side_stats(base), "change": side_stats(change),
           "pairs": len(base), "wins": wins, "ties": ties}
    gain = sign * (out["base"]["median"] - out["change"]["median"])
    out["gap_exceeds_base_iqr"] = gain > out["base"]["q3"] - out["base"]["q1"]
    return out


def _export(rev: str, dest: Path) -> str:
    """``git archive`` revision ``rev`` into ``dest``; returns its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return commit


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run; its result line, or why it has none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": None, "metrics": {},
                  "stderr": proc.stderr[-2000:]}
    return {"exit": proc.returncode, **result}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="revision measured as the parent")
    p.add_argument("--change", required=True, help="revision measured as the change")
    p.add_argument("--out", required=True, type=Path, help="JSON file to write")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=4.0, help="run.py --seconds")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--scratch", type=Path, help="where the two exports go (default: a temp dir)")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")

    scratch = args.scratch or Path(tempfile.mkdtemp(prefix="bench_compare-"))
    try:
        sides = {"base": scratch / "base", "change": scratch / "change"}
        commits = {side: _export(getattr(args, side), path) for side, path in sides.items()}
        spec = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {m["name"]: m for m in spec["end_to_end"]}
        report = {
            "base": {"rev": args.base, "commit": commits["base"]},
            "change": {"rev": args.change, "commit": commits["change"]},
            "command": "perfbench/run.py --trace 0", "seconds": args.seconds,
            "pairs": args.pairs,
            "seeds": list(range(args.first_seed, args.first_seed + args.pairs)),
            "env": {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
                    "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy")},
            "workloads": {},
        }
        ok = True
        for workload in workloads:
            runs = []
            for i, seed in enumerate(report["seeds"]):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    r = _run(sides[side], workload, seed, args.seconds)
                    runs.append({"pair": i, "seed": seed, "side": side, **r})
                    print(f"{workload} seed {seed} {side}: exit {r['exit']} correct {r['correct']}",
                          file=sys.stderr)
            ok &= all(r["exit"] == 0 and r["correct"] is True and set(metrics) <= set(r["metrics"])
                      for r in runs)
            by_side = {side: [r for r in runs if r["side"] == side] for side in sides}
            summary = {}
            for name, m in metrics.items():
                if all(name in r["metrics"] for r in runs):
                    values = {side: [r["metrics"][name]["value"] for r in rs]
                              for side, rs in by_side.items()}
                    summary[name] = {"unit": m["unit"], "bound": m["bound"],
                                     **compare(values["base"], values["change"], m["better"])}
            report["workloads"][workload] = {
                "metrics": summary,
                "runs": [{k: r[k] for k in ("pair", "seed", "side", "exit", "correct",
                                            "attempted", "failed", "stderr") if k in r}
                         for r in runs],
            }
        report["all_correct"] = ok
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    finally:
        if args.scratch is None:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
