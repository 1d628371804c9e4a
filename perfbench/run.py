"""classim benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep-ref --seed 1 --seconds 15 --trace 0

Run from the root of a classim checkout.  The inputs are made from --seed
in a scratch directory under the checkout (.perfbench_work/), which is
removed at the end.  Every measured step runs in a fresh process
(child.py), so peak RSS, imports and pools never leak from one step into
the next.

--trace 0  repeats the workload's timed operation at --workers = nproc, each
           time followed by a fresh set-up measurement, until --seconds have
           passed (at least three times), and reports the end-to-end metrics
           as medians.
--trace 1  runs the operation untraced at --workers 1 (and, for sweep-ref,
           at --workers = nproc, whose outputs must be byte-identical), then
           traced at --workers 1 until --seconds have passed (at least
           twice), and reports the per-layer metrics as medians.

Both modes check the outputs.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the line before it is a
report with the environment, the input sizes, every sample, every check
and the output digests.  A table goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit); every one is lower-is-better.
END_TO_END = (
    ("wall_s", "s"),
    ("core_s_per_run", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("worker_peak_rss_mb", "MB"),
)
#: Fewest repetitions per mode; --seconds may allow more.
MIN_SAMPLES = {0: 3, 1: 2}
#: A run must finish well inside the 180 s a caller allows it.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: int, work: Path):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.in_dir = work / "in"
        self.expected = workloads.expected(workload)
        self.checks: list[tuple[str, bool, str]] = []
        self.deadline = time.monotonic() + DEADLINE_S
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        # One BLAS thread per process: the load is then exactly the process and
        # its pool, and numpy's import no longer starts a thread per core,
        # whose start-up time swings by 2x on a virtual machine.
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.n_ops = 0

    # -- processes -------------------------------------------------------

    def child(self, mode: str, **kw) -> dict:
        """Run child.py in a fresh process group and wait for all of it."""
        kw.update(workload=self.workload, seed=self.seed, in_dir=str(self.in_dir))
        cmd = [sys.executable, str(HERE / "child.py"), mode, json.dumps(kw)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=ROOT, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} step passed the {DEADLINE_S:.0f} s deadline") from None
        finally:
            try:  # pool workers share the group; none may outlive the step
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{mode} step exited {proc.returncode}:\n{err[-3000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def op(self, workers: int, trace: bool = False, spans_path: str | None = None) -> dict:
        """One timed operation, its output checks and digests."""
        out_dir = self.work / f"op{self.n_ops}"
        self.n_ops += 1
        out_dir.mkdir(parents=True)
        r = self.child("op", out_dir=str(out_dir), workers=workers, trace=trace,
                       spans_path=spans_path)
        r["out_dir"] = str(out_dir)
        if self.workload == "pair-oracle":
            self.checks += checks.oracle_checks(r["result"], self.expected["runs"])
            r["digest"] = r["result"]["hits"]
        else:
            sim = str(out_dir / "sim")
            self.checks += checks.sweep_checks(sim, self.expected, self.info["teachers"])
            r["digest"] = checks.output_hashes(sim)
        return r

    # -- modes -----------------------------------------------------------

    def run(self) -> tuple[dict, dict]:
        self.info = self.child("gen")
        if self.trace:
            return self.run_traced()
        return self.run_timed()

    def run_timed(self):
        ops, setups = [], []
        start = time.monotonic()
        while len(ops) < MIN_SAMPLES[0] or time.monotonic() - start < self.seconds:
            r = self.op(workloads.NPROC)
            fused = str(Path(r["out_dir"]) / "fused.csv") if self.workload == "ingest-raw" else None
            s = self.child("setup", fused_csv=fused)
            self.checks += [tuple(c) for c in s.get("checks", [])]
            shutil.rmtree(r["out_dir"])
            ops.append(r)
            setups.append(s["setup_s"])
        for r in ops[1:]:
            self.checks.append(checks.same("repeat.outputs", r["digest"], ops[0]["digest"],
                                           "every repetition gives the same outputs"))
        runs = self.expected["runs"]
        samples = {
            "wall_s": [r["wall_s"] for r in ops],
            "core_s_per_run": [r["cpu_s"] / runs for r in ops],
            "setup_s": setups,
            "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in ops],
            # the largest pool worker, or this process when there is no pool
            "worker_peak_rss_mb": [(r["workers_maxrss_kb"] or r["maxrss_kb"]) / 1024 for r in ops],
        }
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END}
        return metrics, {"samples": samples, "output_digest": ops[0]["digest"]}

    def run_traced(self):
        spans_path = f".perfbench_work/last-spans-{self.workload}.csv"
        base = self.op(1)
        if self.workload == "sweep-ref":
            wide = self.op(workloads.NPROC)
            self.checks.append(checks.same("sweep.workers_identical", base["digest"],
                                           wide["digest"], f"--workers 1 == --workers {workloads.NPROC}"))
        if self.workload == "ingest-raw":
            s = self.child("setup", fused_csv=str(Path(base["out_dir"]) / "fused.csv"))
            self.checks += [tuple(c) for c in s["checks"]]
        traced = []
        start = time.monotonic()
        while len(traced) < MIN_SAMPLES[1] or time.monotonic() - start < self.seconds:
            r = self.op(1, trace=True, spans_path=spans_path)
            shutil.rmtree(r["out_dir"])
            traced.append(r)
        counts = {name: traced[0]["layers"][name] for name in tracer.COUNTS}
        for r in traced:
            self.checks.append(checks.same("trace.outputs_unchanged", r["digest"], base["digest"],
                                           "traced outputs == untraced outputs"))
            self.checks.append(checks.same("trace.counts_repeat", {n: r["layers"][n] for n in counts},
                                           counts, "work counts repeat exactly"))
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name, *_ in tracer.LAYER_METRICS if name != "trace.overhead_share"}
        layers.update(counts)
        layers["trace.overhead_share"] = layers["trace.wall_s"] / base["wall_s"] - 1.0
        self.checks += isolation_checks(self.workload, layers, self.expected)
        units = {name: unit for name, unit, *_ in tracer.LAYER_METRICS}
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
        return metrics, {
            "samples": {"trace.wall_s": [r["wall_s"] for r in traced]},
            "untraced_wall_s": base["wall_s"],
            "output_digest": base["digest"],
            "spans": spans_path,
            "layer_map": {name: {"unit": u, "what": what, "moves": moves, "on": on}
                          for name, u, what, moves, on in tracer.LAYER_METRICS},
        }


def isolation_checks(workload: str, m: dict, exp: dict) -> list[tuple[str, bool, str]]:
    """The traced run exercises the layers the workload exists for, and no others."""
    if workload == "pair-oracle":
        idle = [n for n, v in m.items() if n.split(".")[0] in ("trajectory", "scenario", "metrics", "cli")
                and v != 0]
        return [("isolation.engine_only", not idle, f"trajectory/scenario/metrics/cli idle; busy: {idle}"),
                ("isolation.sessions", m["epidemic.sessions"] == exp["runs"],
                 f"{m['epidemic.sessions']} sessions == {exp['runs']}")]
    out = [("isolation.runs", m["scenario.runs"] == exp["runs"],
            f"{m['scenario.runs']} runs == {exp['runs']}")]
    if workload == "airborne":
        return out + [("isolation.stepper", m["epidemic.steps"] > 0 and m["kernel.rates_between_calls"] > 0,
                       "the per-frame stepper and rates_between run")]
    out.append(("isolation.segment_engine", m["epidemic.steps"] == 0 and m["kernel.rates_between_calls"] == 0,
                "no per-frame steps outside airborne"))
    if workload == "ingest-raw":
        out.append(("isolation.ingest", m["trajectory.fuse_s"] > 0 and m["trajectory.bytes_written"] > 0,
                    "fusion and the fused write run"))
    else:
        out.append(("isolation.half_cells", m["trajectory.subset_calls"] > 0 and m["trajectory.fuse_s"] == 0,
                    "half cells subset the roster; nothing is fused"))
    return out


def _table(metrics: dict, failed: list) -> str:
    lines = [f"{name:28s} {m['value']:>16.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [f"FAILED {name}: {detail}" for name, _ok, detail in failed]
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "classim" / "__init__.py").is_file():
        print(f"error: no classim source under {ROOT / 'src'}; run from a classim checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, args.seconds, args.trace, work)
    try:
        work.mkdir(parents=True)
        metrics, extra = bench.run()
    except BenchError as e:
        print(f"error: {args.workload}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [c for c in bench.checks if not c[1]]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": {"nproc": workloads.NPROC, "cpu_model": _cpu_model(),
                "python": platform.python_version(), "numpy": bench.info["numpy"],
                "classim": bench.info["classim"]},
        "size": workloads.SIZES[args.workload],
        "input": {k: v for k, v in bench.info.items() if k not in ("numpy", "classim", "teachers")},
        "failed_share": len(failed) / len(bench.checks),
        "failed_checks": [{"name": n, "detail": d} for n, _ok, d in failed],
        **extra,
    }
    print(_table(metrics, failed), file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failed, "attempted": len(bench.checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
