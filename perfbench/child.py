"""One step of the benchmark in a fresh process; run.py starts it.

    python3 perfbench/child.py <gen|setup|op> '<json arguments>'

gen    writes the workload's inputs (never timed);
setup  times importing classim, loading the input and building one rate
       cache, from the start of this process; given fused_csv, it then
       checks that file against the input it just fused;
op     runs the timed operation once, optionally traced, and reports its
       wall time, CPU time and peak RSS of this process and its pool workers.

The result is one JSON object on the last line of standard output.  classim
is found through PYTHONPATH, which run.py points at the checkout's src/.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def setup(a: dict) -> dict:
    obs = workloads.setup(a["workload"], a["seed"], a["in_dir"])
    out = {"setup_s": time.perf_counter() - T0}
    if a.get("fused_csv"):
        out["checks"] = workloads.fused_checks(obs, a["fused_csv"])
    return out


def op(a: dict) -> dict:
    import classim  # noqa: F401  (imported before the timed region)

    tracer = None
    if a["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    prepared = workloads.prepare(a["workload"], a["seed"])
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    result = workloads.operate(a["workload"], a["seed"], a["in_dir"], a["out_dir"],
                               a["workers"], prepared)
    wall = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = {
        "wall_s": wall,
        "cpu_s": _cpu_s(self1) - _cpu_s(self0) + _cpu_s(kids1) - _cpu_s(kids0),
        "maxrss_kb": self1.ru_maxrss,
        "workers_maxrss_kb": kids1.ru_maxrss,
        "result": result,
    }
    if tracer:
        out["layers"] = tracer.summary(wall)
        if a.get("spans_path"):
            tracer.write(a["spans_path"])
    return out


def gen(a: dict) -> dict:
    return workloads.generate(a["workload"], a["seed"], a["in_dir"])


if __name__ == "__main__":
    mode, args = sys.argv[1], json.loads(sys.argv[2])
    result = {"gen": gen, "setup": setup, "op": op}[mode](args)
    print(json.dumps(result))
