"""Span tracer that wraps classim's public module functions from outside.

Inside classim, callers look functions up through the module (or class)
attribute at call time, so replacing that attribute sees every call and no
source edit is needed.  Each span records its id, parent, name, start, end
and run id; spans stay in memory and are written out at the end.  A span's
self time is its duration minus the time its child spans cover, and each
traced function hands its self time to exactly one layer metric.  Counts are
taken at the same boundaries and are deterministic for a given input.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time
from collections import Counter

#: (module, attribute, layer metric that receives the span's self time)
TRACED = (
    ("trajectory", "load_observation", "trajectory.load_s"),
    ("trajectory", "fuse_tags", "trajectory.fuse_s"),
    ("trajectory", "resample", "trajectory.resample_s"),
    ("trajectory", "save_observation", "trajectory.save_s"),
    ("trajectory", "Observation.subset", "trajectory.subset_s"),
    ("kernel", "pairwise_rates", "kernel.pairwise_s"),
    ("kernel", "rates_between", "kernel.rates_between_s"),
    ("scenario", "sweep", "scenario.sweep_self_s"),
    ("scenario", "run_simulation", "scenario.run_self_s"),
    ("scenario", "apply_half_class", "scenario.transform_s"),
    ("scenario", "apply_vaccination", "scenario.transform_s"),
    ("epidemic", "simulate_session", "epidemic.session_s"),
    ("epidemic", "transmission_step", "epidemic.step_s"),
    ("epidemic", "new_epidemic_state", "epidemic.bookkeeping_s"),
    ("epidemic", "seed_patient_zero", "epidemic.bookkeeping_s"),
    ("epidemic", "is_run_complete", "epidemic.bookkeeping_s"),
    ("epidemic", "progress_offclass", "epidemic.bookkeeping_s"),
    ("epidemic", "hourly_compartment_counts", "epidemic.bookkeeping_s"),
    ("epidemic", "event_log", "epidemic.bookkeeping_s"),
    ("metrics", "summarize_run", "metrics.summarize_s"),
    ("metrics", "aggregate_hourly", "metrics.aggregate_s"),
    ("metrics", "write_summary_csv", "metrics.write_s"),
    ("metrics", "write_curves_csv", "metrics.write_s"),
    ("metrics", "write_emergence_csv", "metrics.write_s"),
    ("cli", "main", "cli.self_s"),
)

#: Every per-layer metric: (name, unit, what it measures, end-to-end metric it
#: should move, workloads where it carries the signal).
LAYER_METRICS = (
    ("trajectory.load_s", "s", "self time of load_observation (CSV parse)", "setup_s, wall_s", "sweep-ref, ingest-raw"),
    ("trajectory.bytes_read", "B", "bytes of the CSVs load_observation read", "setup_s, wall_s", "sweep-ref, ingest-raw"),
    ("trajectory.fuse_s", "s", "fuse_tags", "wall_s, setup_s", "ingest-raw (0 elsewhere)"),
    ("trajectory.resample_s", "s", "resample", "wall_s, setup_s", "ingest-raw (0 elsewhere)"),
    ("trajectory.save_s", "s", "save_observation", "wall_s", "ingest-raw"),
    ("trajectory.bytes_written", "B", "bytes of the CSVs save_observation wrote", "wall_s", "ingest-raw"),
    ("trajectory.subset_calls", "count", "Observation.subset calls", "core_s_per_run", "sweep-ref half cells (0 on pair-oracle)"),
    ("trajectory.subset_s", "s", "Observation.subset, validation included", "core_s_per_run", "sweep-ref half cells (0 on pair-oracle)"),
    ("kernel.pairwise_calls", "count", "pairwise_rates calls: cache builds and uncached calls", "setup_s, core_s_per_run", "sweep-ref, ingest-raw (builds); pair-oracle (per call)"),
    ("kernel.pairwise_s", "s", "pairwise_rates", "setup_s, core_s_per_run", "sweep-ref, ingest-raw (builds); pair-oracle (per call)"),
    ("kernel.pair_seconds", "count", "sum of T*N^2 evaluated by pairwise_rates", "setup_s, core_s_per_run", "sweep-ref, ingest-raw, pair-oracle"),
    ("kernel.cache_bytes", "B", "T*N^2*8 per rate cache built (computed, not measured)", "worker_peak_rss_mb", "ingest-raw"),
    ("kernel.rates_between_calls", "count", "rates_between calls", "core_s_per_run", "airborne"),
    ("kernel.rates_between_s", "s", "rates_between", "core_s_per_run", "airborne"),
    ("scenario.runs", "count", "run_simulation calls: sample count of the run latencies", "core_s_per_run", "sweep-ref"),
    ("scenario.run_ms_p50", "ms", "median run_simulation latency", "core_s_per_run", "sweep-ref"),
    ("scenario.run_ms_p99", "ms", "99th-percentile run_simulation latency", "core_s_per_run", "sweep-ref"),
    ("scenario.run_self_s", "s", "run_simulation self time (roster lookups, generator, loop)", "core_s_per_run", "sweep-ref"),
    ("scenario.transform_s", "s", "apply_half_class + apply_vaccination", "core_s_per_run", "sweep-ref"),
    ("scenario.sweep_self_s", "s", "sweep self time: seed derivation, transmission stats, assembly", "core_s_per_run", "sweep-ref"),
    ("epidemic.sessions", "count", "simulate_session calls", "core_s_per_run", "all"),
    ("epidemic.session_s", "s", "simulate_session self time (segment engine)", "core_s_per_run", "sweep-ref, pair-oracle"),
    ("epidemic.session_ms_p50", "ms", "median simulate_session latency", "core_s_per_run", "sweep-ref, pair-oracle"),
    ("epidemic.steps", "count", "transmission_step frames", "core_s_per_run", "airborne (0 elsewhere)"),
    ("epidemic.step_s", "s", "transmission_step self time", "core_s_per_run", "airborne (0 elsewhere)"),
    ("epidemic.bookkeeping_s", "s", "state creation, seeding, completion tests, clock advance, hourly counts, event log", "core_s_per_run", "sweep-ref"),
    ("epidemic.infections", "count", "susceptibles infected during sessions", "ratio base", "all"),
    ("epidemic.early_stops", "count", "runs that simulated fewer sessions than the calendar holds", "ratio base", "all sweeps"),
    ("epidemic.early_stop_share", "ratio", "early_stops / scenario.runs", "ratio base", "all sweeps"),
    ("metrics.summarize_s", "s", "summarize_run", "wall_s", "sweep-ref"),
    ("metrics.aggregate_s", "s", "aggregate_hourly", "wall_s", "sweep-ref"),
    ("metrics.write_s", "s", "summary, curves and emergence CSV writers", "wall_s", "sweep-ref"),
    ("cli.self_s", "s", "cli.main self time: config, input sha256, manifest", "wall_s", "ingest-raw"),
    ("unattributed_s", "s", "traced wall minus the sum of all self times", "-", "all"),
    ("trace.wall_s", "s", "median traced wall of the operation at --workers 1", "-", "all"),
    ("trace.overhead_share", "ratio", "traced wall / untraced wall at --workers 1, minus 1", "-", "all"),
)

COUNTS = tuple(m for m, unit, *_ in LAYER_METRICS if unit in ("count", "B"))
#: A span of these starts a run; the spans below it share its id as run id.
RUN_ROOTS = ("scenario.run_simulation", "epidemic.simulate_session")


class Tracer:
    """Records spans and counts for the traced functions of one process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, run)
        self.counts: Counter = Counter()
        self._next_id = 0
        self._stack: list[tuple[int, int, str]] = []  # open spans: (id, run, name)

    def install(self) -> None:
        """Replace every TRACED attribute with its traced wrapper."""
        import classim
        from classim import cli, epidemic, kernel, metrics, scenario, trajectory

        modules = {"trajectory": trajectory, "kernel": kernel, "scenario": scenario,
                   "epidemic": epidemic, "metrics": metrics, "cli": cli}
        for mod_name, attr, _metric in TRACED:
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
            traced = self._wrap(fn, f"{mod_name}.{attr}")
            setattr(owner, leaf, traced)
            if getattr(classim, leaf, None) is fn:  # package-level re-export
                setattr(classim, leaf, traced)

    def _wrap(self, fn, name: str):
        before, after = _HOOKS.get(name, (None, None))
        sig = inspect.signature(fn) if before or after else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if sig else None
            token = before(self, bound) if before else None
            sid = self._next_id
            self._next_id += 1
            parent, run, parent_name = stack[-1] if stack else (-1, -1, None)
            if run < 0 and name in RUN_ROOTS:
                run = sid
            stack.append((sid, run, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, run))
            if after:
                after(self, bound, result, token, parent_name)
            return result

        return traced

    def write(self, path: str) -> None:
        """Write every span as CSV: id,parent,name,start_s,end_s,run."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,run\n")
            for s in sorted(self.spans):
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]!r},{s[4]!r},{s[5]}\n")

    def summary(self, wall_s: float) -> dict:
        """Every per-layer metric for what was traced, given the traced wall."""
        return layer_metrics(self.spans, self.counts, wall_s)


# ---------------------------------------------------------------------------
# counts taken at span boundaries
# ---------------------------------------------------------------------------

def _after_load(tr, a, result, token, parent):
    tr.counts["trajectory.bytes_read"] += os.path.getsize(a["path"])


def _after_save(tr, a, result, token, parent):
    tr.counts["trajectory.bytes_written"] += os.path.getsize(a["csv_path"])


def _after_pairwise(tr, a, result, token, parent):
    t, n, _ = result.shape
    tr.counts["kernel.pairwise_calls"] += 1
    tr.counts["kernel.pair_seconds"] += t * n * n
    if parent != "epidemic.simulate_session":  # a cache, not a per-segment block
        tr.counts["kernel.cache_bytes"] += t * n * n * 8


def _before_run(tr, a):
    return tr.counts["epidemic.sessions"]


def _after_run(tr, a, result, sessions_before, parent):
    horizon_s = a["sc"].horizon_days * 86400.0
    in_horizon = sum(1 for s in a["cal"].session_starts_s if s < horizon_s)
    tr.counts["scenario.runs"] += 1
    if tr.counts["epidemic.sessions"] - sessions_before < in_horizon:
        tr.counts["epidemic.early_stops"] += 1


def _before_session(tr, a):
    return a["state"].counts()[0]


def _after_session(tr, a, result, susceptible_before, parent):
    tr.counts["epidemic.sessions"] += 1
    tr.counts["epidemic.infections"] += susceptible_before - a["state"].counts()[0]


#: Counts that are the number of spans of one function.
CALLS = {
    "trajectory.Observation.subset": "trajectory.subset_calls",
    "kernel.rates_between": "kernel.rates_between_calls",
    "epidemic.transmission_step": "epidemic.steps",
}

_HOOKS = {
    "trajectory.load_observation": (None, _after_load),
    "trajectory.save_observation": (None, _after_save),
    "kernel.pairwise_rates": (None, _after_pairwise),
    "scenario.run_simulation": (_before_run, _after_run),
    "epidemic.simulate_session": (_before_session, _after_session),
}


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def _p(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 with no samples."""
    if not values:
        return 0.0
    values = sorted(values)
    return values[max(0, math.ceil(q * len(values)) - 1)]


def layer_metrics(spans, counts, wall_s: float) -> dict:
    """Self time per layer metric, latency percentiles, counts, unattributed time."""
    metric_of = {f"{m}.{a}": metric for m, a, metric in TRACED}
    counts = Counter(counts)
    covered = Counter()
    for sid, parent, name, start, end, _run in spans:
        if parent >= 0:
            covered[parent] += end - start
        if name in CALLS:
            counts[CALLS[name]] += 1
    out = {name: 0.0 for name, unit, *_ in LAYER_METRICS if unit in ("s", "ms", "ratio")}
    durations = {"scenario.run_simulation": [], "epidemic.simulate_session": []}
    total_self = 0.0
    for sid, _parent, name, start, end, _run in spans:
        self_s = (end - start) - covered[sid]
        out[metric_of[name]] += self_s
        total_self += self_s
        if name in durations:
            durations[name].append(1000.0 * (end - start))
    out["scenario.run_ms_p50"] = _p(durations["scenario.run_simulation"], 0.50)
    out["scenario.run_ms_p99"] = _p(durations["scenario.run_simulation"], 0.99)
    out["epidemic.session_ms_p50"] = _p(durations["epidemic.simulate_session"], 0.50)
    out["unattributed_s"] = wall_s - total_self
    out["trace.wall_s"] = wall_s
    for name in COUNTS:
        out[name] = int(counts[name])
    out["epidemic.early_stop_share"] = (
        counts["epidemic.early_stops"] / counts["scenario.runs"] if counts["scenario.runs"] else 0.0
    )
    return out
