"""Command-line front end: calibrate, synth, fuse, simulate.

``simulate`` binds the whole pipeline into a reproducible batch run: it
resolves parameters (built-in defaults < config file < flags), sweeps all
requested scenario cells of each observation in one pass, writes the three
metric CSVs, and drops a manifest holding the resolved parameter snapshot
plus input digests.  Re-running with that manifest as the config reproduces
the outputs byte for byte, at any worker count.

Exit codes: 0 success, 1 runtime/data error, 2 usage error; ``simulate``
exits 143 on SIGTERM.  An interrupt prints one ``error:`` line, and the
command then ends by SIGINT.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import signal
import sys
import threading
from pathlib import Path


from . import __version__, epidemic, metrics, scenario, synthgen, trajectory
from .errors import ClassimError, ConfigError
from .kernel import (
    FEET_TO_M,
    SECONDS_PER_DAY,
    CalibrationInputs,
    KernelParams,
    calibrate_beta_max,
    daily_contact_density,
    density,
)

WORKERS_ENV = "CLASSIM_WORKERS"

#: Built-in parameters, in config keys and units.  Every default comes from
#: its parameter class; only the two values no class holds are written here.
DEFAULT_CONFIG = {
    "scenarios": list(scenario.SCENARIO_CELLS),
    "vaccine_efficacy": scenario.ScenarioConfig.vaccine_efficacy,
    "horizon_days": scenario.ScenarioConfig.horizon_days,
    "reps": scenario.ScenarioConfig.reps_per_patient_zero,
    "base_seed": scenario.ScenarioConfig.base_seed,
    "kernel": {
        "beta_max_per_s": None,  # None -> calibrated from the calibration block
        "sigma_r_m": KernelParams.sigma_r,
        "sigma_theta_deg": math.degrees(KernelParams.sigma_theta),
        "lambda_per_h": KernelParams.lambda_decay,
        "mode": KernelParams.mode.value,
    },
    "disease": {**dataclasses.asdict(epidemic.DiseaseParams()), "dt_s": 1.0},
    "calibration": {
        "r0": CalibrationInputs.r0,
        "gamma_per_day": CalibrationInputs.gamma,
        "contacts": CalibrationInputs.n_contacts,
        "contact_radius_m": CalibrationInputs.contact_radius,
        "contact_minutes": CalibrationInputs.contact_duration,
    },
}


def _parse_length_m(text: str) -> float:
    """Length with optional unit suffix: '6ft' (feet) or '1.83'/'1.83m' (meters)."""
    value = text.strip().lower()
    try:
        if value.endswith("ft"):
            return float(value[:-2]) * FEET_TO_M
        if value.endswith("m"):
            return float(value[:-1])
        return float(value)
    except ValueError:
        raise ConfigError(f"length must look like 6ft or 1.83m, got {text!r}") from None


def _fmt(x: float) -> str:
    return repr(float(x))


@contextlib.contextmanager
def _invalid_parameters():
    """Report a parameter object's own validation failure as a ConfigError.

    The parameter classes raise ValueError, values of the wrong JSON type
    TypeError, and derived parameters can overflow or divide by zero; at
    the command line all are bad input, not a fault of the program.
    """
    try:
        yield
    except (TypeError, ValueError, ArithmeticError) as e:
        raise ConfigError(f"invalid parameter: {e}") from None


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    contact_radius = _parse_length_m(args.contact_radius)
    with _invalid_parameters():
        c = CalibrationInputs(
            r0=args.r0,
            gamma=args.gamma,
            n_contacts=args.contacts,
            contact_radius=contact_radius,
            contact_duration=args.contact_minutes,
            sigma_r=args.sigma_r,
            sigma_theta=math.radians(args.sigma_theta_deg),
        )
        rho = daily_contact_density(c)
        beta_day = calibrate_beta_max(c)  # infinite too when r0 * gamma overflows
        if not (math.isfinite(rho) and math.isfinite(beta_day)):
            raise ValueError(f"calibration is not finite: rho_daily_per_m2={_fmt(rho)}, "
                             f"beta_max_per_day={_fmt(beta_day)}")
    beta_bar = c.r0 * c.gamma
    print(f"rho_daily_per_m2={_fmt(rho)}")
    print(f"beta_bar_per_day={_fmt(beta_bar)}")
    print(f"beta_max_per_day={_fmt(beta_day)}")
    print(f"beta_max_per_s={_fmt(beta_day / SECONDS_PER_DAY)}")
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _parse_room(text: str) -> tuple[float, float]:
    try:
        w, h = text.lower().split("x")
        return float(w), float(h)
    except ValueError:
        raise ConfigError(f"room must look like 8x8, got {text!r}") from None


def _parse_schedule(text: str):
    intervals = []
    for part in text.split(","):
        try:
            span, label = part.split(":")
            a, b = span.split("-")
            intervals.append((int(a), int(b), trajectory.Activity(label.strip())))
        except ValueError:
            raise ConfigError(
                f"schedule interval must look like 0-600:structured, got {part!r}"
            ) from None
    return tuple(intervals)


def _parse_speed(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise ConfigError(f"speed must look like 0.3:1.2, got {text!r}") from None


def cmd_synth(args) -> int:
    room_w, room_h = _parse_room(args.room)
    speed_min, speed_max = _parse_speed(args.speed)
    schedule = _parse_schedule(args.schedule) if args.schedule else None
    cfg = synthgen.SynthConfig(
        n_children=args.children,
        n_teachers=args.teachers,
        room_w=room_w,
        room_h=room_h,
        session_length_s=args.length,
        schedule=schedule,
        speed_min=speed_min,
        speed_max=speed_max,
        seed=args.seed,
        class_id=args.class_id,
    )
    obs = synthgen.generate(cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    trajectory.save_observation(obs, out)
    print(f"observation={out}")
    print(f"density_per_m2={_fmt(density(obs.n_people, obs.room_area_m2))}")
    return 0


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------

def cmd_fuse(args) -> int:
    obs = trajectory.load_observation(
        args.input, trajectory.TrackFormat.RAW_TAGS, meta_path=args.meta
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    trajectory.save_observation(obs, out)
    print(f"observation={out}")
    print(f"people={obs.n_people}")
    print(f"seconds={obs.session_length_s}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _load_config(path: str | None) -> tuple[dict, list[tuple[str, str | None, str | None]]]:
    """Resolved config dict plus any inputs recorded in a manifest, each a
    path and the recorded sha256 of it and of its sidecar (None when the
    entry has none)."""
    resolved = DEFAULT_CONFIG
    manifest_inputs: list[tuple[str, str | None, str | None]] = []
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON in {path}: {e}") from e
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path} is not valid UTF-8 text ({e.reason})") from None
        if isinstance(raw, dict) and "parameters" in raw:  # a manifest doubles as a config
            inputs = raw.get("inputs", [])
            if not isinstance(inputs, list) or not all(
                    isinstance(e, dict) and isinstance(e.get("path"), str) for e in inputs):
                raise ConfigError(f"manifest inputs in {path} must be objects with a path")
            manifest_inputs = [(e["path"], e.get("sha256"), e.get("meta_sha256")) for e in inputs]
            for entry_path, *recorded in manifest_inputs:
                for key, digest in zip(("sha256", "meta_sha256"), recorded):
                    if digest is not None and not isinstance(digest, str):
                        raise ConfigError(f"manifest {key} of {entry_path} in {path} must be a string")
            raw = raw["parameters"]
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        unknown = set(raw) - set(DEFAULT_CONFIG)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for section in ("kernel", "disease", "calibration"):
            if not isinstance(raw.get(section, {}), dict):
                raise ConfigError(f"config {section} must be a JSON object")
            bad = set(raw.get(section, {})) - set(DEFAULT_CONFIG[section])
            if bad:
                raise ConfigError(f"unknown {section} config keys: {sorted(bad)}")
            if any(isinstance(v, bool) for v in raw.get(section, {}).values()):
                raise ConfigError(f"config {section} values must not be true/false")
        resolved = _merge(DEFAULT_CONFIG, raw)
    return resolved, manifest_inputs


def _kernel_params(cfg: dict) -> KernelParams:
    """Kernel parameters from the config; the calibration block is checked
    even when ``beta_max_per_s`` makes it unused, as the manifest records it."""
    kc, cc = cfg["kernel"], cfg["calibration"]
    c = CalibrationInputs(
        r0=cc["r0"],
        gamma=cc["gamma_per_day"],
        n_contacts=cc["contacts"],
        contact_radius=cc["contact_radius_m"],
        contact_duration=cc["contact_minutes"],
        sigma_r=kc["sigma_r_m"],
        sigma_theta=math.radians(kc["sigma_theta_deg"]),
    )
    beta_max = kc["beta_max_per_s"]
    if beta_max is None:
        beta_max = calibrate_beta_max(c) / SECONDS_PER_DAY
    return KernelParams(
        beta_max=beta_max,
        sigma_r=kc["sigma_r_m"],
        sigma_theta=math.radians(kc["sigma_theta_deg"]),
        lambda_decay=kc["lambda_per_h"],
        mode=kc["mode"],
    )


def _disease_params(cfg: dict) -> epidemic.DiseaseParams:
    section = dict(cfg["disease"])
    dt_s = section.pop("dt_s")
    if dt_s != 1.0:  # kept so manifests keep their bytes; the grid is 1 Hz
        raise ValueError(f"dt_s must be 1.0, the 1 Hz trajectory grid, got {dt_s!r}")
    return epidemic.DiseaseParams(**section)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    # inputs are hashed before the sweep's pool forks; a freed 1-MB block
    # stayed resident in the heap that every worker inherits, a 64-KB one does not
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _workers(flag: int | None) -> int:
    """Worker count from --workers, else $CLASSIM_WORKERS, else the number of
    CPUs this process may run on."""
    if flag is not None:
        value, source = flag, "--workers"
    elif os.environ.get(WORKERS_ENV):
        source = WORKERS_ENV
        try:
            value = int(os.environ[WORKERS_ENV])
        except ValueError:
            raise ConfigError(
                f"{WORKERS_ENV} must be an integer, got {os.environ[WORKERS_ENV]!r}"
            ) from None
    elif hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    else:
        return os.cpu_count() or 1
    if value < 1:
        raise ConfigError(f"{source} must be >= 1, got {value}")
    return value


def cmd_simulate(args) -> int:
    """Sweep every observation's cells; write the three CSVs and the manifest.

    Every input and every sweep's plan is checked before any output exists.
    Runs then stream out of ``scenario.sweep`` and are folded as they
    arrive: each one's summary row is written to summary.csv, its hourly
    counts join its group's integer sums and its three onset days its
    group's list, and the outcome itself is dropped.  On any failure, an interrupt or SIGTERM
    included, the sweep's workers are stopped and every output file is
    removed; SIGTERM then exits 143.
    """
    cfg, manifest_inputs = _load_config(args.config)
    if args.reps is not None:
        cfg = _merge(cfg, {"reps": args.reps})
    if args.horizon_days is not None:
        cfg = _merge(cfg, {"horizon_days": args.horizon_days})
    if args.base_seed is not None:
        cfg = _merge(cfg, {"base_seed": args.base_seed})
    if args.scenarios is not None:
        cfg = _merge(cfg, {"scenarios": args.scenarios.split(",")})
    if not isinstance(cfg["scenarios"], list):
        raise ConfigError(f"scenarios must be a list of names, got {cfg['scenarios']!r}")
    if not cfg["scenarios"]:
        raise ConfigError(f"scenarios is empty; pick from {sorted(scenario.SCENARIO_CELLS)}")
    for i, name in enumerate(cfg["scenarios"]):
        if not isinstance(name, str) or name not in scenario.SCENARIO_CELLS:
            raise ConfigError(
                f"unknown scenario {name!r}; pick from {sorted(scenario.SCENARIO_CELLS)}"
            )
        if name in cfg["scenarios"][:i]:
            raise ConfigError(f"scenario {name!r} is listed twice; each cell runs once")

    # paths on the command line replace a manifest's inputs and are not checked
    inputs = [(p, None, None) for p in args.observations] or manifest_inputs
    if not inputs:
        raise ConfigError("no observation files given (and the config is not a manifest)")
    workers = _workers(args.workers)

    with _invalid_parameters():
        kp = _kernel_params(cfg)
        dp = _disease_params(cfg)
        cells = [
            scenario.ScenarioConfig(
                density=scenario.SCENARIO_CELLS[name][0],
                vaccination=scenario.SCENARIO_CELLS[name][1],
                vaccine_efficacy=cfg["vaccine_efficacy"],
                horizon_days=cfg["horizon_days"],
                reps_per_patient_zero=cfg["reps"],
                base_seed=cfg["base_seed"],
            )
            for name in cfg["scenarios"]
        ]
    cfg = _merge(cfg, {"kernel": {"beta_max_per_s": kp.beta_max}})  # resolved snapshot
    obs_paths = [p for p, _, _ in inputs]
    observations = [
        trajectory.load_observation(p, trajectory.TrackFormat.FUSED) for p in obs_paths
    ]
    # each CSV and its sidecar, hashed once: checked here, recorded below
    digests = [(_sha256(Path(p)), _sha256(trajectory.default_meta_path(p))) for p in obs_paths]
    for (path, *recorded), found in zip(inputs, digests):
        for f, want, digest in zip((path, trajectory.default_meta_path(path)), recorded, found):
            if want is not None and digest != want:
                raise ConfigError(f"{f} has changed since the manifest recorded it "
                                  f"(sha256 {digest}, recorded {want})")
    # outputs are grouped by class_id, so a shared id would merge two classes
    first_path: dict[str, str] = {}
    for path, obs in zip(obs_paths, observations):
        if obs.class_id in first_path:
            raise ConfigError(f"class_id {obs.class_id!r} is in both {first_path[obs.class_id]} "
                              f"and {path}; each observation needs its own")
        first_path[obs.class_id] = path

    # each sweep checks its plan now; its runs start at the first read
    streams = [scenario.sweep(obs, cells, kp, dp, workers=workers) for obs in observations]
    curve_groups: dict[str, metrics.HourlySums] = {}
    onset_days: dict[str, list] = {}
    multi = len(observations) > 1

    def folded_runs():
        """Each run with its summary row, in sweep order, after folding it into
        its group's hourly sums and onset days; no outcome is kept."""
        for obs, stream in zip(observations, streams):
            with contextlib.closing(stream) as runs:
                for outcome in runs:
                    summary = metrics.summarize_run(outcome)
                    group = f"{obs.class_id}:{outcome.scenario}" if multi else outcome.scenario
                    curve_groups.setdefault(group, metrics.HourlySums()).add(outcome)
                    onset_days.setdefault(group, []).append(summary.t_symptomatic_days)
                    yield outcome, summary

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / name for name in
             ("summary.csv", "curves.csv", "emergence.csv", "manifest.json")}
    # SIGTERM unwinds like an interrupt: the clean-up below runs, and the exit
    # code is 143.  Only the main thread may set a handler, and only it runs one.
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        previous = signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        # closing the stream ends the sweep's pool workers now, not at collection
        with contextlib.closing(folded_runs()) as rows:
            metrics.write_summary_csv(paths["summary.csv"], rows)
        metrics.write_curves_csv(paths["curves.csv"],
                                 {g: sums.aggregate() for g, sums in curve_groups.items()})
        metrics.write_emergence_csv(paths["emergence.csv"], onset_days)

        manifest = {
            "tool": "classim",
            "version": __version__,
            "base_seed": cfg["base_seed"],
            "parameters": cfg,
            "inputs": [
                {"path": str(p), "sha256": d, "meta_sha256": m}
                for p, (d, m) in zip(obs_paths, digests)
            ],
            "outputs": ["summary.csv", "curves.csv", "emergence.csv"],
        }
        with open(paths["manifest.json"], "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except BaseException:  # an interrupt or SIGTERM included: leave no partial output
        for p in paths.values():
            p.unlink(missing_ok=True)
        raise
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)
    print(f"outputs={out_dir}")
    print(f"runs={sum(sums.n_runs for sums in curve_groups.values())}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exits 2."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="classim",
        description="Agent-based classroom transmission simulator",
    )
    parser.add_argument("--version", action="version", version=f"classim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cal = CalibrationInputs
    p = sub.add_parser("calibrate", help="derive beta_max from contact guidance")
    p.add_argument("--r0", type=float, default=cal.r0)
    p.add_argument("--gamma", type=float, default=cal.gamma, help="recovery rate per day")
    p.add_argument("--contacts", type=float, default=cal.n_contacts)
    p.add_argument("--contact-radius", default=f"{cal.contact_radius / FEET_TO_M:g}ft",
                   help="close-contact radius; suffix ft or m (default %(default)s)")
    p.add_argument("--contact-minutes", type=float, default=cal.contact_duration)
    p.add_argument("--sigma-r", type=float, default=cal.sigma_r, help="kernel range, meters")
    p.add_argument("--sigma-theta-deg", type=float, default=math.degrees(cal.sigma_theta))
    p.set_defaults(func=cmd_calibrate)

    syn = synthgen.SynthConfig
    p = sub.add_parser("synth", help="generate a synthetic observation")
    p.add_argument("--children", type=int, default=syn.n_children)
    p.add_argument("--teachers", type=int, default=syn.n_teachers)
    p.add_argument("--room", default=f"{syn.room_w}x{syn.room_h}", help="width x height in meters")
    p.add_argument("--length", type=int, default=syn.session_length_s,
                   help="session length, seconds")
    p.add_argument("--schedule", default=syn.schedule,
                   help="comma list of start-end:regime, e.g. 0-600:structured")
    p.add_argument("--speed", default=f"{syn.speed_min}:{syn.speed_max}",
                   help="walking speed range, m/s")
    p.add_argument("--seed", type=int, default=syn.seed)
    p.add_argument("--class-id", default=syn.class_id)
    p.add_argument("--out", required=True, help="output fused CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fuse", help="fuse a raw-tag CSV into the fused format")
    p.add_argument("--input", required=True)
    p.add_argument("--meta", default=None, help="sidecar path (default <input>.meta.json)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("simulate", help="run scenario sweeps and write metrics")
    p.add_argument("observations", nargs="*", help="fused observation CSVs")
    p.add_argument("--config", default=None, help="JSON config or a previous manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scenarios", default=None,
                   help=f"comma list from {','.join(scenario.SCENARIO_CELLS)}")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--horizon-days", type=int, default=None)
    p.add_argument("--base-seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help=f"worker processes (default ${WORKERS_ENV} or CPU count)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ClassimError, OSError) as e:  # bad input, or a file the command cannot read or write
        print(f"error: {e}", file=sys.stderr)
        return 1


def _entry() -> None:
    """The ``classim`` command: ``main``, with an interrupt reported as one
    ``error: interrupted`` line instead of a traceback.  The process still
    ends by SIGINT, as an uncaught interrupt ends Python, so a calling shell
    or script sees the interrupt."""
    try:
        code = main()
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr, flush=True)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
        code = 128 + signal.SIGINT  # should the signal not end the process at once
    sys.exit(code)


if __name__ == "__main__":
    _entry()
