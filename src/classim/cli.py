"""Command-line front end: calibrate, synth, fuse, simulate.

``simulate`` binds the whole pipeline into a reproducible batch run: it
resolves parameters (built-in defaults < config file < flags), sweeps all
requested scenario cells of each observation in one pass, writes the three
metric CSVs, and drops a manifest holding the resolved parameter snapshot
plus input digests.  Re-running with that manifest as the config reproduces
the outputs byte for byte, at any worker count.

Exit codes: 0 success, 1 runtime/data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from pathlib import Path


from . import __version__, epidemic, metrics, scenario, synthgen, trajectory
from .errors import ClassimError, ConfigError
from .kernel import (
    FEET_TO_M,
    SECONDS_PER_DAY,
    CalibrationInputs,
    KernelParams,
    TransmissionMode,
    calibrate_beta_max,
    daily_contact_density,
    density,
)

WORKERS_ENV = "CLASSIM_WORKERS"

DEFAULT_CONFIG = {
    "scenarios": ["full-novax", "half-novax", "full-vax", "half-vax"],
    "vaccine_efficacy": 0.858,
    "horizon_days": 28,
    "reps": 60,
    "base_seed": 0,
    "kernel": {
        "beta_max_per_s": None,  # None -> calibrated from the calibration block
        "sigma_r_m": 2.0,
        "sigma_theta_deg": 45.0,
        "lambda_per_h": 0.34,
        "mode": "droplet",
    },
    "disease": {
        "latency_h": 24.0,
        "p_symptomatic": 0.75,
        "mean_incubation_days": 4.0,
        "gamma_per_day": 0.1,
        "dt_s": 1.0,
        "incubation_model": "exponential",
        "recovery_model": "exponential",
    },
    "calibration": {
        "r0": 2.0,
        "gamma_per_day": 0.1,
        "contacts": 10.0,
        "contact_radius_m": 6.0 * FEET_TO_M,
        "contact_minutes": 15.0,
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
    beta_bar = c.r0 * c.gamma
    beta_day = calibrate_beta_max(c)
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


def _parse_schedule(text: str, session_length_s: int):
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
    schedule = (
        _parse_schedule(args.schedule, args.length) if args.schedule else None
    )
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


def _load_config(path: str | None) -> tuple[dict, list[str]]:
    """Resolved config dict plus any input paths recorded in a manifest."""
    resolved = DEFAULT_CONFIG
    manifest_inputs: list[str] = []
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
            manifest_inputs = [entry["path"] for entry in inputs]
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
    kc = cfg["kernel"]
    beta_max = kc["beta_max_per_s"]
    if beta_max is None:
        cc = cfg["calibration"]
        c = CalibrationInputs(
            r0=cc["r0"],
            gamma=cc["gamma_per_day"],
            n_contacts=cc["contacts"],
            contact_radius=cc["contact_radius_m"],
            contact_duration=cc["contact_minutes"],
            sigma_r=kc["sigma_r_m"],
            sigma_theta=math.radians(kc["sigma_theta_deg"]),
        )
        beta_max = calibrate_beta_max(c) / SECONDS_PER_DAY
    return KernelParams(
        beta_max=beta_max,
        sigma_r=kc["sigma_r_m"],
        sigma_theta=math.radians(kc["sigma_theta_deg"]),
        lambda_decay=kc["lambda_per_h"],
        mode=TransmissionMode(kc["mode"]),
    )


def _disease_params(cfg: dict) -> epidemic.DiseaseParams:
    dc = cfg["disease"]
    if dc["dt_s"] != 1.0:  # kept so manifests keep their bytes; the grid is 1 Hz
        raise ValueError(f"dt_s must be 1.0, the 1 Hz trajectory grid, got {dc['dt_s']!r}")
    return epidemic.DiseaseParams(
        latency_h=dc["latency_h"],
        p_symptomatic=dc["p_symptomatic"],
        mean_incubation_days=dc["mean_incubation_days"],
        gamma_per_day=dc["gamma_per_day"],
        incubation_model=epidemic.IncubationModel(dc["incubation_model"]),
        recovery_model=epidemic.RecoveryModel(dc["recovery_model"]),
    )


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
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
    for name in cfg["scenarios"]:
        if not isinstance(name, str) or name not in scenario.SCENARIO_CELLS:
            raise ConfigError(
                f"unknown scenario {name!r}; pick from {sorted(scenario.SCENARIO_CELLS)}"
            )

    obs_paths = list(args.observations) or manifest_inputs
    if not obs_paths:
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
    observations = [
        trajectory.load_observation(p, trajectory.TrackFormat.FUSED) for p in obs_paths
    ]
    # outputs are grouped by class_id, so a shared id would merge two classes
    first_path: dict[str, str] = {}
    for path, obs in zip(obs_paths, observations):
        if obs.class_id in first_path:
            raise ConfigError(f"class_id {obs.class_id!r} is in both {first_path[obs.class_id]} "
                              f"and {path}; each observation needs its own")
        first_path[obs.class_id] = path

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    created: list[Path] = []
    try:
        summary_rows = []
        curve_groups: dict[str, metrics.HourlyAggregate] = {}
        emergence_groups: dict[str, list] = {}
        multi = len(observations) > 1
        for obs in observations:
            by_cell: dict[str, list] = {}
            for outcome in scenario.sweep(obs, cells, kp, dp, workers=workers):
                summary_rows.append((outcome, metrics.summarize_run(outcome)))
                by_cell.setdefault(outcome.scenario, []).append(outcome)
            for cell, outcomes in by_cell.items():
                group = f"{obs.class_id}:{cell}" if multi else cell
                curve_groups[group] = metrics.aggregate_hourly(outcomes)
                emergence_groups[group] = outcomes

        paths = {name: out_dir / name for name in
                 ("summary.csv", "curves.csv", "emergence.csv", "manifest.json")}
        created.extend(paths.values())
        metrics.write_summary_csv(paths["summary.csv"], summary_rows)
        metrics.write_curves_csv(paths["curves.csv"], curve_groups)
        metrics.write_emergence_csv(paths["emergence.csv"], emergence_groups)

        manifest = {
            "tool": "classim",
            "version": __version__,
            "base_seed": cfg["base_seed"],
            "parameters": cfg,
            "inputs": [
                {"path": str(p), "sha256": _sha256(Path(p))} for p in obs_paths
            ],
            "outputs": ["summary.csv", "curves.csv", "emergence.csv"],
        }
        with open(paths["manifest.json"], "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except Exception:
        for p in created:
            p.unlink(missing_ok=True)
        raise
    print(f"outputs={out_dir}")
    print(f"runs={len(summary_rows)}")
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

    p = sub.add_parser("calibrate", help="derive beta_max from contact guidance")
    p.add_argument("--r0", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=0.1, help="recovery rate per day")
    p.add_argument("--contacts", type=float, default=10.0)
    p.add_argument("--contact-radius", default="6ft",
                   help="close-contact radius; suffix ft or m (default 6ft)")
    p.add_argument("--contact-minutes", type=float, default=15.0)
    p.add_argument("--sigma-r", type=float, default=2.0, help="kernel range, meters")
    p.add_argument("--sigma-theta-deg", type=float, default=45.0)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("synth", help="generate a synthetic observation")
    p.add_argument("--children", type=int, default=12)
    p.add_argument("--teachers", type=int, default=3)
    p.add_argument("--room", default="8x8", help="width x height in meters")
    p.add_argument("--length", type=int, default=3600, help="session length, seconds")
    p.add_argument("--schedule", default=None,
                   help="comma list of start-end:regime, e.g. 0-600:structured")
    p.add_argument("--speed", default="0.3:1.2", help="walking speed range, m/s")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--class-id", default="synthetic")
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
                   help="comma list from full-novax,half-novax,full-vax,half-vax")
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


if __name__ == "__main__":
    sys.exit(main())
