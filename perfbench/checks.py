"""Correctness checks on what a timed operation produced.

Every check returns (name, passed, detail).  None depends on the random
stream: they test counts, bounds, formats, closed forms and determinism, so
they still hold after a declared RNG-stream change.  They read only files
and plain values, so they run without importing classim.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

SUMMARY_HEADER = ["scenario", "observation", "patient_zero", "seed", "saturation",
                  "beta_hat", "T", "beta_hat_T", "t_sympt_1", "t_sympt_2", "t_sympt_3"]
CURVES_HEADER = ["scenario", "hour", "mean_infected_prop", "std_infected_prop",
                 "mean_S", "mean_E", "mean_I", "mean_R"]
EMERGENCE_HEADER = ["scenario", "n", "proportion_not_emerged", "median_days"]
OUTPUTS = ("summary.csv", "curves.csv", "emergence.csv")

#: Two-sided bound on |z| for one oracle geometry: a false alarm has
#: probability 6e-7 per geometry.
ORACLE_Z_MAX = 5.0


def output_hashes(sim_dir: str) -> dict[str, str]:
    out = {}
    for name in OUTPUTS:
        with open(os.path.join(sim_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _read(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _numbers_ok(rows, first_numeric: int, may_be_empty: set[int]) -> bool:
    for row in rows:
        for i, cell in enumerate(row[first_numeric:], start=first_numeric):
            if cell == "" and i in may_be_empty:
                continue
            try:
                if not math.isfinite(float(cell)):
                    return False
            except ValueError:
                return False
    return True


def sweep_checks(sim_dir: str, exp: dict, teachers) -> list[tuple[str, bool, str]]:
    """Row counts, roster sizes, saturation bounds and well-formed CSVs.

    ``exp`` holds cells (cell -> roster size), reps, n_people and
    horizon_days.  A vaccinated cell may report saturation 0 only when its
    patient zero is a teacher, whom vaccination can make immune.
    """
    cells = exp["cells"]
    s_head, s_rows = _read(os.path.join(sim_dir, "summary.csv"))
    c_head, c_rows = _read(os.path.join(sim_dir, "curves.csv"))
    e_head, e_rows = _read(os.path.join(sim_dir, "emergence.csv"))
    hours = exp["horizon_days"] * 24 + 1
    out = [
        ("sweep.headers", [s_head, c_head, e_head] == [SUMMARY_HEADER, CURVES_HEADER, EMERGENCE_HEADER],
         "summary, curves and emergence headers"),
        ("sweep.rows", len(s_rows) == len(cells) * exp["reps"] * exp["n_people"],
         f"{len(s_rows)} summary rows == cells x reps x people"),
        ("sweep.curve_rows", len(c_rows) == len(cells) * hours
         and len(e_rows) == len(cells) * 3, f"{len(c_rows)} curve rows, {len(e_rows)} emergence rows"),
        ("sweep.numbers", _numbers_ok(s_rows, 3, {8, 9, 10}) and _numbers_ok(c_rows, 1, set())
         and _numbers_ok(e_rows, 1, {3}), "every numeric field parses and is finite"),
    ]
    rosters = {}
    for row in c_rows:
        if len(row) == len(CURVES_HEADER) and row[1] == "0":
            rosters[row[0]] = sum(float(v) for v in row[4:8])
    out.append(("sweep.roster_sizes",
                set(rosters) == set(cells) and all(abs(rosters[c] - n) < 1e-9 for c, n in cells.items()),
                f"hour-0 S+E+I+R per cell {rosters} == {cells}"))
    bad = []
    for row in s_rows:
        cell, pz, sat = row[0], row[2], float(row[4])
        n = cells.get(cell)
        immune_ok = sat == 0.0 and cell.endswith("-vax") and pz in teachers
        if n is None or not (immune_ok or (abs(sat * n - round(sat * n)) < 1e-9
                                          and 1 <= round(sat * n) <= n)):
            bad.append((cell, pz, sat))
    out.append(("sweep.saturation", not bad and bool(s_rows),
                f"every saturation is k/n with 1 <= k <= n; bad: {bad[:3]}"))
    return out


def oracle_checks(result: dict, runs_expected: int) -> list[tuple[str, bool, str]]:
    """Each geometry's hit frequency lies within ORACLE_Z_MAX of 1-(1-beta)^T."""
    n = result["sessions"]
    out = [("oracle.sessions", n * len(result["hits"]) == runs_expected,
            f"{n} x {len(result['hits'])} sessions")]
    for g, (hits, p) in enumerate(zip(result["hits"], result["p_hit"])):
        z = (hits / n - p) / math.sqrt(p * (1.0 - p) / n)
        out.append((f"oracle.geometry_{g}", abs(z) <= ORACLE_Z_MAX,
                    f"freq {hits / n:.4f} vs {p:.4f}, |z| = {abs(z):.2f}"))
    return out


def same(name: str, a, b, what: str) -> tuple[str, bool, str]:
    """Two results that must be identical."""
    return (name, a == b, what if a == b else f"{what}: {a} != {b}")
