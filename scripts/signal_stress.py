"""Signal whole process groups of running `classim simulate` sweeps and check
that each one ends cleanly.

Usage: python3 scripts/signal_stress.py [--trials N] [--signals TERM,INT]
                                         [--src DIR] [--work DIR]

Ctrl-C in a terminal, `kill -TERM -<pgid>` and a job scheduler that signals
the job all send one signal to every process of the group.  Each trial
starts `simulate` on a 6-person, 120-s synthetic class with
`--reps 100000000 --workers 2` in its own session, waits until summary.csv
exists and one second more, records the pids of the sweep's workers, and
sends the signal to the group.  A trial passes when, within 15 s:

- the sweep has exited: 143 with empty stderr after SIGTERM; after SIGINT,
  by SIGINT itself with at most one line on stderr (`error: interrupted`)
  and no pool worker's traceback;
- no output file is left in its --out directory;
- neither the sweep, nor any recorded worker, nor any other process of
  its group is still running.

A sweep still running after 15 s is counted as hung and killed with
SIGKILL, its workers and its group too.  One line is printed per trial and a
count per signal at the end; the exit code is 1 if any trial failed.
``--src`` picks the source tree to run (default: this checkout's src), so
one revision can be compared with another.  Linux only: it reads each
process's children from /proc, and a sweep dies with this script.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DEADLINE_S = 15.0
_PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """In the child before exec: SIGKILL it when this process dies."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def children(pid: int) -> set[int]:
    """Pids of the direct children of every thread of ``pid``."""
    found: set[int] = set()
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            found.update(int(c) for c in (task / "children").read_text().split())
        except (FileNotFoundError, ProcessLookupError):
            pass  # the thread has exited
    return found


def running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def group_alive(pgid: int) -> bool:
    """True while some process is left in process group ``pgid``."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def kill_running(pids) -> None:
    """SIGKILL each of ``pids`` that is still running."""
    for pid in pids:
        if running(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # it exited in between


def trial(src: str, obs: Path, out_dir: Path, sig: signal.Signals) -> tuple[bool, str]:
    """One signalled sweep; returns (passed, what happened)."""
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "classim.cli", "simulate", str(obs), "--out", str(out_dir),
         "--reps", "100000000", "--workers", "2"],
        env=env, start_new_session=True, preexec_fn=die_with_parent,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    workers: set[int] = set()
    try:
        start = time.monotonic()
        while not (out_dir / "summary.csv").exists():
            if proc.poll() is not None or time.monotonic() - start > 60:
                return False, f"no summary.csv (exit {proc.poll()})"
            time.sleep(0.05)
        time.sleep(1.0)
        workers = children(proc.pid)
        os.killpg(proc.pid, sig)
        try:
            _, err = proc.communicate(timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            return False, f"hung: still running {DEADLINE_S:.0f} s after the signal"
        err = err.decode(errors="replace")
        problems = []
        want = 128 + sig if sig == signal.SIGTERM else -sig
        if proc.returncode != want:
            problems.append(f"exit {proc.returncode}, not {want}")
        if sig == signal.SIGTERM and err:
            problems.append(f"stderr {err[-300:]!r}")
        if sig == signal.SIGINT and len(err.splitlines()) > 1:
            problems.append(f"stderr has {len(err.splitlines())} lines: {err[-300:]!r}")
        if "ForkPoolWorker" in err:
            problems.append("a pool worker's traceback on stderr")
        left = sorted(p.name for p in out_dir.iterdir())
        if left:
            problems.append(f"outputs left: {left}")
        # exited workers linger briefly as zombies until they are reaped
        deadline = time.monotonic() + DEADLINE_S
        while ((any(map(running, workers)) or group_alive(proc.pid))
               and time.monotonic() < deadline):
            time.sleep(0.05)
        alive = sorted(p for p in workers if running(p))
        if alive:
            problems.append(f"workers left: {alive}")
        if group_alive(proc.pid):
            problems.append("a process of its group is left")
        return not problems, "; ".join(problems) or f"exit {proc.returncode}"
    finally:
        kill_running([proc.pid, *workers, *children(proc.pid)])
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group is empty
        proc.wait()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trials", type=int, default=20, help="trials per signal (default 20)")
    p.add_argument("--signals", default="TERM,INT", help="comma-separated (default TERM,INT)")
    p.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    p.add_argument("--work", default=None, help="scratch directory (default: a temporary one)")
    args = p.parse_args(argv)
    sigs = [signal.Signals["SIG" + name.strip()] for name in args.signals.split(",")]
    with tempfile.TemporaryDirectory(dir=args.work) as work:
        obs = Path(work) / "class.csv"
        subprocess.run(
            [sys.executable, "-m", "classim.cli", "synth", "--children", "5", "--teachers", "1",
             "--length", "120", "--seed", "3", "--out", str(obs)],
            env={**os.environ, "PYTHONPATH": args.src}, check=True, stdout=subprocess.DEVNULL)
        failed = {}
        for sig in sigs:
            failed[sig.name] = 0
            for k in range(args.trials):
                out_dir = Path(work) / f"{sig.name}-{k}"
                ok, what = trial(args.src, obs, out_dir, sig)
                failed[sig.name] += not ok
                print(f"{sig.name} trial {k + 1}: {'ok' if ok else 'FAILED'} ({what})", flush=True)
    for name, n in failed.items():
        print(f"{name}: {args.trials - n} of {args.trials} trials ended cleanly")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
