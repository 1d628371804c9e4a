"""Seeded raw dual-tag recording written from a synthetic observation.

Each person wears a left and a right hip tag HIP_OFFSET_M either side of the
body centre, across the facing direction, so fusing the pair gives back the
centre and the facing.  Every tag reports on its own clock at jittered
2-4 Hz; between whole seconds, positions and facing angles are interpolated
linearly from the observation.  Rows are written in time order, as a
recorder would log them.

Only produces input: the benchmark never counts its cost.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

HIP_OFFSET_M = 0.15
#: Interval between two reports of one tag: 0.25-0.5 s, i.e. 2-4 Hz.
INTERVAL_S = (0.25, 0.5)
RAW_HEADER = ["t_s", "person_id", "role", "side", "x_m", "y_m"]


def write_raw_tags(obs, intervals, csv_path, seed: int) -> dict:
    """Write ``obs`` as a raw-tag CSV plus its sidecar; return row and byte counts.

    ``intervals`` are the (start_s, end_s, Activity) regimes of the session,
    recorded in the sidecar.
    """
    rng = np.random.default_rng([seed, 0x7A6])
    t_total, n, _ = obs.positions.shape
    grid = np.arange(t_total, dtype=float)
    angle = np.unwrap(np.arctan2(obs.facings[..., 1], obs.facings[..., 0]), axis=0)
    cols = {"t": [], "who": [], "side": [], "x": [], "y": []}
    for k in range(n):
        for side, sign in ((0, -1.0), (1, 1.0)):
            lo, hi = INTERVAL_S
            steps = rng.uniform(lo, hi, size=int(t_total / lo) + 2)
            t = rng.uniform(0.0, hi) + np.concatenate([[0.0], np.cumsum(steps)])
            t = t[t <= t_total - 1]
            a = np.interp(t, grid, angle[:, k])
            # left-to-right tag vector = facing rotated 90 degrees clockwise
            cols["x"].append(np.interp(t, grid, obs.positions[:, k, 0]) + sign * HIP_OFFSET_M * np.sin(a))
            cols["y"].append(np.interp(t, grid, obs.positions[:, k, 1]) - sign * HIP_OFFSET_M * np.cos(a))
            cols["t"].append(t)
            cols["who"].append(np.full(len(t), k))
            cols["side"].append(np.full(len(t), side))
    t, who, side, x, y = (np.concatenate(cols[c]) for c in ("t", "who", "side", "x", "y"))
    order = np.lexsort((side, who, t))
    ids = [p.person_id for p in obs.roster]
    roles = [p.role.value for p in obs.roster]
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(RAW_HEADER)
        w.writerows(
            (repr(float(t[i])), ids[who[i]], roles[who[i]], "LR"[side[i]],
             repr(float(x[i])), repr(float(y[i])))
            for i in order.tolist()
        )
    meta = {
        "class_id": obs.class_id,
        "room_area_m2": obs.room_area_m2,
        "roster": [{"person_id": i, "role": r} for i, r in zip(ids, roles)],
        "activity": [{"start_s": a, "end_s": b, "label": lab.value} for a, b, lab in intervals],
    }
    meta_path = os.path.splitext(csv_path)[0] + ".meta.json"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return {"raw_rows": int(len(order)), "raw_bytes": os.path.getsize(csv_path)}
