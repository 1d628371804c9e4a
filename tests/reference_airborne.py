"""References for airborne mode: the list emission store and the per-second stepper.

Airborne mode once kept each person's emissions as a Python list of
(t, x, y, fx, fy) tuples: one appended per 60-s slot while the person was
infectious and present, and the whole list trimmed to the 3-h horizon
before every frame.  ``classim.epidemic`` now keeps them in a fixed ring of
rows.  ``ListEmissions`` is the list store and its per-source frame rates,
kept so the tests can compare the ring against it bit for bit.

``transmission_step`` once advanced exactly one second per call, and an
airborne session called it once per second.  ``step_per_second`` is that
body, with the per-second rates and emission recording it called.
"""

import math

import numpy as np

from classim import kernel
from classim.epidemic import (
    EMISSION_HORIZON_S,
    EMISSION_ROWS,
    EMISSION_SLOT_S,
    SECONDS_PER_HOUR,
    _compartment_masks,
    _schedule_infection,
)
from classim.kernel import KernelParams, TransmissionMode
from classim.trajectory import Observation


class ListEmissions:
    """Per-person emission lists, the last slot each person emitted in."""

    def __init__(self, n: int):
        self.buffers: list[list[tuple]] = [[] for _ in range(n)]
        self.last_slot = np.full(n, -1)

    def trim(self, now: float) -> None:
        horizon = now - EMISSION_HORIZON_S
        self.buffers = [[e for e in buf if e[0] >= horizon] for buf in self.buffers]

    def record(self, obs: Observation, t: int, now: float, inf_idx: np.ndarray) -> None:
        slot = int(now // EMISSION_SLOT_S)
        for j in inf_idx:
            if obs.present[t, j] and self.last_slot[j] < slot:
                self.buffers[j].append(
                    (now, float(obs.positions[t, j, 0]), float(obs.positions[t, j, 1]),
                     float(obs.facings[t, j, 0]), float(obs.facings[t, j, 1]))
                )
                self.last_slot[j] = slot

    def frame_source_rates(
        self,
        obs: Observation,
        t: int,
        kp: KernelParams,
        now: float,
        sus_idx: np.ndarray,
        inf_idx: np.ndarray,
    ) -> np.ndarray:
        """Per-source rates (n_sus, n_inf) at airborne second ``t``; trims first."""
        self.trim(now)
        present = obs.present[t]
        pos = np.where(present[:, None], obs.positions[t], 0.0)
        fac = np.where(present[:, None], obs.facings[t], 0.0)
        beta = kernel.rates_between(pos[sus_idx], fac[sus_idx], pos[inf_idx], fac[inf_idx], kp)
        co_present = present[sus_idx][:, None] & present[inf_idx][None, :]
        beta[~co_present] = 0.0

        weight = kp.lambda_decay / SECONDS_PER_HOUR * EMISSION_SLOT_S
        current_slot = int(now // EMISSION_SLOT_S)
        sus_present = present[sus_idx]
        for col, j in enumerate(inf_idx):
            past = [e for e in self.buffers[j] if int(e[0] // EMISSION_SLOT_S) < current_slot]
            if not past:
                continue
            arr = np.asarray(past, dtype=float)
            r = kernel.rates_between(pos[sus_idx], fac[sus_idx], arr[:, 1:3], arr[:, 3:5], kp)
            decay = np.exp(-kp.lambda_decay * (now - arr[:, 0]) / SECONDS_PER_HOUR)
            extra = (r * decay[None, :]).sum(axis=1) * weight
            beta[:, col] += np.where(sus_present, extra, 0.0)
        return beta


# ---------------------------------------------------------------------------
# the per-second airborne stepper
# ---------------------------------------------------------------------------

def step_per_second(state, obs: Observation, t: int, kp: KernelParams, dp) -> None:
    """One second of the per-second stepper that spans replaced.

    ``classim.epidemic.transmission_step`` evaluates a span of seconds in one
    pass; this is its former body, one call per second, kept so the tests can
    compare the two on twin states bit for bit: generator state included.
    """
    now = state.clock
    susceptible, _, infectious, _ = _compartment_masks(state, now)
    sus_idx = np.flatnonzero(susceptible & ~state.immune)
    inf_idx = np.flatnonzero(infectious)

    u = state.rng.random(len(sus_idx))  # fixed draw pattern: one per susceptible
    if len(inf_idx) and len(sus_idx):
        beta = frame_source_rates(state, obs, t, kp, now, sus_idx, inf_idx)
        p = 1.0 - np.prod(1.0 - np.clip(beta, 0.0, 1.0), axis=-1)
        for pos in np.flatnonzero(u < p):
            _schedule_infection(state, int(sus_idx[pos]), now, dp)

    if kp.mode == TransmissionMode.AIRBORNE:
        record_emissions(state, obs, t, now, inf_idx)
    state.clock = now + 1.0


def frame_source_rates(state, obs, t, kp, now, sus_idx, inf_idx) -> np.ndarray:
    """Per-source rates (n_sus, n_inf) at second ``t``, inc. airborne history."""
    present = obs.present[t]
    pos = np.where(present[:, None], obs.positions[t], 0.0)
    fac = np.where(present[:, None], obs.facings[t], 0.0)
    beta = kernel.rates_between(pos[sus_idx], fac[sus_idx], pos[inf_idx], fac[inf_idx], kp)
    co_present = present[sus_idx][:, None] & present[inf_idx][None, :]
    beta[~co_present] = 0.0

    if kp.mode == TransmissionMode.AIRBORNE and state.emissions is not None:
        weight = kp.lambda_decay / SECONDS_PER_HOUR * EMISSION_SLOT_S
        current_slot = int(now // EMISSION_SLOT_S)
        rows = np.arange(current_slot - EMISSION_ROWS + 1, current_slot) % EMISSION_ROWS
        sus_present = present[sus_idx]
        for col, j in enumerate(inf_idx):
            arr = state.emissions[j, rows]
            arr = arr[arr[:, 0] >= now - EMISSION_HORIZON_S]
            if not len(arr):
                continue
            r = kernel.rates_between(pos[sus_idx], fac[sus_idx], arr[:, 1:3], arr[:, 3:5], kp)
            decay = np.exp(-kp.lambda_decay * (now - arr[:, 0]) / SECONDS_PER_HOUR)
            extra = (r * decay[None, :]).sum(axis=1) * weight
            beta[:, col] += np.where(sus_present, extra, 0.0)
    return beta


def record_emissions(state, obs, t, now, inf_idx) -> None:
    if state.emissions is None:
        state.emissions = np.full((len(state.person_ids), EMISSION_ROWS, 5), -math.inf)
    slot = int(now // EMISSION_SLOT_S)
    row = state.emissions[:, slot % EMISSION_ROWS]
    for j in inf_idx:  # a row still holding an earlier slot is free
        if obs.present[t, j] and row[j, 0] < slot * EMISSION_SLOT_S:
            row[j] = now, *obs.positions[t, j], *obs.facings[t, j]
