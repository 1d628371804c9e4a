"""Pairwise transmission kernel: geometry, infection rates, calibration.

The infection rate between two people falls off as a Gaussian in their
center-to-center distance and in each person's facing angle relative to the
line connecting them:

    rate = beta_max * exp(-r^2 / (2 sigma_r^2) - (theta_i^2 + theta_j^2) / (2 sigma_theta^2))

Airborne transmission additionally decays exponentially with the age of the
emission (``airborne_decay``); droplet transmission is treated as
contemporaneous-only.

``beta_max`` is an intrinsic pathogen parameter, independent of the room.  It
is recovered from population-level quantities (reproduction number, recovery
rate) via the average-rate identity

    beta_bar = beta_max * sigma_r^2 * sigma_theta^2 * rho

where rho is a contact density in persons per square meter; see
``calibrate_beta_max``.

The formula is written out once in vectorized form, ``_rate``; ``pair_rate``
is its scalar reference.  The rate is symmetric in the pair, bit for bit, so
every block routine rates each unordered pair once.  ``pair_rates`` rates a
list of pairs (a, b) over a trajectory block, by default the triangle of
every pair i < j, one column per pair in ``pair_index`` order.
``pairwise_rates`` mirrors that triangle into the full (T, N, N) matrix,
and ``rates_between`` rates every pair of two point sets.  ``pair_totals``
walks the recording once, chunk by chunk, for each pair's time sum of rates
and its co-present seconds, in the same column order; it can also keep the
rates, which the session engine reads as a cumulative hazard
(``cumulative_hazard``), summed over time per pair column: a cache of the
whole recording holds T * N(N-1)/2 floats.  ``mean_pair_rate`` divides a
roster's rate sums by its co-present seconds.

All functions here are safe to call concurrently on separate arrays; all
but ``cumulative_hazard``, which converts its argument in place, are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CoincidentPositions, ZeroArea, reject_bools

FEET_TO_M = 0.3048
SECONDS_PER_DAY = 86400.0
MINUTES_PER_DAY = 1440.0

#: Minimum center-to-center distance substituted by callers when tag positions
#: coincide.  The kernel itself is finite at r=0; coincident readings are
#: sensor artifacts, not physical contact at zero range.
R_MIN_M = 0.1

_UNIT_NORM_TOL = 1e-6
_COINCIDENT_TOL = 1e-9


class TransmissionMode(str, Enum):
    DROPLET = "droplet"
    AIRBORNE = "airborne"


@dataclass(frozen=True)
class KernelParams:
    """Parameters of the pairwise infection-rate kernel.

    beta_max is in events per second; sigma_r in meters; sigma_theta in
    radians; lambda_decay in inverse hours.  In droplet mode the temporal
    decay term is never applied (only contemporaneous contact transmits).
    """

    beta_max: float
    sigma_r: float = 2.0
    sigma_theta: float = math.pi / 4
    lambda_decay: float = 0.34
    mode: TransmissionMode = TransmissionMode.DROPLET

    def __post_init__(self):
        reject_bools(self)
        if not 0 < self.beta_max <= 1e200:  # far past certainty; sums of rates stay finite
            raise ValueError(f"beta_max must be in (0, 1e200], got {self.beta_max}")
        for name in ("sigma_r", "sigma_theta"):
            value = getattr(self, name)
            if not (value > 0 and value * value > 0):  # the kernel divides by 2 sigma^2
                raise ValueError(f"{name} must be > 0 with a nonzero square, got {value}")
        if self.lambda_decay < 0:
            raise ValueError(f"lambda_decay must be >= 0, got {self.lambda_decay}")


@dataclass(frozen=True)
class PairGeometry:
    """Relative geometry of one ordered pair: distance and two facing angles.

    r is the planar center-to-center distance in meters.  theta_i is the
    unsigned angle, in [0, pi], between person i's facing direction and the
    line from i to j; theta_j likewise from j toward i.
    """

    r: float
    theta_i: float
    theta_j: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        for name, value in (("theta_i", self.theta_i), ("theta_j", self.theta_j)):
            if not 0.0 <= value <= math.pi:
                raise ValueError(f"{name} must lie in [0, pi], got {value}")

    def swapped(self) -> "PairGeometry":
        return PairGeometry(self.r, self.theta_j, self.theta_i)


@dataclass(frozen=True)
class CalibrationInputs:
    """Inputs for recovering beta_max from population-level contact guidance.

    r0 is the reproduction number (dimensionless), gamma the recovery rate
    per day, n_contacts the average number of daily contacts, contact_radius
    the close-contact radius in meters, contact_duration the cumulative
    close-contact time in minutes per day.
    """

    r0: float = 2.0
    gamma: float = 0.1
    n_contacts: float = 10.0
    contact_radius: float = 6.0 * FEET_TO_M
    contact_duration: float = 15.0
    sigma_r: float = 2.0
    sigma_theta: float = math.pi / 4

    def __post_init__(self):
        reject_bools(self)
        if self.r0 < 0:
            raise ValueError(f"r0 must be >= 0, got {self.r0}")
        for name in ("gamma", "n_contacts", "contact_radius",
                     "contact_duration", "sigma_r", "sigma_theta"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")


def _check_unit(name: str, v: np.ndarray) -> None:
    norm = math.hypot(float(v[0]), float(v[1]))
    if abs(norm - 1.0) > _UNIT_NORM_TOL:
        raise ValueError(f"{name} must have unit norm (got |{name}| = {norm})")


def relative_geometry(pos_i, facing_i, pos_j, facing_j) -> PairGeometry:
    """Distance and unsigned facing angles for a pair of agents.

    Positions are 2-vectors in meters; facings are unit 2-vectors (checked to
    1e-6).  Raises CoincidentPositions when the two positions are closer than
    1e-9 m; callers should clamp r to ``R_MIN_M`` instead of evaluating the
    kernel at a sensor-artifact zero distance.
    """
    pos_i = np.asarray(pos_i, dtype=float)
    pos_j = np.asarray(pos_j, dtype=float)
    facing_i = np.asarray(facing_i, dtype=float)
    facing_j = np.asarray(facing_j, dtype=float)
    _check_unit("facing_i", facing_i)
    _check_unit("facing_j", facing_j)

    d = pos_j - pos_i
    r = math.hypot(float(d[0]), float(d[1]))
    if r < _COINCIDENT_TOL:
        raise CoincidentPositions(f"positions coincide (r = {r})")
    cos_i = float(np.dot(facing_i, d)) / r
    cos_j = float(np.dot(facing_j, -d)) / r
    theta_i = math.acos(min(1.0, max(-1.0, cos_i)))
    theta_j = math.acos(min(1.0, max(-1.0, cos_j)))
    return PairGeometry(r=r, theta_i=theta_i, theta_j=theta_j)


def pair_rate(g: PairGeometry, p: KernelParams) -> float:
    """Instantaneous infection rate (per second) for one pair."""
    return p.beta_max * math.exp(
        -g.r * g.r / (2.0 * p.sigma_r * p.sigma_r)
        - (g.theta_i * g.theta_i + g.theta_j * g.theta_j)
        / (2.0 * p.sigma_theta * p.sigma_theta)
    )


def airborne_decay(rate: float, elapsed_hours: float, lambda_decay: float) -> float:
    """Attenuate a rate by exp(-lambda * elapsed); identity at t=0 or lambda=0."""
    if elapsed_hours < 0:
        raise ValueError(f"elapsed_hours must be >= 0, got {elapsed_hours}")
    return rate * math.exp(-lambda_decay * elapsed_hours)


def daily_contact_density(c: CalibrationInputs) -> float:
    """Daily-averaged contact density in persons per square meter.

    n_contacts people inside the close-contact disc, weighted by the fraction
    of the day spent in close contact.
    """
    area = math.pi * c.contact_radius * c.contact_radius
    return (c.n_contacts / area) * (c.contact_duration / MINUTES_PER_DAY)


def calibrate_beta_max(c: CalibrationInputs) -> float:
    """Recover beta_max (per day) from population-level contact guidance.

    Inverts beta_bar = beta_max * sigma_r^2 * sigma_theta^2 * rho_daily with
    beta_bar = r0 * gamma.  Divide by 86400 for the per-second value used at
    1-second simulation steps.
    """
    rho_daily = daily_contact_density(c)
    beta_bar_daily = c.r0 * c.gamma
    return beta_bar_daily / (c.sigma_r**2 * c.sigma_theta**2 * rho_daily)


def default_beta_max_per_s() -> float:
    """beta_max calibrated from the default CalibrationInputs, per second."""
    return calibrate_beta_max(CalibrationInputs()) / SECONDS_PER_DAY


def default_kernel_params(mode: TransmissionMode = TransmissionMode.DROPLET) -> KernelParams:
    """KernelParams with the default calibrated beta_max."""
    return KernelParams(beta_max=default_beta_max_per_s(), mode=mode)


def density(n_people: int, area: float) -> float:
    """Persons per square meter of room space."""
    if n_people < 0:
        raise ValueError(f"n_people must be >= 0, got {n_people}")
    if not area > 0:
        raise ZeroArea(f"room area must be > 0, got {area}")
    return n_people / area


def _rate(dx, dy, fax, fay, fbx, fby, p: KernelParams) -> np.ndarray:
    """The kernel, elementwise, from separation a -> b and both facings.

    The arrays broadcast against each other.  Every vectorized rate comes
    from here, so two routines that rate the same pair agree to the bit.
    Distances below ``R_MIN_M`` are clamped in the distance term; the angles
    use the true direction, and a coincident pair gets theta = pi/2.
    """
    r = np.sqrt(dx * dx + dy * dy)
    r_safe = np.maximum(r, 1e-12)
    cos_a = (fax * dx + fay * dy) / r_safe
    cos_b = -(fbx * dx + fby * dy) / r_safe
    th_a = np.arccos(np.clip(cos_a, -1.0, 1.0))
    th_b = np.arccos(np.clip(cos_b, -1.0, 1.0))
    r_eff = np.maximum(r, R_MIN_M)
    inv_2sr2 = 1.0 / (2.0 * p.sigma_r * p.sigma_r)
    inv_2st2 = 1.0 / (2.0 * p.sigma_theta * p.sigma_theta)
    return p.beta_max * np.exp(
        -(r_eff * r_eff) * inv_2sr2 - (th_a * th_a + th_b * th_b) * inv_2st2
    )


def rates_between(
    pos_a: np.ndarray,
    fac_a: np.ndarray,
    pos_b: np.ndarray,
    fac_b: np.ndarray,
    p: KernelParams,
) -> np.ndarray:
    """Rate matrix between two point sets: entry [a, b] is the rate from b to a.

    pos_a/fac_a are (A, 2), pos_b/fac_b are (B, 2).  Entry [a, b] is bitwise
    the rate ``pair_rates`` gives the pair (a, b) at the same positions.
    """
    return _rate(
        pos_b[None, :, 0] - pos_a[:, None, 0], pos_b[None, :, 1] - pos_a[:, None, 1],
        fac_a[:, None, 0], fac_a[:, None, 1], fac_b[None, :, 0], fac_b[None, :, 1], p,
    )


#: Pair-seconds per time chunk of the kernel's block routines: each float64
#: temporary of a chunk stays near 128 kB, so a cache build's working set
#: beyond the cache itself is about 1 MB for any roster.  Whether the C
#: library hands freed heap memory back depends on the heap's layout; a small
#: working set keeps a worker's peak RSS the same either way.
_CHUNK_ELEMENTS = 1 << 14


def pair_index(n: int) -> np.ndarray:
    """(n, n) map from a pair of roster positions to its column in a triangle.

    A triangle holds one column per unordered pair i < j, in the row-major
    order of ``np.triu_indices(n, k=1)``: (0, 1), (0, 2), ..., (1, 2), ...
    Entry [i, j] and entry [j, i] both name the column of {i, j}; the
    diagonal, which names no pair, is -1.
    """
    i, j = np.triu_indices(n, k=1)
    index = np.full((n, n), -1, dtype=np.intp)
    index[i, j] = index[j, i] = np.arange(len(i))
    return index


def pair_rates(
    positions: np.ndarray,
    facings: np.ndarray,
    present: np.ndarray,
    p: KernelParams,
    pairs: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Instantaneous rates of a list of pairs over a whole trajectory block.

    positions and facings have shape (T, N, 2); present is a (T, N) boolean
    mask.  ``pairs`` is (a, b), two equal-length arrays of roster positions;
    by default every unordered pair a < b, in ``pair_index`` column order.
    Returns a (T, P) array whose column k is the rate from b[k] to a[k] at
    each second: zero where a[k] == b[k] or either person is absent.
    Distances below ``R_MIN_M`` are clamped, matching the scalar caller
    contract for coincident tags.

    The rate is bitwise symmetric in the pair: swapping a and b only
    negates the separation and swaps the two angle terms of a sum.  So
    column k is entry [:, a[k], b[k]] of ``pairwise_rates`` bit for bit.
    Work proceeds in time chunks of about ``_CHUNK_ELEMENTS`` pair-seconds
    to bound peak memory; results do not depend on the chunking.
    """
    t_total, n, _ = positions.shape
    if pairs is None:
        pairs = np.triu_indices(n, k=1)
    a, b = (np.asarray(side, dtype=np.intp) for side in pairs)
    distinct = a != b
    chunk = max(1, _CHUNK_ELEMENTS // max(1, len(a)))
    out = np.empty((t_total, len(a)), dtype=np.float64)
    for s in range(0, t_total, chunk):
        e = min(s + chunk, t_total)
        here = present[s:e]
        # Absent slots may carry NaN; substitute zeros so vector math stays
        # clean.  Their rates are masked out afterwards.
        x, y, fx, fy = (
            np.where(here, block[:, :, k], 0.0)
            for block in (positions[s:e], facings[s:e]) for k in (0, 1)
        )
        rate = _rate(x[:, b] - x[:, a], y[:, b] - y[:, a],
                     fx[:, a], fy[:, a], fx[:, b], fy[:, b], p)
        # 0 unless both present and two different people
        rate *= here[:, a] & here[:, b] & distinct
        out[s:e] = rate
    return out


def pairwise_rates(
    positions: np.ndarray,
    facings: np.ndarray,
    present: np.ndarray,
    p: KernelParams,
) -> np.ndarray:
    """All-pairs instantaneous rates for a whole trajectory block.

    positions and facings have shape (T, N, 2); present is a (T, N) boolean
    mask.  Returns a (T, N, N) array where entry [t, i, j] is the rate from j
    to i at second t, zero on the diagonal and wherever either person is
    absent.  Each unordered pair is rated once by ``pair_rates`` and
    mirrored, which the rate's bitwise symmetry makes exact.
    """
    t_total, n, _ = positions.shape
    i, j = np.triu_indices(n, k=1)
    triangle = pair_rates(positions, facings, present, p)
    out = np.zeros((t_total, n, n), dtype=np.float64)
    out[:, i, j] = triangle
    out[:, j, i] = triangle
    return out


#: Largest per-pair hazard of one second.  A pair rated p = 1 gets this
#: instead of -log(0) = inf: exp(-40) is below the 2**-53 resolution of a
#: uniform draw, so the cap is unobservable and the cache stays finite.
HAZARD_CAP = 40.0


def cumulative_hazard(rates: np.ndarray) -> np.ndarray:
    """Turn per-second rates into their cumulative hazard, in place.

    ``rates`` is a (T, ...) array of per-second rates on the 1 Hz grid,
    such as the (T, P) array of ``pair_rates``.  Entry [t, k] becomes
    sum_{s <= t} -log1p(-min(rates[s, k], 1)),  each term capped at
    ``HAZARD_CAP``: the hazard of pair k accumulated through second t.  One
    second's term is the hazard of the per-second Bernoulli(min(beta, 1))
    contact, so  exp(-(C[b] - C[a-1]))  is the probability that the pair's
    contact transmits in none of the seconds a..b.  The running sum is
    strictly sequential in t, so the result does not depend on the time
    chunks the work proceeds in.  Returns ``rates``.
    """
    t_total = rates.shape[0]
    chunk = max(1, _CHUNK_ELEMENTS // max(1, rates[:1].size))
    for a in range(0, t_total, chunk):
        c = rates[a:a + chunk]
        np.minimum(c, 1.0, out=c)
        np.negative(c, out=c)
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf, capped below
            np.log1p(c, out=c)
        np.negative(c, out=c)
        np.minimum(c, HAZARD_CAP, out=c)
        if a:
            c[0] += rates[a - 1]
        np.cumsum(c, axis=0, out=c)
    return rates


def pair_totals(
    positions: np.ndarray,
    facings: np.ndarray,
    present: np.ndarray,
    p: KernelParams,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each unordered pair's time sum of rates and its co-present seconds.

    One pass over the recording in time chunks of about ``_CHUNK_ELEMENTS``
    pair-seconds: each chunk's triangle is rated by ``pair_rates``.  Returns
    (rate_sums, pair_seconds), both (N(N-1)/2,) in ``pair_index`` column
    order; the seconds are exact integer counts.  Given ``out``, a
    (T, N(N-1)/2) float array, the rates are also stored there; otherwise
    no whole-recording array is held.
    """
    t_total, n, _ = positions.shape
    a, b = np.triu_indices(n, k=1)
    rate_sums = np.zeros(len(a))
    seconds = np.zeros(len(a), dtype=np.int64)
    chunk = max(1, _CHUNK_ELEMENTS // max(1, len(a)))
    for s in range(0, t_total, chunk):
        e = s + chunk
        rates = pair_rates(positions[s:e], facings[s:e], present[s:e], p, (a, b))
        if out is not None:
            out[s:e] = rates
        # A running sum adds a pair's seconds one by one in order at any
        # shape; numpy's sum(axis=0) does so only while a row holds more than
        # one element, and would sum a single pair's column pairwise.
        rates[0] += rate_sums
        rate_sums = np.cumsum(rates, axis=0, out=rates)[-1]
        here = present[s:e]
        seconds += (here[:, a] & here[:, b]).sum(axis=0)
    return rate_sums, seconds


def mean_pair_rate(
    rate_sums: np.ndarray,
    pair_seconds: np.ndarray,
    cols: np.ndarray | slice = slice(None),
) -> float:
    """Mean rate over the co-present unordered pair-seconds of a roster.

    ``rate_sums`` and ``pair_seconds`` are the per-pair time sums of rates
    and co-present seconds of ``pair_totals``.  ``cols`` holds the roster's
    pair columns, its pairs i < j in row-major order (every column by
    default).  A pair's time sum is bitwise the same whether it came from a
    roster's own rates or a larger roster's, and so is the result.  0.0
    when no pair is ever co-present.
    """
    denom = int(pair_seconds[cols].sum())
    return float(rate_sums[cols].sum()) / denom if denom > 0 else 0.0
