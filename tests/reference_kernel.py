"""Full-matrix reference implementation of the vectorized rate field.

This is the (T, N, N) all-pairs kernel that ``classim.kernel`` replaced with
a routine that rates each unordered pair once.  It evaluates every ordered
pair, diagonal included, in time chunks.  The tests compare the pair
routine and the mirrored ``pairwise_rates`` against it bit for bit.
"""

import numpy as np

from classim.kernel import R_MIN_M, KernelParams

#: Pair-seconds per time chunk, as in the replaced kernel.
CHUNK_ELEMENTS = 1 << 14


def pairwise_rates(
    positions: np.ndarray,
    facings: np.ndarray,
    present: np.ndarray,
    p: KernelParams,
) -> np.ndarray:
    """(T, N, N) rates; entry [t, i, j] is the rate from j to i at second t."""
    t_total, n, _ = positions.shape
    chunk = max(1, CHUNK_ELEMENTS // max(1, n * n))
    out = np.zeros((t_total, n, n), dtype=np.float64)
    inv_2sr2 = 1.0 / (2.0 * p.sigma_r * p.sigma_r)
    inv_2st2 = 1.0 / (2.0 * p.sigma_theta * p.sigma_theta)

    for a in range(0, t_total, chunk):
        b = min(a + chunk, t_total)
        here = present[a:b, :, None]
        pc = np.where(here, positions[a:b], 0.0)
        fc = np.where(here, facings[a:b], 0.0)
        dx = pc[:, None, :, 0] - pc[:, :, None, 0]
        dy = pc[:, None, :, 1] - pc[:, :, None, 1]
        r = np.sqrt(dx * dx + dy * dy)
        r_safe = np.maximum(r, 1e-12)
        cos_i = (fc[:, :, None, 0] * dx + fc[:, :, None, 1] * dy) / r_safe
        cos_j = -(fc[:, None, :, 0] * dx + fc[:, None, :, 1] * dy) / r_safe
        th_i = np.arccos(np.clip(cos_i, -1.0, 1.0))
        th_j = np.arccos(np.clip(cos_j, -1.0, 1.0))
        r_eff = np.maximum(r, R_MIN_M)
        rate = p.beta_max * np.exp(
            -(r_eff * r_eff) * inv_2sr2 - (th_i * th_i + th_j * th_j) * inv_2st2
        )
        rate *= present[a:b, :, None] & present[a:b, None, :]
        idx = np.arange(n)
        rate[:, idx, idx] = 0.0
        out[a:b] = rate
    return out
