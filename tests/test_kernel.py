import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classim import kernel
from classim.errors import CoincidentPositions, ZeroArea
from classim.kernel import (
    R_MIN_M,
    CalibrationInputs,
    KernelParams,
    PairGeometry,
    HAZARD_CAP,
    calibrate_beta_max,
    cumulative_hazard,
    daily_contact_density,
    density,
    mean_pair_rate,
    pair_index,
    pair_rate,
    pair_rates,
    pair_totals,
    pairwise_rates,
    rates_between,
    relative_geometry,
)
from reference_kernel import pairwise_rates as reference_rates

KP = KernelParams(beta_max=1.0)


# ---------------------------------------------------------------------------
# relative_geometry
# ---------------------------------------------------------------------------

def test_face_to_face_along_axis():
    g = relative_geometry((0, 0), (1, 0), (2, 0), (-1, 0))
    assert g.r == pytest.approx(2.0, abs=0)
    assert g.theta_i == 0.0
    assert g.theta_j == 0.0


def test_perpendicular_facing():
    g = relative_geometry((0, 0), (0, 1), (2, 0), (-1, 0))
    assert g.r == 2.0
    assert g.theta_i == pytest.approx(math.pi / 2, abs=1e-12)
    assert g.theta_j == 0.0


def test_diagonal_pair_hand_checked():
    # dot-product oracle: i faces +x toward (1,1) -> pi/4; j faces +x away -> 3pi/4
    g = relative_geometry((0, 0), (1, 0), (1, 1), (1, 0))
    assert g.r == pytest.approx(math.sqrt(2), rel=1e-15)
    assert g.theta_i == pytest.approx(math.pi / 4, rel=1e-12)
    assert g.theta_j == pytest.approx(3 * math.pi / 4, rel=1e-12)


def test_coincident_positions_raise():
    with pytest.raises(CoincidentPositions):
        relative_geometry((1, 1), (1, 0), (1, 1), (0, 1))


def test_non_unit_facing_rejected():
    with pytest.raises(ValueError):
        relative_geometry((0, 0), (2, 0), (1, 0), (1, 0))


def test_swap_symmetry_exchanges_angles():
    g = relative_geometry((0, 0), (1, 0), (1, 1), (0, 1))
    h = relative_geometry((1, 1), (0, 1), (0, 0), (1, 0))
    assert h.r == g.r
    assert h.theta_i == g.theta_j
    assert h.theta_j == g.theta_i


@settings(max_examples=200)
@given(
    x=st.floats(-50, 50), y=st.floats(-50, 50),
    dx=st.floats(-10, 10), dy=st.floats(-10, 10),
    ai=st.floats(0, 2 * math.pi), aj=st.floats(0, 2 * math.pi),
    shift_x=st.floats(-100, 100), shift_y=st.floats(-100, 100),
    rot=st.floats(0, 2 * math.pi),
)
def test_rigid_motion_invariance(x, y, dx, dy, ai, aj, shift_x, shift_y, rot):
    if math.hypot(dx, dy) < 1e-3:
        return
    pi_, pj = np.array([x, y]), np.array([x + dx, y + dy])
    fi = np.array([math.cos(ai), math.sin(ai)])
    fj = np.array([math.cos(aj), math.sin(aj)])
    c, s = math.cos(rot), math.sin(rot)
    rot_m = np.array([[c, -s], [s, c]])
    shift = np.array([shift_x, shift_y])
    g = relative_geometry(pi_, fi, pj, fj)
    h = relative_geometry(rot_m @ pi_ + shift, rot_m @ fi, rot_m @ pj + shift, rot_m @ fj)
    assert h.r == pytest.approx(g.r, abs=1e-9, rel=1e-9)
    assert h.theta_i == pytest.approx(g.theta_i, abs=1e-7)
    assert h.theta_j == pytest.approx(g.theta_j, abs=1e-7)


# ---------------------------------------------------------------------------
# pair_rate
# ---------------------------------------------------------------------------

def test_kernel_maximum_at_contact():
    kp = KernelParams(beta_max=0.123)
    assert pair_rate(PairGeometry(0.0, 0.0, 0.0), kp) == 0.123


def test_kernel_at_sigma_r():
    kp = KernelParams(beta_max=1.0, sigma_r=2.0)
    assert pair_rate(PairGeometry(2.0, 0.0, 0.0), kp) == pytest.approx(
        math.exp(-0.5), rel=1e-12
    )


def test_kernel_distance_and_angles():
    kp = KernelParams(beta_max=1.0, sigma_r=2.0, sigma_theta=math.pi / 4)
    g = PairGeometry(2.0, math.pi / 4, math.pi / 4)
    assert pair_rate(g, kp) == pytest.approx(math.exp(-1.5), rel=1e-12)


def test_symmetry_and_monotonicity_random():
    rng = np.random.default_rng(2024)
    n = 10_000
    r = rng.uniform(0, 12, n)
    ti = rng.uniform(0, math.pi, n)
    tj = rng.uniform(0, math.pi, n)
    for k in range(0, n, 997):  # spot scalar symmetry across the sweep
        a = pair_rate(PairGeometry(r[k], ti[k], tj[k]), KP)
        b = pair_rate(PairGeometry(r[k], tj[k], ti[k]), KP)
        assert a == pytest.approx(b, rel=1e-12)
    # vectorized identity via the formula the scalar path uses
    exponent = -(r**2) / (2 * KP.sigma_r**2) - (ti**2 + tj**2) / (2 * KP.sigma_theta**2)
    rates = KP.beta_max * np.exp(exponent)
    swapped = KP.beta_max * np.exp(
        -(r**2) / (2 * KP.sigma_r**2) - (tj**2 + ti**2) / (2 * KP.sigma_theta**2)
    )
    assert np.allclose(rates, swapped, rtol=1e-12, atol=0)
    assert (rates > 0).all() and (rates <= KP.beta_max).all()
    # monotone decreasing in r at fixed angles
    order = np.argsort(r)
    fixed_angles = KP.beta_max * np.exp(-(r[order] ** 2) / (2 * KP.sigma_r**2))
    assert (np.diff(fixed_angles) <= 0).all()
    # non-increasing as either angle grows at fixed r
    t_sorted = np.sort(ti)
    by_angle = KP.beta_max * np.exp(-(t_sorted**2) / (2 * KP.sigma_theta**2))
    assert (np.diff(by_angle) <= 0).all()


def test_rate_monotone_in_each_argument_scalar():
    assert pair_rate(PairGeometry(1.0, 0.3, 0.3), KP) > pair_rate(
        PairGeometry(2.0, 0.3, 0.3), KP
    )
    assert pair_rate(PairGeometry(1.0, 0.3, 0.3), KP) > pair_rate(
        PairGeometry(1.0, 0.8, 0.3), KP
    )


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_calibration_chain_frozen_values():
    # chain recomputed by hand before the build:
    # rho = (10 / (pi * 1.8288^2)) * (15 / 1440) = 0.009913944154037586
    # beta_max = 0.2 / (4 * (pi/4)^2 * rho)     = 8.176054419356268 / day
    c = CalibrationInputs()
    assert daily_contact_density(c) == pytest.approx(0.009913944154037586, rel=1e-12)
    assert calibrate_beta_max(c) == pytest.approx(8.176054419356268, rel=1e-12)
    assert calibrate_beta_max(c) / 86400 == pytest.approx(9.463025948329014e-05, rel=1e-12)


def test_doubling_contacts_halves_beta_max():
    base = calibrate_beta_max(CalibrationInputs())
    doubled = calibrate_beta_max(CalibrationInputs(n_contacts=20.0))
    assert doubled == pytest.approx(base / 2, rel=1e-12)


def test_zero_r0_gives_zero_rate():
    assert calibrate_beta_max(CalibrationInputs(r0=0.0)) == 0.0


def test_calibration_round_trip():
    c = CalibrationInputs(r0=3.3, gamma=0.2, n_contacts=7, contact_radius=1.5,
                          contact_duration=22, sigma_r=1.7, sigma_theta=0.6)
    beta_max = calibrate_beta_max(c)
    rho = daily_contact_density(c)
    assert beta_max * c.sigma_r**2 * c.sigma_theta**2 * rho == pytest.approx(
        c.r0 * c.gamma, rel=1e-12
    )


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_examples():
    assert density(20, 10.0) == 2.0
    assert density(0, 123.0) == 0.0
    assert density(13, 60.0) == pytest.approx(0.21666666666666667, rel=1e-12)


def test_density_zero_area():
    with pytest.raises(ZeroArea):
        density(5, 0.0)


# ---------------------------------------------------------------------------
# vectorized rate field
# ---------------------------------------------------------------------------

def _random_field(rng, t, n):
    pos = rng.uniform(0, 8, size=(t, n, 2))
    ang = rng.uniform(0, 2 * math.pi, size=(t, n))
    fac = np.stack([np.cos(ang), np.sin(ang)], axis=2)
    present = rng.random((t, n)) > 0.2
    return pos, fac, present


def test_pairwise_rates_match_scalar_path():
    rng = np.random.default_rng(5)
    pos, fac, present = _random_field(rng, 7, 5)
    rates = pairwise_rates(pos, fac, present, KP)
    for t in range(7):
        for i in range(5):
            for j in range(5):
                if i == j or not (present[t, i] and present[t, j]):
                    assert rates[t, i, j] == 0.0
                    continue
                g = relative_geometry(pos[t, i], fac[t, i], pos[t, j], fac[t, j])
                if g.r < R_MIN_M:
                    g = PairGeometry(R_MIN_M, g.theta_i, g.theta_j)
                assert rates[t, i, j] == pytest.approx(pair_rate(g, KP), rel=1e-12)


def _pairwise_rates_einsum(positions, facings, present, p):
    """The rate field with its dot products as einsum calls: the reference
    that the written-out products must reproduce bit for bit."""
    n = positions.shape[1]
    pc = np.where(present[:, :, None], positions, 0.0)
    fc = np.where(present[:, :, None], facings, 0.0)
    d = pc[:, None, :, :] - pc[:, :, None, :]
    r = np.sqrt(np.einsum("tijk,tijk->tij", d, d))
    r_safe = np.maximum(r, 1e-12)
    th_i = np.arccos(np.clip(np.einsum("tik,tijk->tij", fc, d) / r_safe, -1.0, 1.0))
    th_j = np.arccos(np.clip(-np.einsum("tjk,tijk->tij", fc, d) / r_safe, -1.0, 1.0))
    r_eff = np.maximum(r, R_MIN_M)
    rate = p.beta_max * np.exp(
        -(r_eff * r_eff) * (1.0 / (2.0 * p.sigma_r * p.sigma_r))
        - (th_i * th_i + th_j * th_j) * (1.0 / (2.0 * p.sigma_theta * p.sigma_theta))
    )
    rate[~(present[:, :, None] & present[:, None, :])] = 0.0
    rate[:, np.arange(n), np.arange(n)] = 0.0
    return rate


def _hard_field(rng, t, n, scale):
    """A field with coincident tags and NaN coordinates while absent."""
    pos, fac, present = _random_field(rng, t, n)
    pos *= scale
    pos[:, : n // 2] = pos[:, :1]  # coincident tags
    pos = np.where(present[:, :, None], pos, np.nan)
    fac = np.where(present[:, :, None], fac, np.nan)
    return pos, fac, present


def test_pairwise_rates_bitwise_equal_einsum_reference():
    rng = np.random.default_rng(12)
    for _ in range(40):
        t, n = int(rng.integers(1, 60)), int(rng.integers(1, 9))
        pos, fac, present = _hard_field(rng, t, n, rng.choice([1e-7, 1.0, 50.0]))
        kp = KernelParams(beta_max=float(rng.uniform(0.01, 5.0)),
                          sigma_r=float(rng.uniform(0.5, 3.0)))
        full = reference_rates(pos, fac, present, kp)
        assert np.array_equal(full, _pairwise_rates_einsum(pos, fac, present, kp))
        assert np.array_equal(pairwise_rates(pos, fac, present, kp), full)


@settings(max_examples=200, deadline=None)
@given(
    t=st.integers(1, 40),
    n=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-7, 1e-3, 1.0, 100.0]),
    beta_max=st.floats(1e-3, 50.0),
    sigma_r=st.floats(0.2, 4.0),
    sigma_theta=st.floats(0.1, 3.0),
    data=st.data(),
)
def test_pair_rates_equal_full_matrix_reference(t, n, seed, scale, beta_max, sigma_r,
                                               sigma_theta, data):
    # any pair list: a > b, a == b and repeats included, in any order
    rng = np.random.default_rng(seed)
    pos, fac, present = _hard_field(rng, t, n, scale)
    kp = KernelParams(beta_max=beta_max, sigma_r=sigma_r, sigma_theta=sigma_theta)
    people = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(people, people), max_size=30), label="pairs")
    a = np.array([p[0] for p in pairs], dtype=np.intp)
    b = np.array([p[1] for p in pairs], dtype=np.intp)
    full = reference_rates(pos, fac, present, kp)
    assert np.array_equal(pair_rates(pos, fac, present, kp, (a, b)), full[:, a, b])
    i, j = np.triu_indices(n, k=1)
    assert np.array_equal(pair_rates(pos, fac, present, kp), full[:, i, j])


def test_pairwise_rates_chunking_is_invisible(monkeypatch):
    rng = np.random.default_rng(6)
    pos, fac, present = _random_field(rng, 50, 4)
    monkeypatch.setattr(kernel, "_CHUNK_ELEMENTS", 7 * 6)  # 7-s chunks of 6 pairs
    a = pairwise_rates(pos, fac, present, KP)
    monkeypatch.setattr(kernel, "_CHUNK_ELEMENTS", 512 * 6)  # one chunk
    b = pairwise_rates(pos, fac, present, KP)
    assert np.array_equal(a, b)


def test_pairwise_rates_symmetric_in_people():
    rng = np.random.default_rng(7)
    pos, fac, present = _random_field(rng, 20, 6)
    rates = reference_rates(pos, fac, present, KP)
    assert np.array_equal(rates, rates.transpose(0, 2, 1))
    assert np.array_equal(pairwise_rates(pos, fac, present, KP), rates)


def test_pair_index_names_each_unordered_pair_once():
    index = pair_index(5)
    i, j = np.triu_indices(5, k=1)
    assert np.array_equal(index[i, j], np.arange(10))
    assert np.array_equal(index, index.T)
    assert (np.diag(index) == -1).all()


@given(case=st.integers(1, 20).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n - 1), min_size=1))))
@example(case=(1, {0}))
@example(case=(20, {19}))
@example(case=(20, set(range(20))))
def test_sorted_roster_pair_columns_are_its_triangle_in_order(case):
    # a run takes its beta_hat columns from its slice of the pair map where
    # idx[a] < idx[b]; for an ascending roster that is its triangle in
    # row-major order, the order the float sum runs in, and each pair once
    n, roster = case
    idx = np.array(sorted(roster), dtype=np.intp)
    sub = pair_index(n)[np.ix_(idx, idx)]
    cols = sub[idx[:, None] < idx]
    assert np.array_equal(cols, sub[np.triu_indices(len(idx), k=1)])
    assert np.array_equal(cols, np.unique(sub)[1:])
    assert cols.dtype == np.intp


def test_time_sums_add_seconds_in_order(monkeypatch):
    # numpy's sum(axis=0) of a single column is a pairwise sum, which rounds
    # differently from the second-by-second sum of the full-matrix kernel
    rng = np.random.default_rng(15)
    t_total = 700
    pos = np.zeros((t_total, 2, 2))
    pos[:, 1, 0] = rng.choice([0.5, 8.0, 16.0], size=t_total)  # rates 1e6 down to 1e-8
    fac = np.tile(np.array([[1.0, 0.0], [-1.0, 0.0]]), (t_total, 1, 1))
    present = rng.random((t_total, 2)) > 0.1
    kp = KernelParams(beta_max=1e6)
    rates = pair_rates(pos, fac, present, kp)
    assert rates.max() / rates[rates > 0].min() > 1e12
    running = np.zeros(1)
    for row in rates:
        running = running + row
    assert not np.array_equal(rates.sum(axis=0), running)  # the trap is real
    monkeypatch.setattr(kernel, "_CHUNK_ELEMENTS", 37)  # many chunks
    assert np.array_equal(pair_totals(pos, fac, present, kp)[0], running)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_pair_rate_sums_match_full_matrix_time_sums(monkeypatch, n):
    # beta_hat's numerator: every route to a pair's time sum gives the bits
    # of the full-matrix kernel's rates.sum(axis=0)
    rng = np.random.default_rng(16 + n)
    pos, fac, present = _hard_field(rng, 300, n, 1.0)
    kp = KernelParams(beta_max=0.7)
    i, j = np.triu_indices(n, k=1)
    full_sums = reference_rates(pos, fac, present, kp).sum(axis=0)
    monkeypatch.setattr(kernel, "_CHUNK_ELEMENTS", 19)  # many chunks
    chunked, seconds = pair_totals(pos, fac, present, kp)
    monkeypatch.undo()
    whole = pair_totals(pos, fac, present, kp, np.empty((300, len(i))))[0]
    assert np.array_equal(chunked, full_sums[i, j])
    assert np.array_equal(whole, full_sums[i, j])
    idx = np.arange(0, n, 2) if n > 2 else np.arange(n)
    expected_all = full_sums[i, j].sum() / ((present.sum(axis=1) * (present.sum(axis=1) - 1))
                                            // 2).sum()
    assert mean_pair_rate(whole, seconds) == expected_all
    sub = reference_rates(pos[:, idx], fac[:, idx], present[:, idx], kp).sum(axis=0)
    si, sj = np.triu_indices(len(idx), k=1)
    k = present[:, idx].sum(axis=1)
    cols = pair_index(n)[idx[si], idx[sj]]
    assert mean_pair_rate(whole, seconds, cols) == sub[si, sj].sum() / ((k * (k - 1)) // 2).sum()


@pytest.mark.parametrize("chunk", [1, 5, None])
def test_pair_totals_out_holds_the_whole_block_rates(monkeypatch, chunk):
    # the rates a cache keeps are pair_rates of the whole block, bit for
    # bit, whatever time chunks the pass went in
    rng = np.random.default_rng(21)
    pos, fac, present = _hard_field(rng, 53, 5, 1.0)
    whole = pair_rates(pos, fac, present, KP)
    if chunk is not None:
        monkeypatch.setattr(kernel, "_CHUNK_ELEMENTS", chunk)
    out = np.full(whole.shape, np.nan)
    sums, _ = pair_totals(pos, fac, present, KP, out)
    assert np.array_equal(out, whole)
    assert np.array_equal(sums, pair_totals(pos, fac, present, KP)[0])


@st.composite
def _presence_masks(draw):
    """(T, M) masks with M in 0..6; some people may never be present."""
    t, m = draw(st.integers(0, 40)), draw(st.integers(0, 6))
    cells = draw(st.lists(st.booleans(), min_size=t * m, max_size=t * m))
    present = np.array(cells, dtype=bool).reshape(t, m)
    present[:, draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=m))] = False
    return present


@settings(max_examples=200, deadline=None)
@given(present=_presence_masks(), chunk=st.sampled_from([1, 5, 1 << 14]))
@example(present=np.ones((0, 3), dtype=bool), chunk=5)
@example(present=np.ones((0, 0), dtype=bool), chunk=1)
@example(present=np.ones((7, 0), dtype=bool), chunk=1)
@example(present=np.ones((7, 1), dtype=bool), chunk=1)
@example(present=np.array([[1, 0], [1, 1], [0, 1], [1, 1]], dtype=bool), chunk=1)
@example(present=np.array([[1, 0, 1], [0, 0, 1]], dtype=bool), chunk=2)
def test_pair_seconds_sum_to_present_pairs_of_every_roster(present, chunk):
    # beta_hat's denominator: for every roster, the co-present seconds of its
    # pairs add up to sum_t k(k-1)/2 over its k people present at second t
    t_total, m = present.shape
    pos = np.zeros((t_total, m, 2))
    fac = np.zeros((t_total, m, 2))
    fac[..., 0] = 1.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_CHUNK_ELEMENTS", chunk)
        _, seconds = pair_totals(pos, fac, present, KP)
    assert seconds.dtype.kind == "i" and seconds.shape == (m * (m - 1) // 2,)
    index = pair_index(m)
    for mask in range(1 << m):
        idx = np.array([k for k in range(m) if mask >> k & 1], dtype=np.intp)
        si, sj = np.triu_indices(len(idx), k=1)
        k = present[:, idx].sum(axis=1)
        assert int(seconds[index[idx[si], idx[sj]]].sum()) == int(((k * (k - 1)) // 2).sum())
    if m < 2 or not seconds.any():
        assert mean_pair_rate(np.ones(len(seconds)), seconds) == 0.0


def test_rates_between_agrees_with_pairwise():
    # one formula: the A x B block of the full matrix, bit for bit
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, n))
        pos, fac, present = _random_field(rng, 1, n)
        present[:] = True
        full = pairwise_rates(pos, fac, present, KP)[0]
        cross = rates_between(pos[0, :k], fac[0, :k], pos[0, k:], fac[0, k:], KP)
        assert np.array_equal(full[:k, k:], cross)


def test_coincident_pair_clamped_not_infinite():
    pos = np.zeros((1, 2, 2))
    fac = np.tile(np.array([1.0, 0.0]), (1, 2, 1))
    present = np.ones((1, 2), dtype=bool)
    rates = pairwise_rates(pos, fac, present, KP)
    # distance clamped to R_MIN_M, coincident angles fall back to pi/2 each
    expected = pair_rate(PairGeometry(R_MIN_M, math.pi / 2, math.pi / 2), KP)
    assert rates[0, 0, 1] == pytest.approx(expected, rel=1e-12)
    assert rates[0, 0, 1] <= KP.beta_max


def test_cumulative_hazard_is_running_sum_of_capped_hazards():
    rng = np.random.default_rng(13)
    pos, fac, present = _random_field(rng, 50, 4)
    rates = pairwise_rates(pos, fac, present, KernelParams(beta_max=3.0))
    rates[7, 0, 1] = 1.0   # certain contact: hazard capped, not inf
    rates[9, 1, 0] = 7.5   # beta dt above 1 counts as p = 1
    with np.errstate(divide="ignore"):
        h = np.minimum(-np.log1p(-np.minimum(rates, 1.0)), HAZARD_CAP)
    expected = np.zeros_like(h)
    running = np.zeros(h.shape[1:])
    for t in range(len(h)):  # sequential in t, one second after another
        running = running + h[t]
        expected[t] = running
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        whole = cumulative_hazard(rates.copy())
    assert np.array_equal(whole, expected)
    assert np.isfinite(whole).all()
    assert whole[7, 0, 1] - whole[6, 0, 1] == HAZARD_CAP
    assert whole[9, 1, 0] - whole[8, 1, 0] == HAZARD_CAP


def test_cumulative_hazard_converts_a_whole_cache_without_a_copy():
    # a 3-h recording of 15 people: 10,800 s x 105 pairs, 9.07 MB of float64;
    # the conversion must not hold a second block, or any large temporary
    rates = np.random.default_rng(15).uniform(0.0, 1.5, size=(10_800, 105))
    tracemalloc.start()
    try:
        out = cumulative_hazard(rates)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out is rates
    assert peak < 64 * 1024


def test_cumulative_hazard_in_place_on_column_blocks():
    rng = np.random.default_rng(14)
    pos, fac, present = _random_field(rng, 30, 5)
    rates = pairwise_rates(pos, fac, present, KP)
    rows, cols = np.array([1, 3])[:, None], np.array([0, 2, 4])
    block = rates[:, rows, cols]
    full = cumulative_hazard(rates)
    assert cumulative_hazard(block) is block
    assert np.array_equal(block, full[:, rows, cols])


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(beta_max=0.0)
    with pytest.raises(ValueError):
        KernelParams(beta_max=1.0, sigma_r=-1.0)
    with pytest.raises(ValueError):
        KernelParams(beta_max=1.0, lambda_decay=-0.1)
