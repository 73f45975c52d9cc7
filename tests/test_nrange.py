import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitforge import nrange, operators
from orbitforge.flatten import flat_subspace
from orbitforge.errors import (
    DegenerateInputError,
    DomainError,
    PreconditionError,
    UnsupportedModelError,
    WindowBudgetError,
)
from orbitforge.nrange import (
    BoundaryResult,
    diagonal_compression_subspace,
    nr_boundary,
    numerical_radius,
    radius_norm_bounds,
    we_membership_witness,
)
from orbitforge.operators import (
    BilateralShift,
    ConstantWeights,
    DenseOperator,
    DiagonalUnitary,
    MultiplicationGrid,
    OperatorPower,
    QuadraticIrrationalRotation,
    TWO_PI,
    UnilateralShift,
    _safe_scale,
    apply_power,
    spectral_error_bound,
)
from orbitforge.vectors import BudgetMeter, WindowVector, cross_gram, inner


def _rng(seed):
    return np.random.default_rng(seed)


def _random_matrix(n, seed):
    r = _rng(seed)
    return r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))


# ---------------------------------------------------------------------------
# dense numerical range


def test_nilpotent_block_radius_is_half():
    j2 = np.array([[0.0, 1.0], [0.0, 0.0]], complex)
    w, theta = numerical_radius(j2)
    assert abs(w - 0.5) < 1e-12
    b = nr_boundary(j2, 128)
    # the range is the closed disk of radius 1/2 centered at 0
    assert abs(np.max(np.abs(b.points)) - 0.5) < 1e-10
    assert np.all(np.abs(np.abs(b.points) - 0.5) < 1e-10)


def test_hermitian_range_is_real_segment():
    a = np.diag([1.0, -2.0, 0.5]).astype(complex)
    w, _ = numerical_radius(a)
    assert abs(w - 2.0) < 1e-10
    b = nr_boundary(a, 64)
    assert np.max(np.abs(b.points.imag)) < 1e-10
    assert np.min(b.points.real) > -2.0 - 1e-10
    assert np.max(b.points.real) < 1.0 + 1e-10


def test_normal_matrix_radius_is_max_eigenvalue_modulus():
    eigs = np.array([1.0, 1j, -0.3 - 0.4j])
    w, _ = numerical_radius(np.diag(eigs))
    assert abs(w - 1.0) < 1e-10


def test_boundary_points_dominated_by_support_function():
    a = _random_matrix(5, 7)
    b = nr_boundary(a, 48)
    # every returned point must lie inside every supporting half-plane
    for p in b.points:
        slack = b.support - np.real(np.exp(-1j * b.thetas) * p)
        assert np.min(slack) > -1e-9


def test_radius_against_fine_grid():
    for seed in range(4):
        a = _random_matrix(6, seed)
        w, _ = numerical_radius(a, n_angles=180)
        grid = max(
            np.linalg.eigvalsh(
                (np.exp(-1j * t) * a + np.exp(1j * t) * a.conj().T) / 2.0
            )[-1]
            for t in np.linspace(0, 2 * math.pi, 2000, endpoint=False)
        )
        assert w >= grid - 1e-9
        assert w <= grid + 1e-4


def test_radius_norm_two_sided_inequality():
    for seed in range(6):
        a = _random_matrix(4, 100 + seed)
        out = radius_norm_bounds(a, n_angles=240)
        assert out["lower_holds"]
        assert out["upper_holds"]
        true_norm = np.linalg.norm(a, 2)
        assert out["radius"] <= true_norm + 1e-9
        assert true_norm <= 2.0 * out["radius"] + 1e-9


def test_radius_norm_verdicts_compare_enclosure_ends():
    rng = _rng(11)
    diag = np.diag(np.exp(2j * math.pi * rng.random(6)) * rng.random(6))
    cases = [_jordan(2), _jordan(5), diag, np.eye(3, dtype=complex), np.zeros((3, 3), complex)]
    cases += [_random_matrix(n, 500 + n) for n in (8, 64)]
    for a in cases:
        out = radius_norm_bounds(a)
        assert out["lower_holds"] and out["upper_holds"]
        assert out["norm_bound"] == out["norm_upper"]
        assert out["norm_lower"] <= np.linalg.norm(a, 2) <= out["norm_upper"]
        width = out["norm_upper"] - out["norm_lower"]
        eps = spectral_error_bound(np.asarray(a, complex))
        assert width <= 2.0 * eps + 2.0 * np.spacing(out["norm_upper"])
    # ||J2|| = 2 w(J2) exactly: the verdict cannot ask for a margin
    j2 = radius_norm_bounds(_jordan(2))
    assert j2["norm_lower"] <= 1.0 <= 2.0 * j2["radius_upper"]


def test_boundary_rejects_lazy_models():
    with pytest.raises(UnsupportedModelError):
        nr_boundary(BilateralShift())
    with pytest.raises(DegenerateInputError):
        nr_boundary(np.eye(2, dtype=complex), n_angles=2)


def test_numerical_radius_accepts_dense_operator_wrapper():
    a = _random_matrix(3, 42)
    w1, _ = numerical_radius(a, 120)
    w2, _ = numerical_radius(DenseOperator(a), 120)
    assert abs(w1 - w2) < 1e-12


# ---------------------------------------------------------------------------
# adaptive wedge search against a dense angle sample


_U = 2.0 ** -53
_GRIDS = (3, 5, 13, 97, 120, 180, 240, 720, 1000)


def _jordan(n):
    return np.diag(np.ones(n - 1), 1).astype(complex)


def _structured():
    return [
        _jordan(5),
        _jordan(2),
        np.diag([1.0, -2.0, 0.5]).astype(complex),
        np.diag([1.0, 1j, -1.0, -1j]),
        np.diag([1.0, 1j, -0.3 - 0.4j]),
        np.outer([1.0, 2j, 3.0], [1.0, -1.0, 2j]),
        np.zeros((3, 3), complex),
    ]


def _margin(n, frob, gap, vertex):
    eps = 16.0 * n * _U * frob
    return (1.0 + 2.0 / math.sin(gap)) * eps + 4.0 * _U * abs(vertex)


def _stacked_support(a, thetas):
    t = np.asarray(thetas, float)[..., None, None]
    return np.linalg.eigvalsh((np.exp(-1j * t) * a + np.exp(1j * t) * a.conj().T) / 2.0)[..., -1]


def test_wedge_bound_dominates_the_support_function_on_every_arc():
    mats = [_random_matrix(n, 200 + n) for n in (2, 6, 16)] + _structured()
    rng = _rng(3)
    for a in mats:
        eps = 16.0 * len(a) * _U * float(np.linalg.norm(a))
        for n_angles, stride in ((720, 8), (180, 8), (13, 1)):
            step = 2.0 * math.pi / n_angles
            k0 = np.arange(0, n_angles, stride)
            k1 = np.minimum(k0 + stride, n_angles)
            gap = (k1 - k0) * step
            bound = nrange._wedge_bounds(
                _stacked_support(a, k0 * step), _stacked_support(a, k1 * step), gap, eps
            )
            inside = k0[:, None] * step + gap[:, None] * np.arange(1, 51) / 51.0
            assert np.all(_stacked_support(a, inside).max(axis=1) <= bound)
        # off-grid arcs, widths in (0, pi/4] down to below the search's g_min
        t0 = 2.0 * math.pi * rng.random(40)
        gap = math.pi / 4.0 * 10.0 ** (-6.0 * rng.random(40))
        bound = nrange._wedge_bounds(
            _stacked_support(a, t0), _stacked_support(a, t0 + gap), gap, eps
        )
        inside = t0[:, None] + gap[:, None] * np.arange(1, 51) / 51.0
        assert np.all(_stacked_support(a, inside).max(axis=1) <= bound)


def _count_solves(monkeypatch):
    counts = {"matrices": 0}
    eigvalsh = np.linalg.eigvalsh

    def counted(h):
        counts["matrices"] += int(np.prod(np.shape(h)[:-2]))
        return eigvalsh(h)

    class Linalg:
        def __getattr__(self, name):
            return getattr(np.linalg, name)

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

    fake = Numpy()
    fake.linalg = Linalg()
    fake.linalg.eigvalsh = counted
    monkeypatch.setattr(nrange, "np", fake)
    return counts


def test_pruned_sweep_solves_few_angles_on_a_random_matrix(monkeypatch):
    a = _random_matrix(16, 11)
    counts = _count_solves(monkeypatch)
    numerical_radius(a, 720)
    assert 0 < counts["matrices"] <= 40


def _coarse_angles(n_angles):
    grid = 2.0 * math.pi * np.arange(n_angles) / n_angles
    return grid[:(n_angles + 1) // 2 : max(1, min(32, n_angles // 8))]


@pytest.mark.parametrize("n", [2, 8, 64])
def test_antipodal_values_match_a_direct_solve(n):
    # Re(e^{-i(t + pi)} A) = -Re(e^{-i t} A): minus the bottom eigenvalue
    a = _random_matrix(n, 40 + n)
    eps = 16.0 * n * _U * float(np.linalg.norm(a))
    for n_angles in _GRIDS:
        half = _coarse_angles(n_angles)
        top, antipodal = nrange._support_values(a, half)
        for got, t in ((top, half), (antipodal, half + math.pi)):
            assert np.all(np.abs(got - _stacked_support(a, t)) <= 2.0 * eps)


def test_dominant_eigenvalue_reached_only_through_an_antipode():
    # arg(lambda) = pi + a coarse angle, so no coarse angle in [0, pi) sees it
    t = _coarse_angles(720)[3] + math.pi
    lam = 2.0 * np.exp(1j * t)
    diag = np.diag([lam, 0.5, 0.3j, -0.4 - 0.2j])
    out = radius_norm_bounds(diag)
    assert out["radius"] <= abs(lam) <= out["radius_upper"]
    assert out["radius_upper"] - out["radius"] <= 1e-8
    _, theta = numerical_radius(diag)
    assert abs(theta - t) <= 1e-6


@pytest.mark.parametrize("n_angles", [13, 97, 720])
def test_disk_like_ranges_stay_within_the_solve_cap(monkeypatch, n_angles):
    # h is constant on a disc, so nothing prunes and the cap ends the search
    for n in (2, 5):
        counts = _count_solves(monkeypatch)
        numerical_radius(_jordan(n), n_angles)
        assert counts["matrices"] <= n_angles


def _reference_wedge_bounds(h0, h1, gap, eps):
    v = np.sqrt((h0 - h1) ** 2 + 4.0 * h0 * h1 * np.sin(gap / 2.0) ** 2) / np.sin(gap)
    inside = (h1 >= h0 * np.cos(gap)) & (h0 >= h1 * np.cos(gap))
    top = np.maximum(np.maximum(h0, h1), np.where(inside, v, -np.inf))
    return top + (1.0 + 2.0 / np.sin(gap)) * eps + 4.0 * _U * np.abs(v)


def _reference_radius(a, n_angles):
    """The search as it was before its bookkeeping moved to lists: every
    round rebuilds the arc widths and the wedge bounds of all arcs."""
    a = np.asarray(a, complex)
    scale = _safe_scale(a)
    if scale != 1.0:
        a = a * scale
    grid = nrange._angle_grid(n_angles)
    n_angles = len(grid)
    half = grid[:(n_angles + 1) // 2 : max(1, min(32, n_angles // 8))]
    thetas = np.concatenate((half, half + np.pi))
    values = nrange._support_values(a, half).ravel()
    eps = spectral_error_bound(a)
    g_min = 4.0 * (16.0 * len(a) * _U) ** (1.0 / 3.0)
    while True:
        gaps = np.diff(thetas, append=TWO_PI)
        bounds = _reference_wedge_bounds(values, np.roll(values, -1), gaps, eps)
        best, top = values.max(), bounds.max()
        split = np.flatnonzero(bounds >= (best + top) / 2.0)
        room = n_angles - len(thetas)
        if top <= best or gaps[np.argmax(bounds)] < 2.0 * g_min or not 0 < len(split) <= room:
            break
        mids = thetas[split] + gaps[split] / 2.0
        thetas = np.insert(thetas, split + 1, mids)
        values = np.insert(values, split + 1, nrange._support_values(a, mids)[0])
    k = int(np.argmax(values))
    w, theta = float(values[k]), float(thetas[k])
    if len(thetas) < n_angles:
        d0, d1 = (theta - thetas[k - 1]) % TWO_PI, gaps[k]
        f0, f1 = w - values[k - 1], w - values[(k + 1) % len(values)]
        den = d0 * f1 + d1 * f0
        if den > 0.0:
            t = theta + (d1 * d1 * f0 - d0 * d0 * f1) / (2.0 * den)
            h = float(nrange._support_values(a, (t,))[0, 0])
            if h > w:
                w, theta = h, t
    return w / scale, theta % TWO_PI, float(top) / scale


def _bit_identity_cases():
    rng = _rng(31)
    diag = np.diag(np.exp(2j * math.pi * rng.random(6)) * rng.random(6))
    roots = np.diag(np.exp(2j * math.pi * np.arange(5) / 5))
    cases = [diag, np.zeros((3, 3), complex), _jordan(2), np.eye(4, dtype=complex), roots]
    cases += [_random_matrix(8, 700 + s) for s in range(12)]
    cases += [_random_matrix(64, 800 + s) for s in range(2)]
    # outside _safe_scale's range: searched as a power-of-two multiple
    cases += [1e-300 * _random_matrix(8, 900), 1e300 * _random_matrix(8, 901)]
    return cases


@pytest.mark.parametrize("n_angles", [8, 13, 97, 720])
def test_search_matches_the_whole_array_rounds_bit_for_bit(monkeypatch, n_angles):
    # each round recomputes only the new arcs' bounds; the other arcs keep
    # theirs, so the same angles are solved and the same bits come out
    for a in _bit_identity_cases():
        counts = _count_solves(monkeypatch)
        got = numerical_radius(a, n_angles, with_upper=True)
        solved = counts["matrices"]
        counts["matrices"] = 0
        want = _reference_radius(a, n_angles)
        assert [float(x).hex() for x in got] == [x.hex() for x in want]
        assert solved == counts["matrices"]


def test_radius_norm_bounds_computes_one_scale_and_one_eps(monkeypatch):
    calls = {"scale": 0, "eps": 0}
    for name, key in (("_safe_scale", "scale"), ("_scaled_error_bound", "eps")):
        def counted(a, _f=getattr(operators, name), _key=key):
            calls[_key] += 1
            return _f(a)

        monkeypatch.setattr(operators, name, counted)
    for a in (_random_matrix(8, 3), 1e-300 * _random_matrix(8, 4)):
        calls.update(scale=0, eps=0)
        out = radius_norm_bounds(a)
        assert calls == {"scale": 1, "eps": 1}
        eps = spectral_error_bound(np.asarray(a, complex))
        sigma = float(np.linalg.norm(a, 2))
        assert (out["norm_lower"], out["norm_upper"]) == (sigma - eps, sigma + eps)
        assert out["lower_holds"] == (out["radius"] - eps <= out["norm_upper"])


def test_normal_matrix_radius_is_enclosed_tightly():
    # at a polygon vertex only the arc holding arg(lambda) keeps the top bound
    rng = _rng(11)
    diag = np.diag(np.exp(2j * math.pi * rng.random(6)) * rng.random(6))
    out = radius_norm_bounds(diag)
    assert out["radius"] <= np.max(np.abs(diag)) <= out["radius_upper"]
    assert out["radius_upper"] - out["radius"] <= 1e-8


def _sampled_radius(a):
    """Dense-sample oracle: max h over 2000 angles, then over 1001 angles
    spanning the two grid steps around each of the three best samples."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 2000, endpoint=False)
    values = _stacked_support(a, thetas)
    best = float(values.max())
    for k in np.argsort(values)[-3:]:
        fine = thetas[k] + np.linspace(-1.0, 1.0, 1001) * (2.0 * math.pi / 2000)
        best = max(best, float(_stacked_support(a, fine).max()))
    return best


_MATRICES = st.one_of(
    st.builds(lambda n, seed: (_random_matrix(n, seed), True), st.integers(2, 33),
              st.integers(0, 2 ** 16)),
    st.sampled_from([(a, False) for a in _structured()]),
)


@settings(max_examples=25, deadline=None)
@given(case=_MATRICES, n_angles=st.sampled_from(_GRIDS))
def test_radius_enclosure_against_a_dense_sample(case, n_angles):
    a, random = case
    out = radius_norm_bounds(a)
    sample = _sampled_radius(a)
    norm = np.linalg.norm(a, 2)
    assert out["radius"] >= sample - 1e-12 * norm
    assert out["radius_upper"] >= sample
    if random:
        assert out["radius_upper"] - out["radius"] <= 1e-7 * norm
    # a coarser cap may leave the lower end short, never the upper one
    assert radius_norm_bounds(a, n_angles)["radius_upper"] >= sample


def test_radius_upper_encloses_the_radius():
    for a in [_random_matrix(n, 300 + n) for n in (2, 5, 8, 17)] + _structured():
        out = radius_norm_bounds(a)
        assert out["radius"] <= out["radius_upper"]
    # h = 1/2 everywhere, so every step vertex is 1/(2 cos(pi/720)); the
    # enclosure adds one margin and the computed h move the vertex by another
    out = radius_norm_bounds(_jordan(2))
    gap = 2.0 * math.pi / 720
    vertex = 0.5 / math.cos(gap / 2.0)
    assert out["radius_upper"] - 0.5 <= vertex - 0.5 + 2.0 * _margin(2, 1.0, gap, vertex)


def test_radius_upper_dominates_a_dense_angle_sample():
    thetas = np.linspace(0.0, 2.0 * math.pi, 20_000, endpoint=False)[:, None, None]
    for seed in range(5):
        a = _random_matrix(6, 400 + seed)
        h = (np.exp(-1j * thetas) * a + np.exp(1j * thetas) * a.conj().T) / 2.0
        sample = float(np.max(np.linalg.eigvalsh(h)[:, -1]))
        assert radius_norm_bounds(a)["radius_upper"] >= sample


@pytest.mark.parametrize("scale", [1e-300, 1e200])
def test_radius_search_ends_when_the_wedge_arithmetic_under_or_overflows(scale):
    a = _random_matrix(5, 0)
    w, _ = numerical_radius(a)
    out = radius_norm_bounds(a * scale)
    assert out["radius"] <= out["radius_upper"] < math.inf
    assert abs(out["radius"] / scale - w) <= 1e-12 * w


@pytest.mark.parametrize("scale", [1e-300, 1e200])
def test_norm_enclosure_stays_finite_and_open_at_extreme_scales(scale):
    # ||A||_F of the raw matrix underflows to 0 (eps 0, a point interval) or
    # overflows to inf with a RuntimeWarning; the rescaled one does neither
    a = _random_matrix(5, 0) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = radius_norm_bounds(a)
    sigma = np.linalg.norm(a, 2)
    assert -math.inf < out["norm_lower"] < out["norm_upper"] < math.inf
    assert out["norm_lower"] <= sigma <= out["norm_upper"]
    assert 0.0 < spectral_error_bound(a) < math.inf


def test_subnormal_matrix_is_searched_at_a_normal_scale():
    # a * 2^1000 is exact for subnormal entries, so both calls run one search
    a = _random_matrix(5, 0) * 1e-320
    big = radius_norm_bounds(a * 2.0 ** 1000)
    out = radius_norm_bounds(a)
    assert out["radius"] == big["radius"] / 2.0 ** 1000
    assert 0.0 < out["radius"] <= out["radius_upper"]


def test_radius_bounds_of_flat_subspace_compressions():
    # the 3 x 3 compressions C_n = P T^n P of a flat subspace: disc-shaped
    # ranges, the search's worst case, where ||C|| <= 2 w(C) must still
    # not be refuted and the radius must lie inside its own enclosure
    op = BilateralShift()
    cert = flat_subspace(op, 1.5, 3, rng=5)
    basis = cert.basis
    rows = [row for row in cert.per_n if not row["beyond_horizon"]]
    assert rows
    for row in rows:
        c = cross_gram([apply_power(op, b, row["n"]) for b in basis], basis).T
        out = radius_norm_bounds(c)
        assert out["upper_holds"] and out["lower_holds"]
        assert out["radius"] <= out["radius_upper"]
        assert out["norm_lower"] <= row["norm"] <= out["norm_upper"]


def test_zero_matrix_radius_stops_after_the_coarse_pass(monkeypatch):
    # every wedge bound equals the best h = 0, so no split can gain anything
    counts = _count_solves(monkeypatch)
    out = radius_norm_bounds(np.zeros((3, 3)))
    assert out["radius"] == out["radius_upper"] == 0.0
    assert counts["matrices"] <= 12


def test_boundary_matches_the_looped_eigh():
    a = _random_matrix(7, 5)
    b = nr_boundary(a, 100)
    for t, s, p in zip(b.thetas, b.support, b.points):
        vals, vecs = np.linalg.eigh((np.exp(-1j * t) * a + np.exp(1j * t) * a.conj().T) / 2.0)
        x = vecs[:, -1]
        assert s == vals[-1]
        assert abs(p - np.vdot(x, a @ x)) <= 1e-12 * np.linalg.norm(a)


def test_radius_refuses_bad_input():
    for n_angles in (0, -5, 2):
        with pytest.raises(DegenerateInputError):
            numerical_radius(np.eye(2, dtype=complex), n_angles)
    for bad in (np.zeros((0, 0)), np.array([[np.nan, 1.0], [0.0, 0.0]]), np.array([[np.inf]])):
        with pytest.raises(DegenerateInputError):
            numerical_radius(bad)
        with pytest.raises(DegenerateInputError):
            radius_norm_bounds(bad)
        with pytest.raises(DegenerateInputError):
            nr_boundary(bad)
    with pytest.raises(DegenerateInputError):
        DenseOperator([[1.0, np.nan], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# membership witnesses: routes


def _measure_shift_form(x, power):
    """<S^p x, x> for the plain bilateral shift, computed from raw arrays."""
    total = 0j
    pos = {int(i): v for i, v in zip(x.indices, x.values)}
    for i, v in pos.items():
        if i + power in pos:
            total += v * np.conj(pos[i + power])
    return total


def test_power_profile_witness_uses_poisson_route():
    s = BilateralShift()
    lam = 0.5
    mu = [lam ** p for p in range(1, 5)]
    res = we_membership_witness(tuple(OperatorPower(s, p) for p in range(1, 5)), mu, 0.05)
    assert res.route == "poisson"
    assert res.realization == "shift_windows"
    assert np.max(res.defects) <= 0.05
    assert abs(res.vector.norm() - 1.0) < 1e-12
    # independent re-measurement from the raw entries
    for p, target in zip(res.powers, mu):
        got = _measure_shift_form(res.vector, p)
        assert abs(got - target) <= 0.05


def test_generic_targets_use_moment_gadgets():
    s = BilateralShift()
    mu = [0.03 + 0.02j, -0.01j, 0.02]
    res = we_membership_witness(s, mu, 0.01)
    assert res.route == "moment_gadgets"
    assert np.max(res.defects) <= 0.01
    for p, target in zip(res.powers, mu):
        assert abs(_measure_shift_form(res.vector, p) - target) <= 0.01


def test_on_circle_profile_uses_single_eigen_window():
    s = BilateralShift()
    lam = complex(np.exp(1j * 0.7))
    mu = [lam ** p for p in range(1, 4)]
    res = we_membership_witness(tuple(OperatorPower(s, p) for p in range(1, 4)), mu, 0.05)
    assert res.route == "eigen_window"
    assert res.params["atom_count"] == 1
    assert np.max(res.defects) <= 0.05


def test_witness_on_unilateral_shift():
    u = UnilateralShift()
    ops = (u, OperatorPower(u, 2), OperatorPower(u, 3))
    res = we_membership_witness(ops, [0.4, 0.16, 0.064], 0.02)
    assert np.max(res.defects) <= 0.02
    assert np.all(res.vector.indices >= 0)


def test_witness_on_weighted_shift_circle_radius_two():
    s = BilateralShift(weights=ConstantWeights(2.0j))
    lam = 0.8 + 0.2j  # inside the radius-2 circle
    mu = [lam, lam ** 2]
    res = we_membership_witness(tuple(OperatorPower(s, p) for p in range(1, 3)), mu, 0.05)
    assert res.route == "poisson"
    assert np.max(res.defects) <= 0.05


def test_witness_rejects_targets_outside_admissible_radius():
    s = BilateralShift()
    # not a power profile and far above r = 1/(2^2 - 1)
    with pytest.raises(DomainError) as exc:
        we_membership_witness(s, [0.9, 0.1], 0.01)
    assert exc.value.admissible_radius == pytest.approx(1.0 / 3.0)


def test_witness_refuses_dense_and_grid_models():
    with pytest.raises(PreconditionError):
        we_membership_witness(DenseOperator(np.eye(3, dtype=complex)), [0.1], 0.01)
    grid = MultiplicationGrid(8)
    with pytest.raises(PreconditionError):
        we_membership_witness(grid, [0.1], 0.01)


def test_witness_input_validation():
    s = BilateralShift()
    with pytest.raises(DegenerateInputError):
        we_membership_witness(s, [], 0.01)
    with pytest.raises(DegenerateInputError):
        we_membership_witness(s, [0.1], 0.0)
    with pytest.raises(DegenerateInputError):
        we_membership_witness((s, s), [0.1, 0.2], 0.01)  # duplicate power 1
    with pytest.raises(UnsupportedModelError):
        we_membership_witness(
            (s, OperatorPower(UnilateralShift(), 2)), [0.1, 0.2], 0.01
        )
    with pytest.raises(DegenerateInputError):
        we_membership_witness((s,), [0.1, 0.2], 0.01)
    # a phase tolerance below float64 and the fixed-point phases is refused
    d = DiagonalUnitary(QuadraticIrrationalRotation())
    for delta in (1e-60, 1e-200):
        with pytest.raises(DegenerateInputError):
            we_membership_witness(d, [0.1, 0.05j], delta)


def test_witness_budget_cap():
    s = BilateralShift()
    with pytest.raises(WindowBudgetError) as exc:
        we_membership_witness(s, [0.1, 0.05], 0.001, meter=BudgetMeter(10))
    assert exc.value.budget == 10
    assert exc.value.required > 10


def test_witness_reports_its_own_charge_on_a_shared_meter():
    # three witnesses in turn on one meter, as diagonal_compression_subspace
    # builds them: each reports what it stored, not the running total
    s = BilateralShift()
    mu = [(0.4 + 0.1j) ** p for p in range(1, 4)]
    meter = BudgetMeter()
    vectors, charged = [], []
    for _ in range(3):
        before = meter.used
        res = we_membership_witness(s, mu, 0.05, constraints=vectors, meter=meter)
        vectors.append(res.vector)
        charged.append(res.params["entries_charged"])
        assert charged[-1] == meter.used - before
    assert charged == [3840, 3840, 3840]


# ---------------------------------------------------------------------------
# membership witnesses: constraints and orthogonality


def test_witness_orthogonal_to_constraints_and_their_power_images():
    s = BilateralShift()
    c = WindowVector.from_pairs([(0, 1.0), (3, 0.5j), (7, -0.25)])
    ops = (s, OperatorPower(s, 2), OperatorPower(s, 3))
    res = we_membership_witness(ops, [0.3, 0.09, 0.027], 0.02, constraints=[c])
    x = res.vector
    assert inner(x, c) == 0
    for p in range(1, 4):
        assert inner(x, apply_power(s, c, p)) == 0
        assert inner(apply_power(s, x, p), c) == 0
    # support starts beyond the constraint, with a gap covering the powers
    assert int(x.indices[0]) > 7 + 3
    # the windows are the family's: the first starts p_max + 1 above the
    # constraint's last index t = 7, and p_max + 1 empty slots part the next
    m, p_max = res.params["window_length"], 3
    starts = 7 + p_max + 1 + (m + p_max + 1) * np.arange(res.params["atom_count"])
    assert np.array_equal(x.indices, (starts[:, None] + np.arange(m)).ravel())
    # on a diagonal the atoms avoid the constraint's indices, each within
    # delta / (4 p_max) radians of its phase
    d = DiagonalUnitary(QuadraticIrrationalRotation())
    ops = (d, OperatorPower(d, 2), OperatorPower(d, 3))
    res = we_membership_witness(ops, [0.3, 0.09, 0.027], 0.02, constraints=[c])
    assert res.params["phase_tolerance_turns"] <= 0.02 / (8 * math.pi * p_max)
    assert not np.intersect1d(res.vector.indices, c.indices).size
    for p in range(1, 4):
        assert inner(res.vector, apply_power(d, c, p)) == 0


def test_sequential_witnesses_have_disjoint_supports():
    s = BilateralShift()
    first = we_membership_witness(s, [0.2, 0.04], 0.02)
    second = we_membership_witness(s, [0.2, 0.04], 0.02,
                                   constraints=[first.vector])
    overlap = np.intersect1d(first.vector.indices, second.vector.indices)
    assert len(overlap) == 0
    assert inner(first.vector, second.vector) == 0


def test_diagonal_witness_respects_constraint_indices():
    d = DiagonalUnitary(QuadraticIrrationalRotation())
    first = we_membership_witness(d, [0.05 + 0.02j], 0.02)
    second = we_membership_witness(d, [0.05 + 0.02j], 0.02,
                                   constraints=[first.vector])
    overlap = np.intersect1d(first.vector.indices, second.vector.indices)
    assert len(overlap) == 0
    assert np.max(second.defects) <= 0.02


def test_diagonal_witness_measures_against_recomputed_phases():
    d = DiagonalUnitary(QuadraticIrrationalRotation())
    mu = [0.04 - 0.03j, 0.02j]
    res = we_membership_witness(d, mu, 0.02)
    assert res.realization == "diagonal_indices"
    phases = d.phase_rule.phases(res.vector.indices)  # radians
    w = np.abs(res.vector.values) ** 2
    for p, target in zip(res.powers, mu):
        got = np.sum(w * np.exp(1j * p * phases))
        assert abs(got - target) <= 0.02


@settings(max_examples=25, deadline=None)
@given(
    re=st.floats(-0.05, 0.05),
    im=st.floats(-0.05, 0.05),
    seed=st.integers(0, 10),
)
def test_witness_hits_random_small_targets(re, im, seed):
    s = BilateralShift()
    r = _rng(seed)
    second = 0.05 * (r.standard_normal() + 1j * r.standard_normal()) / 2.0
    mu = [complex(re, im), second]
    res = we_membership_witness(s, mu, 0.01)
    assert np.max(res.defects) <= 0.01
    assert abs(res.vector.norm() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# compression subspaces


def test_compression_looks_like_scalar_powers():
    s = BilateralShift()
    lam = 0.4 + 0.1j
    out = diagonal_compression_subspace(s, lam, n=3, dim=3, delta=0.05)
    assert out.passed()
    assert out.subspace.dim == 3
    assert out.gram_defect < 1e-12
    from orbitforge.operators import compress

    for p in range(1, 4):
        comp = compress(OperatorPower(s, p), out.subspace)
        off = comp - np.diag(np.diag(comp))
        assert np.max(np.abs(off)) == 0.0
        assert np.max(np.abs(np.diag(comp) - lam ** p)) <= 0.05


def test_compression_on_diagonal_model():
    d = DiagonalUnitary(QuadraticIrrationalRotation())
    out = diagonal_compression_subspace(d, 0.3, n=2, dim=2, delta=0.05)
    assert out.passed()
    assert out.gram_defect < 1e-12


def test_compression_budget_caps_the_whole_subspace():
    # three witnesses of 3840 stored entries each charge one meter, so the
    # cap is on their sum, not on each witness alone
    s = BilateralShift()
    with pytest.raises(WindowBudgetError, match="11520 stored entries") as exc:
        diagonal_compression_subspace(
            s, 0.4 + 0.1j, 3, dim=3, delta=0.05, window_budget=11519
        )
    assert (exc.value.required, exc.value.budget) == (11520, 11519)
    out = diagonal_compression_subspace(
        s, 0.4 + 0.1j, 3, dim=3, delta=0.05, window_budget=11520
    )
    assert sum(len(v.indices) for v in out.subspace.basis) == 11520


def test_compression_rejects_lambda_outside_circle():
    with pytest.raises(DomainError):
        diagonal_compression_subspace(BilateralShift(), 1.5, n=2, dim=2, delta=0.05)


def test_compression_input_validation():
    with pytest.raises(DegenerateInputError):
        diagonal_compression_subspace(BilateralShift(), 0.3, n=0, dim=2)
    with pytest.raises(DegenerateInputError):
        diagonal_compression_subspace(BilateralShift(), 0.3, n=2, dim=0)


# -- the shift realization against the two-term loop it replaced


def windows_by_loop(terms):
    x = WindowVector.zero()
    for c, window in terms:
        x = x + c * window
    return x


@pytest.mark.parametrize(
    "ops, mu",
    [
        (BilateralShift(), [0.03 + 0.02j, -0.01j, 0.02]),
        (
            tuple(OperatorPower(BilateralShift(), p) for p in range(1, 5)),
            [0.5 ** p for p in range(1, 5)],
        ),
        (tuple(OperatorPower(UnilateralShift(), p) for p in range(1, 4)), [0.4, 0.16, 0.064]),
    ],
)
def test_shift_realization_matches_loop(monkeypatch, ops, mu):
    res = we_membership_witness(ops, mu, 0.05)
    monkeypatch.setattr(nrange, "combine", windows_by_loop)
    ref = we_membership_witness(ops, mu, 0.05)
    assert res.params["atom_count"] > 1
    assert res.vector == ref.vector
    assert np.array_equal(res.measured, ref.measured)
    assert np.array_equal(res.defects, ref.defects)


def test_witness_and_compression_refuse_non_finite_input():
    s = BilateralShift()
    for mu, delta in (([complex("nan")], 0.05), ([0.1], float("inf")), ([0.1], float("nan"))):
        with pytest.raises(DegenerateInputError):
            we_membership_witness(s, mu, delta)
    for lam in (complex("nan"), complex("inf"), 1e200):
        with pytest.raises(DegenerateInputError):
            diagonal_compression_subspace(s, lam, 3)


@pytest.mark.parametrize("mu", [[1e200, 0.0], [1e155, 0.0], [1e120, 1e240, 0.0]])
def test_witness_refuses_targets_whose_power_profile_overflows(mu):
    # the power-profile test forms lam^p, which overflows float64 here
    with pytest.raises(DegenerateInputError, match="overflows"):
        we_membership_witness(BilateralShift(), mu, 0.1)
