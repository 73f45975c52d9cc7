import cmath
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from orbitforge.errors import (
    DegenerateInputError,
    DomainError,
    UnsupportedModelError,
    WindowBudgetError,
)
from orbitforge.operators import (
    BilateralShift,
    ConstantWeights,
    DenseOperator,
    DiagonalUnitary,
    FunctionWeights,
    MultiplicationGrid,
    PeriodicPhases,
    PeriodicWeights,
    QuadraticIrrationalRotation,
    UnilateralShift,
)
from orbitforge.spectra import (
    Region,
    approx_eigenvector,
    approx_eigenvector_family,
    circle_in_pi_essential,
    circle_region,
    dense_spectrum,
    disk_region,
    grid_eigen_vector,
    hull_contains_zero,
    orbit_to_approx_eigenvector,
    point_region,
    polynomial_hull,
    region_from_json,
    shift_eigen_window,
    spectral_descriptor,
)
from orbitforge.vectors import BudgetMeter, WindowVector, inner, normalize
from orbitforge.witness import almost_orthogonal_orbit


# -- regions ------------------------------------------------------------


def test_region_membership():
    c = circle_region(2.0)
    assert c.contains_point(2j)
    assert not c.contains_point(1.9 + 0j)
    a = Region("annulus", r_in=1.0, r_out=2.0)
    assert a.contains_circle(1.5)
    assert not a.contains_circle(0.5)
    d = disk_region(1.0)
    assert d.contains_circle(0.3) and d.contains_circle(1.0)
    pts = point_region([1.0, 1j])
    assert pts.contains_point(1j)
    assert not pts.contains_circle(1.0)


def test_polynomial_hull_fills_holes():
    assert polynomial_hull(circle_region(1.0)) == disk_region(1.0)
    assert polynomial_hull(Region("annulus", r_in=0.5, r_out=2.0)) == disk_region(2.0)
    pts = point_region([1.0, -1.0])
    assert polynomial_hull(pts) == pts  # finite sets are their own hull
    assert hull_contains_zero(circle_region(1.0))
    assert not hull_contains_zero(pts)


def test_region_json_round_trip():
    for r in [
        circle_region(0.5),
        disk_region(2.0),
        Region("annulus", r_in=1.0, r_out=3.0),
        point_region([1 + 2j, -1j]),
        Region("empty"),
    ]:
        assert region_from_json(r.to_json()) == r


def test_region_validation():
    with pytest.raises(DegenerateInputError):
        Region("blob")
    with pytest.raises(DegenerateInputError):
        Region("annulus", r_in=2.0, r_out=1.0)


# -- catalogue descriptors ---------------------------------------------


def test_bilateral_shift_descriptor():
    info = spectral_descriptor(BilateralShift())
    for region in (info.sigma, info.sigma_pi, info.sigma_e, info.sigma_pi_e):
        assert region == circle_region(1.0)


def test_unilateral_shift_descriptor():
    info = spectral_descriptor(UnilateralShift())
    assert info.sigma == disk_region(1.0)
    assert info.sigma_pi == circle_region(1.0)
    assert info.sigma_e == circle_region(1.0)
    assert info.sigma_pi_e == circle_region(1.0)


def test_weighted_shift_descriptors():
    assert spectral_descriptor(
        BilateralShift(ConstantWeights(2j))
    ).sigma == circle_region(2.0)
    # geometric mean of |1| and |4| is 2
    assert spectral_descriptor(
        BilateralShift(PeriodicWeights([1.0, 4.0]))
    ).sigma == circle_region(2.0)
    fw = FunctionWeights(
        lambda i: 1.0 + 0.5 ** np.abs(i),
        sup_modulus=2.0,
        limit_neg=1.0,
        limit_pos=1.0,
        inf_modulus=1.0,
    )
    assert spectral_descriptor(BilateralShift(fw)).sigma_e == circle_region(1.0)


def test_weighted_shift_catalogue_refusals():
    unequal = FunctionWeights(
        lambda i: np.where(i < 0, 1.0, 2.0),
        sup_modulus=2.0,
        limit_neg=1.0,
        limit_pos=2.0,
        inf_modulus=1.0,
    )
    with pytest.raises(UnsupportedModelError):
        spectral_descriptor(BilateralShift(unequal))
    no_inf = FunctionWeights(
        lambda i: np.ones(len(i)), sup_modulus=1.0, limit_neg=1.0, limit_pos=1.0
    )
    with pytest.raises(UnsupportedModelError):
        spectral_descriptor(BilateralShift(no_inf))


def test_diagonal_unitary_descriptors():
    dense = spectral_descriptor(DiagonalUnitary(QuadraticIrrationalRotation()))
    assert dense.sigma_pi_e == circle_region(1.0)
    finite = spectral_descriptor(DiagonalUnitary(PeriodicPhases([0.0, np.pi])))
    assert finite.sigma.kind == "points"
    assert finite.sigma.contains_point(1.0) and finite.sigma.contains_point(-1.0)
    assert len(finite.sigma.points) == 2


def test_multiplication_grid_descriptor():
    info = spectral_descriptor(MultiplicationGrid(4))
    assert info.sigma.kind == "points"
    assert info.sigma.contains_point(1j)
    assert info.sigma_e.kind == "empty"
    assert not hull_contains_zero(info.sigma)


def test_dense_descriptor_uses_eigenvalues():
    a = np.diag([1.0, 2.0, 3.0])
    info = spectral_descriptor(DenseOperator(a))
    assert info.sigma.kind == "points"
    assert info.sigma.contains_point(2.0, tol=1e-8)
    assert info.sigma_e.kind == "empty"


# -- inclusion rule ------------------------------------------------------


def test_circle_in_pi_essential_routes():
    ok, route = circle_in_pi_essential(BilateralShift())
    assert ok and route == "catalogue+hull"
    ok, route = circle_in_pi_essential(UnilateralShift())
    assert ok and route == "catalogue+hull"
    ok, route = circle_in_pi_essential(DiagonalUnitary(PeriodicPhases([0.0, 1.0])))
    assert not ok and route == "none"
    ok, _ = circle_in_pi_essential(BilateralShift(), radius=0.5)
    assert not ok


# -- approximate eigenvectors (falsify the catalogue claims) -------------


def test_eigen_window_residual_matches_claim():
    s = BilateralShift()
    lam = complex(np.exp(0.7j))
    for m in (16, 256):
        x = shift_eigen_window(s, lam, m)
        assert x.norm() == pytest.approx(1.0, abs=1e-12)
        res = (s.apply(x) - lam * x).norm()
        assert res == pytest.approx(math.sqrt(2.0 / m), abs=1e-12)


def test_eigen_window_weighted_shift():
    s = UnilateralShift(ConstantWeights(2j))
    lam = 2.0 * complex(np.exp(1.3j))
    x = shift_eigen_window(s, lam, 100, start=5)
    res = (s.apply(x) - lam * x).norm()
    assert res == pytest.approx(2.0 * math.sqrt(2.0 / 100), abs=1e-10)


def test_eigen_window_rejects_off_circle_targets():
    with pytest.raises(DegenerateInputError):
        shift_eigen_window(BilateralShift(), 0.5, 10)


def root_of_unity(p, q):
    """e^{2 pi i p/q} for q dividing 16, each part correctly rounded.

    Built by p 16/q rotations through pi/8 in 40-digit decimals: the float
    cmath.exp(2j * math.pi * p / q) rounds its argument first and is off the
    root by up to 7e-16 rad, which k = 32767 alone turns into 2.2e-11."""
    two = Decimal(2)
    c, s = (two + two.sqrt()).sqrt() / 2, (two - two.sqrt()).sqrt() / 2
    re, im = Decimal(1), Decimal(0)
    for _ in range(16 // q * p):
        re, im = re * c - im * s, re * s + im * c
    return complex(float(re), float(im))


@pytest.mark.parametrize("q", [4, 8, 16])
def test_eigen_window_at_roots_of_unity_matches_the_exact_table(q):
    m = 32768
    k = np.arange(m)
    with localcontext() as ctx:
        ctx.prec = 40
        lams = [root_of_unity(p, q) for p in range(q)]
    for p, lam in enumerate(lams):
        x = shift_eigen_window(BilateralShift(), lam, m)
        # phases reduced mod q in integers: the table itself has no drift
        table = np.exp(-2j * np.pi * ((p * k) % q) / q)
        assert np.abs(math.sqrt(m) * x.to_dense(m) - table).max() <= 1e-11, p


def test_eigen_window_keeps_the_modulus_off_the_unit_ratio():
    # |lam / w| = 1 - 1e-13 passes the 1e-12 circle gate; over 32768 entries
    # |lam / w|^-k grows by 3.3e-9, which a unit-modulus profile would lose
    w = 2.0 * cmath.exp(0.3j)
    lam = w * (1.0 - 1e-13) * cmath.exp(1.1j)
    m = 32768
    x = shift_eigen_window(BilateralShift(ConstantWeights(w)), lam, m)
    r = Decimal(abs(lam / w))
    assert abs(r - 1) < Decimal("1.01e-13")
    with localcontext() as ctx:
        ctx.prec = 40
        for k in [*range(0, m, 61), m - 1]:
            want = float(r ** -k / Decimal(m).sqrt())
            assert abs(abs(x[k]) - want) <= 1e-15 * want, k
    assert abs(x[m - 1]) * math.sqrt(m) > 1.0 + 3e-9


def test_unilateral_interior_points_are_not_approx_eigenvalues():
    # 0.5 lies in sigma but not sigma_pi: S - 0.5 is bounded below by 0.5
    s = UnilateralShift()
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = WindowVector.from_dense(
            rng.standard_normal(30) + 1j * rng.standard_normal(30)
        )
        res = (s.apply(v) - 0.5 * v).norm()
        assert res >= 0.5 * v.norm() - 1e-9


def test_grid_eigen_vector_is_exact():
    g = MultiplicationGrid(8)
    v = grid_eigen_vector(g, 3)
    lam = complex(np.exp(2j * np.pi * 3 / 8))
    assert (g.apply(v) - lam * v).norm() <= 1e-15


# -- dense eigenvalues ----------------------------------------------------


def assert_same_multiset(got, want, tol):
    got = sorted(got, key=lambda z: (z.real, z.imag))
    want = sorted(want, key=lambda z: (z.real, z.imag))
    assert len(got) == len(want)
    # nearest-neighbor matching after sorting can still mismatch ties, so
    # greedily match each wanted eigenvalue to the closest remaining one
    remaining = list(got)
    for w in want:
        dists = [abs(w - g) for g in remaining]
        k = int(np.argmin(dists))
        assert dists[k] <= tol, f"eigenvalue {w} unmatched, nearest at {dists[k]:.2e}"
        remaining.pop(k)


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (8, 2), (24, 3), (64, 4)])
def test_dense_spectrum_matches_numpy(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    eigs, cert = dense_spectrum(a)
    assert cert["backward_error"] <= 1e-8
    assert_same_multiset(eigs, np.linalg.eigvals(a), tol=1e-6 * np.linalg.norm(a))


def test_dense_spectrum_hermitian_and_unitary():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    herm = (b + b.conj().T) / 2
    eigs, _ = dense_spectrum(herm)
    assert np.max(np.abs(eigs.imag)) <= 1e-8
    assert_same_multiset(eigs, np.linalg.eigvalsh(herm).astype(complex), tol=1e-7)
    uni, _ = np.linalg.qr(b)
    eigs, _ = dense_spectrum(uni)
    assert np.max(np.abs(np.abs(eigs) - 1.0)) <= 1e-8


def test_dense_spectrum_defective_matrix():
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    eigs, cert = dense_spectrum(jordan)
    np.testing.assert_allclose(eigs, [0.0, 0.0], atol=1e-12)
    assert cert["backward_error"] <= 1e-12


def test_dense_spectrum_repeated_eigenvalues():
    a = np.diag([2.0, 2.0, 1.0]).astype(complex)
    a[0, 2] = 5.0
    eigs, _ = dense_spectrum(a)
    assert_same_multiset(eigs, [1.0, 2.0, 2.0], tol=1e-9)


@pytest.mark.parametrize("k", [8, 16])
def test_dense_spectrum_vouches_for_jordan_blocks_and_their_similarity_transforms(k):
    jordan = np.eye(k, k=1, dtype=complex)
    rng = np.random.default_rng(k)
    s = np.eye(k) + 0.3 * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    for a in (jordan, s @ jordan @ np.linalg.inv(s)):
        eigs, cert = dense_spectrum(a)
        line = cert["check"]
        assert line.label == "eigen_backward_error" and line.passed
        assert line.measured == cert["backward_error"] <= line.bound == 1e-8
        assert len(eigs) == k


def test_dense_spectrum_cap_and_validation():
    with pytest.raises(UnsupportedModelError):
        dense_spectrum(np.eye(513))
    with pytest.raises(DegenerateInputError):
        dense_spectrum(np.zeros((2, 3)))


# -- approximate eigenvectors ------------------------------------------------


def test_approx_eigenvector_residual_closed_form():
    # triangular window profile: residual is |lam| sqrt(2/m) on the nose
    op = BilateralShift()
    for m in (16, 256, 4096):
        pair = approx_eigenvector(op, 1j, m)
        assert pair.vector.norm() == pytest.approx(1.0, abs=1e-12)
        assert pair.residual == pytest.approx(math.sqrt(2.0 / m), rel=1e-12)
        lo, hi = pair.vector.support_range()
        assert hi - lo + 1 == m


@pytest.mark.parametrize("k", range(0, 32, 5))
def test_approx_eigenvector_any_circle_point(k):
    op = UnilateralShift(ConstantWeights(0.5j))
    lam = 0.5 * np.exp(2j * math.pi * k / 32)
    pair = approx_eigenvector(op, lam, 64, start=3)
    assert pair.residual == pytest.approx(0.5 * math.sqrt(2.0 / 64), rel=1e-12)
    assert pair.vector.support_range()[0] == 3
    img = op.apply(pair.vector) - lam * pair.vector
    assert img.norm() == pytest.approx(pair.residual, abs=1e-15)


def test_approx_eigenvector_rejects_wrong_modulus():
    with pytest.raises(DomainError):
        approx_eigenvector(BilateralShift(), 0.5, 32)
    with pytest.raises(DegenerateInputError):
        approx_eigenvector(BilateralShift(), 1.0, 1)


def test_approx_eigenvector_refuses_a_modulus_the_window_refuses():
    # 1e-10 off the circle: the window's 1e-12 test would refuse it, so the
    # shift branch refuses it first, as a domain error with both moduli
    with pytest.raises(DomainError) as exc:
        approx_eigenvector(BilateralShift(), 1 + 1e-10, 8)
    assert repr(abs(1 + 1e-10)) in str(exc.value) and "1.0" in str(exc.value)
    with pytest.raises(DomainError):
        approx_eigenvector(UnilateralShift(ConstantWeights(2j)), 2 - 1e-10, 8)
    assert approx_eigenvector(BilateralShift(), np.exp(0.3j), 8).residual > 0


def test_approx_eigenvector_diagonal_picks_nearest_phase():
    rot = QuadraticIrrationalRotation(2)
    op = DiagonalUnitary(rot)
    lam = np.exp(2j * math.pi * 0.3)
    pair = approx_eigenvector(op, lam, 2048, start=-1024)
    k, _ = pair.vector.support_range()
    assert pair.vector[k] == pytest.approx(1.0)
    # basis vectors are exact eigenvectors at their own phase
    phase = rot.phases(np.array([k]))[0]
    assert pair.residual == pytest.approx(abs(np.exp(1j * phase) - lam), abs=1e-15)


def test_family_cross_grams_vanish_exactly():
    op = BilateralShift()
    lambdas = np.exp(2j * math.pi * np.arange(6) / 6)
    vecs = approx_eigenvector_family(op, lambdas, 32, margin=7)
    assert all(isinstance(v, WindowVector) for v in vecs)
    # orbit images up to the margin stay supported inside the padding gap
    for a in range(6):
        for b in range(a + 1, 6):
            ua, ub = vecs[a], vecs[b]
            for j in range(8):
                assert inner(ua, ub) == 0.0
                ua = op.apply(ua)
                ub = op.apply(ub)  # same power on both sides each round


def test_family_respects_constraints_and_budget():
    op = UnilateralShift()
    c = WindowVector.basis(11)
    meter = BudgetMeter(32)
    fam = approx_eigenvector_family(
        op, [1.0, -1.0], 16, margin=3, constraints=[c], meter=meter
    )
    assert fam[0].support_range() == (15, 15 + 15)
    assert fam[1].support_range()[0] == 15 + 16 + 4
    assert meter.used == 32
    with pytest.raises(WindowBudgetError) as exc:
        approx_eigenvector_family(op, [1.0, -1.0], 16, meter=BudgetMeter(31))
    assert (exc.value.required, exc.value.budget) == (32, 31)


def test_family_diagonal_distinct_indices():
    op = DiagonalUnitary(QuadraticIrrationalRotation(3))
    lambdas = np.exp(2j * math.pi * np.arange(4) / 4)
    fam = approx_eigenvector_family(op, lambdas, 10**8)
    ks = [v.support_range()[0] for v in fam]
    assert len(set(ks)) == 4
    tol = math.sqrt(2.0 / 10**8)
    for lam, v in zip(lambdas, fam):
        assert (op.apply(v) - lam * v).norm() <= tol + 1e-15


@pytest.mark.parametrize(
    "lam", [0.5, complex("nan"), 1.0 + 1e-10], ids=["inside", "nan", "just-off"]
)
def test_family_shift_branch_refuses_an_off_circle_lambda(lam):
    # the windows' unit norm holds only on the circle, so the shift branch
    # refuses like approx_eigenvector does, before shift_eigen_window can
    with pytest.raises(DomainError, match="not on the spectral circle"):
        approx_eigenvector_family(BilateralShift(), [1.0, lam], 8)


def test_orbit_folding_on_exact_eigenvector():
    op = DiagonalUnitary(QuadraticIrrationalRotation(2))
    x = WindowVector.basis(0)  # phase 0: exact fixed vector
    pair = orbit_to_approx_eigenvector(op, x, 1.0, 5)
    assert pair.residual == pytest.approx(0.0, abs=1e-14)
    assert pair.raw_norm == pytest.approx(5.0, rel=1e-12)
    assert (pair.vector - x).norm() == pytest.approx(0.0, abs=1e-12)


def test_orbit_folding_single_term_returns_start():
    op = BilateralShift()
    x = WindowVector.basis(2)
    pair = orbit_to_approx_eigenvector(op, x, 1j, 1)
    assert (pair.vector - x).norm() == 0.0
    assert pair.raw_norm == pytest.approx(1.0)
    assert pair.residual == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_orbit_folding_validation():
    op = BilateralShift()
    with pytest.raises(DomainError):
        orbit_to_approx_eigenvector(op, WindowVector.basis(0), 0.5, 3)
    with pytest.raises(DegenerateInputError):
        orbit_to_approx_eigenvector(op, 2.0 * WindowVector.basis(0), 1.0, 3)
    with pytest.raises(DegenerateInputError):
        orbit_to_approx_eigenvector(op, WindowVector.basis(0), 1.0, 0)


def test_nan_eigenvalues_are_refused():
    nan = complex("nan")
    with pytest.raises(DegenerateInputError):
        shift_eigen_window(BilateralShift(), nan, 8)
    diagonal = DiagonalUnitary(QuadraticIrrationalRotation(2))
    for op in (BilateralShift(), diagonal, MultiplicationGrid(16)):
        with pytest.raises(DomainError):
            approx_eigenvector(op, nan, 8)
    with pytest.raises(DomainError):
        approx_eigenvector_family(diagonal, [nan], 8)
    with pytest.raises(DomainError):
        orbit_to_approx_eigenvector(BilateralShift(), WindowVector.basis(0), nan, 3)


# -- the orbit fold against the two-term loop it replaced


def fold_by_loop(op, x, lam, n):
    """y = sum_j lam^{-j} T^j x, one add_scaled merge per term."""
    y = x
    cur = x
    for j in range(1, n):
        cur = op.apply(cur)
        y = y + lam ** (-j) * cur
    return y


def assert_fold_matches_loop(op, x, lam, n):
    pair = orbit_to_approx_eigenvector(op, x, lam, n)
    y = fold_by_loop(op, x, lam, n)
    raw_norm = y.norm()
    assert pair.raw_norm == raw_norm
    assert pair.vector == y * (1.0 / raw_norm)
    assert pair.residual == (op.apply(y) - lam * y).norm() / raw_norm


@pytest.mark.parametrize("n", [4, 8, 16])
def test_orbit_fold_matches_loop_at_every_root(n):
    op = BilateralShift()
    x = almost_orthogonal_orbit(op, n, 0.5).x
    for k in range(n):
        assert_fold_matches_loop(op, x, cmath.exp(2j * math.pi * k / n), n)


def test_orbit_fold_matches_loop_on_other_models():
    rng = np.random.default_rng(7)
    # contiguous start (slice adds), then a strided one (fancy-index adds)
    dense = normalize(WindowVector.from_dense(rng.normal(size=40) + 1j * rng.normal(size=40)))
    strided = WindowVector(np.arange(0, 90, 3), rng.normal(size=30) + 1j * rng.normal(size=30))
    strided = normalize(strided)
    lam = cmath.exp(0.7j)
    assert_fold_matches_loop(BilateralShift(ConstantWeights(0.8j)), dense, lam, 8)
    assert_fold_matches_loop(UnilateralShift(), strided, lam, 8)
    diagonal = DiagonalUnitary(QuadraticIrrationalRotation(2))
    x = almost_orthogonal_orbit(diagonal, 4, 0.25).x
    assert_fold_matches_loop(diagonal, x, 1j, 4)
