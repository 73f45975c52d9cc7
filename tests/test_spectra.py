import cmath
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from orbitforge.errors import (
    DegenerateInputError,
    DomainError,
    PreconditionError,
    UnsupportedModelError,
    WindowBudgetError,
)
from orbitforge.operators import (
    BilateralShift,
    ConstantWeights,
    DenseOperator,
    DiagonalUnitary,
    MultiplicationGrid,
    OperatorPower,
    QuadraticIrrationalRotation,
    UnilateralShift,
)
from orbitforge.spectra import (
    approx_eigenvector_family,
    circle_radius,
    orbit_to_approx_eigenvector,
    shift_eigen_window,
)
from orbitforge.vectors import BudgetMeter, WindowVector, inner, normalize
from orbitforge.witness import almost_orthogonal_orbit


# -- the essential circle -------------------------------------------------


def test_circle_radius_of_a_shift_is_its_weight_modulus():
    assert circle_radius(BilateralShift()) == 1.0
    assert circle_radius(UnilateralShift()) == 1.0
    assert circle_radius(BilateralShift(ConstantWeights(2j))) == 2.0
    assert circle_radius(UnilateralShift(ConstantWeights(0.5j))) == 0.5


def test_circle_radius_of_a_dense_phase_orbit_is_one():
    for d in (2, 5):
        op = DiagonalUnitary(QuadraticIrrationalRotation(d=d))
        assert circle_radius(op) == 1.0


def test_circle_radius_refuses_finite_dimension_and_other_models():
    # the essential approximate point spectrum is empty in finite dimension
    for op in (MultiplicationGrid(16), DenseOperator(np.eye(4)), DenseOperator(np.eye(600))):
        with pytest.raises(PreconditionError, match="empty in finite dimension"):
            circle_radius(op)
    with pytest.raises(UnsupportedModelError):
        circle_radius(OperatorPower(BilateralShift(), 2))


# -- eigen windows -------------------------------------------------------


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


# -- approximate eigenvectors ------------------------------------------------


def test_family_residual_closed_form():
    # the window profile's residual is |lam| sqrt(2/m) on the nose
    op = BilateralShift()
    for m in (16, 256, 4096):
        (u,) = approx_eigenvector_family(op, [1j], m)
        assert u.norm() == pytest.approx(1.0, abs=1e-12)
        assert (op.apply(u) - 1j * u).norm() == pytest.approx(math.sqrt(2.0 / m), rel=1e-12)
        lo, hi = u.support_range()
        assert hi - lo + 1 == m


@pytest.mark.parametrize("k", range(0, 32, 5))
def test_family_any_circle_point(k):
    op = UnilateralShift(ConstantWeights(0.5j))
    lam = 0.5 * np.exp(2j * math.pi * k / 32)
    # a constraint at 0 with margin 2 starts the window at index 3
    (u,) = approx_eigenvector_family(
        op, [lam], 64, margin=2, constraints=[WindowVector.basis(0)]
    )
    assert u.support_range()[0] == 3
    residual = (op.apply(u) - lam * u).norm()
    assert residual == pytest.approx(0.5 * math.sqrt(2.0 / 64), rel=1e-12)


def test_family_rejects_wrong_modulus():
    with pytest.raises(DomainError):
        approx_eigenvector_family(BilateralShift(), [0.5], 32)
    with pytest.raises(DegenerateInputError):
        approx_eigenvector_family(BilateralShift(), [1.0], 1)


def test_family_refuses_a_modulus_the_window_refuses():
    # 1e-10 off the circle: the window's 1e-12 test would refuse it, so the
    # shift branch refuses it first, as a domain error with both moduli
    with pytest.raises(DomainError) as exc:
        approx_eigenvector_family(BilateralShift(), [1 + 1e-10], 8)
    assert repr(abs(1 + 1e-10)) in str(exc.value) and "1.0" in str(exc.value)
    with pytest.raises(DomainError):
        approx_eigenvector_family(UnilateralShift(ConstantWeights(2j)), [2 - 1e-10], 8)
    (u,) = approx_eigenvector_family(BilateralShift(), [np.exp(0.3j)], 8)
    assert (BilateralShift().apply(u) - np.exp(0.3j) * u).norm() > 0


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
    # refuses with a domain error, before shift_eigen_window can
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
    for op in (BilateralShift(), diagonal):
        with pytest.raises(DomainError):
            approx_eigenvector_family(op, [nan], 8)
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
