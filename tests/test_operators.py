import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbitforge.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    ResolutionError,
)
from orbitforge.operators import (
    BilateralShift,
    ConstantWeights,
    DenseOperator,
    DiagonalUnitary,
    MultiplicationGrid,
    OperatorPower,
    QuadraticIrrationalRotation,
    Subspace,
    UnilateralShift,
    _first_hit,
    apply_power,
    as_power,
    compress,
    operator_from_json,
    spectral_error_bound,
)
from orbitforge.vectors import WindowVector, inner

finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
sparse = st.lists(
    st.tuples(st.integers(-30, 30), st.builds(complex, finite, finite)),
    max_size=10,
).map(WindowVector.from_pairs)


def test_bilateral_shift_moves_basis():
    s = BilateralShift()
    assert s.apply(WindowVector.basis(0)) == WindowVector.basis(1)


def test_unilateral_shift_refuses_negative_support():
    with pytest.raises(DimensionMismatchError):
        UnilateralShift().apply(WindowVector.basis(-1))


def test_weighted_shift_values():
    s = BilateralShift(ConstantWeights(-3.0j))
    v = WindowVector.from_pairs([(0, 1.0), (1, 2.0)])
    w = s.apply(v)
    assert w[1] == -3.0j and w[2] == -6.0j
    assert s.norm_bound() == 3.0


def test_apply_power_fast_path_matches_stepwise():
    s = BilateralShift()
    v = WindowVector.from_pairs([(0, 1.0), (2, -1j)])
    w = apply_power(s, v, 5)
    step = v
    for _ in range(5):
        step = s.apply(step)
    assert w == step


def test_apply_power_weighted_is_stepwise():
    s = UnilateralShift(ConstantWeights(0.5 + 0.25j))
    v = WindowVector.from_pairs([(0, 1.0), (2, -1j)])
    step = v
    for _ in range(3):
        step = s.apply(step)
    assert apply_power(s, v, 3) == step
    assert step[3] == pytest.approx((0.5 + 0.25j) ** 3)


def test_flat_window_gram_identity():
    # x = m^{-1/2} sum_{i<m} lambda^{-i} e_i on the bilateral shift satisfies
    # <S^j x, S^k x> = lambda^{j-k} (1 - |j-k|/m) exactly up to rounding
    m = 64
    lam = complex(np.exp(2j * np.pi * 0.3))
    x = WindowVector.from_pairs(
        (i, lam ** (-i) / math.sqrt(m)) for i in range(m)
    )
    s = BilateralShift()
    orbit = [apply_power(s, x, j) for j in range(4)]
    for j in range(4):
        for k in range(4):
            want = lam ** (j - k) * (1 - abs(j - k) / m)
            assert inner(orbit[j], orbit[k]) == pytest.approx(want, abs=1e-12)


def test_shift_eigenvector_residual_closed_form():
    # the lambda^{-i} window profile cancels interior terms of (S - lambda)x
    # exactly, leaving the two window edges: residual sqrt(2/m)
    m = 128
    lam = complex(np.exp(2j * np.pi * 0.137))
    x = WindowVector.from_pairs((i, lam ** (-i) / math.sqrt(m)) for i in range(m))
    s = BilateralShift()
    r = (s.apply(x) - lam * x).norm()
    assert r == pytest.approx(math.sqrt(2.0 / m), abs=1e-12)


def test_quadratic_irrational_phases_match_float_formula():
    rule = QuadraticIrrationalRotation()  # sqrt(2) - 1
    alpha = math.sqrt(2.0) - 1.0
    ks = np.array([0, 1, 2, 17, -5, 1000], np.int64)
    got = rule.phases(ks)
    want = 2 * np.pi * np.mod(ks * alpha, 1.0)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_quadratic_irrational_frac_exact_consistent():
    rule = QuadraticIrrationalRotation()
    num, den = rule.frac_exact(12345)
    assert 0 <= num < den
    assert rule.phases(np.array([12345]))[0] == pytest.approx(2 * math.pi * num / den)


def test_quadratic_irrational_rejects_rational():
    with pytest.raises(DegenerateInputError):
        QuadraticIrrationalRotation(b=0)
    with pytest.raises(DegenerateInputError):
        QuadraticIrrationalRotation(d=4)


def test_phase_orbit_spreads_out():
    rule = QuadraticIrrationalRotation()
    ph = np.sort(rule.phases(np.arange(4096)))
    gaps = np.diff(np.concatenate([ph, [ph[0] + 2 * np.pi]]))
    # badly approximable rotation: max gap decays like C/N
    assert gaps.max() < 0.01


@given(sparse)
@settings(max_examples=25)
def test_diagonal_unitary_preserves_norm(v):
    t = DiagonalUnitary(QuadraticIrrationalRotation())
    assert t.apply(v).norm() == pytest.approx(v.norm(), abs=1e-9)


def test_multiplication_grid_acts_by_nodes():
    g = MultiplicationGrid(4)
    v = WindowVector.from_pairs([(0, 1.0), (1, 1.0), (2, 1.0)])
    w = g.apply(v)
    assert w[0] == pytest.approx(1.0)
    assert w[1] == pytest.approx(1j)
    assert w[2] == pytest.approx(-1.0)
    with pytest.raises(DimensionMismatchError):
        g.apply(WindowVector.basis(4))


def test_multiplication_grid_embed_uses_measure():
    g = MultiplicationGrid(2, measure=[3.0, 1.0])
    v = g.embed([1.0, 1.0])
    assert v[0] == pytest.approx(math.sqrt(0.75))
    assert v[1] == pytest.approx(math.sqrt(0.25))
    assert v.norm() == pytest.approx(1.0)


def test_dense_operator_matches_matmul():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    op = DenseOperator(a)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = WindowVector.from_dense(x)
    np.testing.assert_allclose(op.apply(v).to_dense(6), a @ x, atol=1e-12)


def test_dense_norm_bound_brackets_true_norm():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = rng.integers(2, 12)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        op = DenseOperator(a)
        true = np.linalg.svd(a, compute_uv=False)[0]
        bound = op.norm_bound()
        assert bound >= true - 1e-12
        assert bound <= true * (1 + 1e-5) + 1e-5


@pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5])
def test_dense_norm_enclosure_holds_across_a_small_singular_gap(gap):
    # sigma_max = 1 with the runner-up 1 - gap: a slow case for power iteration
    rng = np.random.default_rng(16)
    u, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    v, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    sigma = np.concatenate(([1.0, 1.0 - gap], np.linspace(0.9, 0.1, 14)))
    a = (u * sigma) @ v.conj().T
    op = DenseOperator(a)
    assert op.norm_bound() >= 1.0
    lo, hi = op.norm_enclosure()
    assert lo <= 1.0 <= hi
    assert op.norm_bound() == hi
    # sigma +- eps round once each
    assert hi - lo <= 2.0 * spectral_error_bound(op.matrix) + 2.0 * np.spacing(hi)


def test_compress_matches_dense_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    op = DenseOperator(a)
    b, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    sub = Subspace([WindowVector.from_dense(col) for col in b.T])
    want = b.conj().T @ a @ b
    np.testing.assert_allclose(compress(op, sub), want, atol=1e-10)


def test_operator_json_round_trip():
    ops = [
        BilateralShift(),
        BilateralShift(ConstantWeights(2.0)),
        UnilateralShift(ConstantWeights(0.5j)),
        DiagonalUnitary(QuadraticIrrationalRotation(), index_set="N"),
        MultiplicationGrid(3, measure=[1, 2, 3]),
        DenseOperator([[1.0, 2j], [0.0, -1.0]]),
    ]
    v = WindowVector.from_pairs([(0, 1.0), (1, -0.5j)])
    for op in ops:
        clone = operator_from_json(op.to_json())
        assert clone.kind == op.kind
        assert (clone.apply(v) - op.apply(v)).norm() <= 1e-12


def test_power_wrapper_applies_repeatedly():
    s = BilateralShift(weights=ConstantWeights(2.0))
    sq = OperatorPower(s, 3)
    v = WindowVector.from_pairs([(0, 1.0), (2, -1j)])
    want = s.apply(s.apply(s.apply(v)))
    assert (sq.apply(v) - want).norm() == 0
    assert sq.norm_bound() == 8.0


def test_power_wrapper_flattens_and_unwraps():
    s = UnilateralShift()
    nested = OperatorPower(OperatorPower(s, 2), 3)
    assert nested.exponent == 6
    assert nested.base is s
    base, p = as_power(nested)
    assert base is s and p == 6
    base, p = as_power(s)
    assert base is s and p == 1
    with pytest.raises(DegenerateInputError):
        OperatorPower(s, 0)


def test_power_tuple_and_json_round_trip():
    s = BilateralShift()
    tup = (OperatorPower(s, 1), OperatorPower(s, 2), OperatorPower(s, 3))
    assert [as_power(t)[1] for t in tup] == [1, 2, 3]
    assert all(as_power(t)[0] is s for t in tup)
    clone = operator_from_json(OperatorPower(s, 4).to_json())
    v = WindowVector.basis(0)
    assert (clone.apply(v) - WindowVector.basis(4)).norm() == 0


def test_find_index_scan_path_hits_target():
    rule = QuadraticIrrationalRotation()
    num, den = rule.frac_exact(12345)
    target = num / den
    k = rule.find_index(target, 1e-5)
    got_num, got_den = rule.frac_exact(k)
    dist = abs(got_num / got_den - target)
    assert min(dist, 1.0 - dist) <= 1e-5
    assert k >= 1


def test_find_index_bsgs_path_hits_tight_target():
    rule = QuadraticIrrationalRotation()
    num, den = rule.frac_exact(987654)
    target = num / den
    k = rule.find_index(target, 1e-9)
    got_num, got_den = rule.frac_exact(k)
    dist = abs(got_num / got_den - target)
    assert min(dist, 1.0 - dist) <= 1e-9


def test_find_index_exclusion_and_determinism():
    rule = QuadraticIrrationalRotation()
    k1 = rule.find_index(0.25, 1e-4)
    assert rule.find_index(0.25, 1e-4) == k1
    k2 = rule.find_index(0.25, 1e-4, exclude={k1})
    assert k2 != k1
    for k in (k1, k2):
        num, den = rule.frac_exact(k)
        dist = abs(num / den - 0.25)
        assert min(dist, 1.0 - dist) <= 1e-4


def test_find_index_validates_tolerance():
    rule = QuadraticIrrationalRotation()
    with pytest.raises(DegenerateInputError):
        rule.find_index(0.5, 0.0)


# -- the exact phase search against brute force


def brute_first_hit(a, m, center, tau, start):
    # residues repeat with period m, so one period past start decides
    for k in range(start, start + m):
        e = (a * k - center) % m
        if min(e, m - e) <= tau:
            return k
    return None


@st.composite
def arcs(draw):
    m = draw(st.integers(1, 300))
    a = draw(st.integers(0, m - 1))
    center = draw(st.integers(0, m - 1))
    # tau = 0, narrow arcs, any arc, and arcs of at least m - 1 residues
    tau = draw(st.just(0) | st.integers(0, 5) | st.integers(0, m) | st.integers(m // 2, m))
    start = draw(st.integers(0, 2 * m))
    return a, m, center, tau, start


@settings(max_examples=400, deadline=None)
@given(arcs())
@example((5, 13, 1, 2, 0))  # arc wraps past residue 0
@example((5, 13, 12, 1, 3))  # wraps from the top
@example((7, 20, 9, 0, 1))  # tau = 0
@example((7, 20, 9, 10, 4))  # 2*tau >= m - 1: every residue hits
@example((4, 12, 6, 1, 0))  # gcd 4: no multiple of 4 within 1 of 6
@example((233, 377, 100, 0, 0))  # consecutive Fibonacci numbers: deepest descent
def test_first_hit_matches_brute_force(arc):
    assert _first_hit(*arc) == brute_first_hit(*arc)


def residue_hits(rule, target, tol, count):
    """The first `count` indices k >= 1 within tol of target, tested k by k."""
    _, den = rule.frac_exact(0)
    t_res, tau = int(target * den), int(tol * den)
    hits, k = [], 0
    while len(hits) < count:
        k += 1
        e = (rule.frac_exact(k)[0] - t_res) % den
        if min(e, den - e) <= tau:
            hits.append(k)
    return hits


rules = st.sampled_from([(-1, 1, 1, 2), (1, 1, 2, 5), (2, -3, 7, 11)])


@settings(max_examples=40, deadline=None)
@given(rules, st.floats(0.0, 1.0, exclude_max=True), st.floats(1e-3, 1e-2))
def test_find_index_returns_the_smallest_hit(abcd, target, tol):
    rule = QuadraticIrrationalRotation(*abcd)
    first, second, third = residue_hits(rule, target, tol, 3)
    assert rule.find_index(target, tol) == first
    assert rule.find_index(target, tol, k_max=first) == first
    assert rule.find_index(target, tol, exclude={first}) == second
    assert rule.find_index(target, tol, exclude=range(1, second + 1)) == third
    with pytest.raises(ResolutionError):
        rule.find_index(target, tol, k_max=first - 1)
    with pytest.raises(ResolutionError):
        rule.find_index(target, tol, k_max=second, exclude={first, second})


def test_find_index_wide_tolerance_takes_the_first_free_index():
    rule = QuadraticIrrationalRotation()
    assert rule.find_index(0.3, 0.5) == 1
    assert rule.find_index(0.8, 0.5) == 1
    assert rule.find_index(0.3, 0.5, exclude={1, 2, 4}) == 3
    assert rule.find_index(0.3, 1e300, exclude={1}) == 2


@pytest.mark.parametrize(
    "target, tol",
    [(math.nan, 1e-3), (math.inf, 1e-3), (0.2, math.nan), (0.2, math.inf), (0.2, -1e-3)],
)
def test_find_index_rejects_non_finite_input(target, tol):
    with pytest.raises(DegenerateInputError):
        QuadraticIrrationalRotation().find_index(target, tol)
