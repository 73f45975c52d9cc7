import cmath
import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbitforge import vectors
from orbitforge.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    WindowBudgetError,
)
from orbitforge.vectors import (
    BudgetMeter,
    DEFAULT_WINDOW_BUDGET,
    WINDOW_BUDGET_ENV,
    WindowVector,
    add_scaled,
    combine,
    cross_gram,
    gram,
    inner,
    normalize,
    vector_to_json,
    window_budget,
)


def entries(*pairs):
    return WindowVector.from_pairs(pairs)


def test_basis_and_getitem():
    e = WindowVector.basis(-3)
    assert e[-3] == 1.0
    assert e[0] == 0.0
    assert e.norm() == 1.0


def test_from_pairs_merges_duplicates():
    v = entries((2, 1.0), (0, 1j), (2, 0.5))
    assert list(v.indices) == [0, 2]
    assert v[2] == 1.5


def test_exact_zeros_pruned_inexact_kept():
    v = entries((0, 0.0), (1, 1e-300))
    assert list(v.indices) == [1]
    assert v[1] == 1e-300


def test_scale_by_drops_exact_zeros_and_shares_indices_otherwise():
    u = entries((0, 1.0), (3, -2j), (7, 0.5))
    assert u.scale_by(lambda idx: np.zeros(len(idx))) == WindowVector.zero()
    assert u.scale_by(lambda idx: (idx != 3).astype(float)) == entries((0, 1.0), (7, 0.5))
    assert u.scale_by(lambda idx: np.full(len(idx), 2.0)).indices is u.indices


def test_strictly_increasing_required():
    with pytest.raises(DegenerateInputError):
        WindowVector([1, 1], [1.0, 2.0])


def test_inner_linear_in_first_slot():
    u = entries((0, 2.0), (5, 1j))
    v = entries((0, 1.0), (5, 3.0))
    a = 2.0 - 1j
    assert inner(a * u, v) == pytest.approx(a * inner(u, v))
    assert inner(u, a * v) == pytest.approx(np.conj(a) * inner(u, v))


def test_inner_disjoint_windows_exactly_zero():
    u = entries((0, 0.3), (1, 0.7))
    v = entries((10, 0.3), (11, 0.7))
    assert inner(u, v) == 0j


def test_translate_exact_and_overflow_guard():
    v = entries((0, 1.0), (4, 2.0))
    w = v.translate(10 ** 12)
    assert list(w.indices) == [10 ** 12, 10 ** 12 + 4]
    assert np.array_equal(w.values, v.values)
    with pytest.raises(DimensionMismatchError):
        v.translate(2 ** 62)


def test_chained_translates_share_the_base_and_add_the_offsets():
    v = entries((-3, 1.0), (0, 2j), (5, -0.5))
    for k1, k2 in ((7, -2), (10 ** 12, -(10 ** 12) + 1), (-4, 4)):
        w = v.translate(k1).translate(k2)
        assert np.shares_memory(w._base, v.indices)
        assert w.indices.tobytes() == (v.indices + (k1 + k2)).tobytes()
        assert w.values is v.values and w._memo is v._memo


def test_composed_translate_guards_the_index_limit():
    v = entries((0, 1.0), (4, 2.0))
    near = v.translate(LIMIT - 10)
    assert near.support_range() == (LIMIT - 10, LIMIT - 6)
    with pytest.raises(DimensionMismatchError):
        near.translate(6)
    with pytest.raises(DimensionMismatchError):
        v.translate(-(LIMIT // 2)).translate(-(LIMIT // 2))
    # the guard reads the composed offset, not the base array's indices
    back = near.translate(-(LIMIT - 10))
    assert back.indices.tolist() == [0, 4]


def test_a_shift_orbit_allocates_no_index_arrays():
    from orbitforge.operators import BilateralShift

    m = 1 << 19
    x = WindowVector(np.arange(m, dtype=np.int64), np.full(m, 1.0 + 0j))
    shift, orbit = BilateralShift(), [x]
    tracemalloc.start()
    try:
        for _ in range(16):
            orbit.append(shift.apply(orbit[-1]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one index array is 4 MB; a translate that copied it would write sixteen
    assert peak < x.indices.nbytes
    assert orbit[-1].support_range() == (16, m + 15)


def test_constructors_reject_indices_beyond_the_limit():
    # the first pair is out of order, but its int64 difference wraps positive
    for indices in ([4611686018427388022, -4611686018427387865], [2 ** 62 + 5], [-(2 ** 62)]):
        with pytest.raises(DimensionMismatchError):
            WindowVector(indices, [1.0] * len(indices))
        with pytest.raises(DimensionMismatchError):
            WindowVector.from_pairs((i, 1.0) for i in indices)
    edge = WindowVector([-(2 ** 62) + 1, 2 ** 62 - 1], [1.0, 1.0])
    assert edge.indices.tolist() == [-(2 ** 62) + 1, 2 ** 62 - 1]


def test_constructors_reject_indices_beyond_int64():
    for index in (2 ** 63, -(2 ** 63) - 1, 2 ** 64):
        with pytest.raises(DimensionMismatchError):
            WindowVector([index], [1.0])
        with pytest.raises(DimensionMismatchError):
            WindowVector.from_pairs([(index, 1.0)])


def test_to_dense_window_check():
    v = entries((2, 1.0), (3, -1.0))
    np.testing.assert_array_equal(v.to_dense(4), [0, 0, 1, -1])
    with pytest.raises(DimensionMismatchError):
        v.to_dense(3)


def test_normalize_zero_refused():
    with pytest.raises(DegenerateInputError):
        normalize(WindowVector.zero())


def test_vector_json_entries_are_index_re_im():
    v = entries((-1, 0.25 + 0.5j), (7, -3.0))
    blob = json.loads(json.dumps(vector_to_json(v, kind="test")))
    assert blob == {"kind": "test", "params": {}, "entries": [[-1, 0.25, 0.5], [7, -3.0, 0.0]]}


def test_storage_is_frozen():
    v = entries((0, 1.0))
    with pytest.raises(ValueError):
        v.values[0] = 2.0


finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
sparse = st.lists(
    st.tuples(st.integers(-50, 50), st.builds(complex, finite, finite)),
    max_size=12,
).map(WindowVector.from_pairs)


@given(sparse, sparse, sparse)
def test_inner_additive_in_first_slot(u, v, w):
    lhs = inner(u + v, w)
    rhs = inner(u, w) + inner(v, w)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@given(sparse, sparse)
def test_add_scaled_matches_operators(u, v):
    direct = add_scaled(u, v, 2.0, -1.5)
    composed = 2.0 * u - 1.5 * v
    assert (direct - composed).norm() <= 1e-12


@given(st.lists(sparse, min_size=1, max_size=4))
def test_gram_hermitian_psd(vs):
    g = gram(vs)
    np.testing.assert_allclose(g, g.conj().T, atol=1e-12)
    eigs = np.linalg.eigvalsh(g)
    assert eigs.min() >= -1e-9


def test_window_budget_resolution(monkeypatch):
    monkeypatch.delenv(WINDOW_BUDGET_ENV, raising=False)
    assert window_budget() == DEFAULT_WINDOW_BUDGET
    monkeypatch.setenv(WINDOW_BUDGET_ENV, "1234")
    assert window_budget() == 1234
    assert window_budget(99) == 99
    with pytest.raises(DegenerateInputError):
        window_budget(0)


def test_budget_meter_enforces_cap():
    meter = BudgetMeter(10)
    meter.charge(6)
    meter.charge(4)
    with pytest.raises(WindowBudgetError) as exc:
        meter.charge(1)
    assert exc.value.required == 11
    assert exc.value.budget == 10


# -- kernel equivalence: inner, cross_gram/gram and add_scaled against references

LIMIT = 2 ** 62
magnitude = st.floats(1e-6, 10.0)
signed = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda x: -x))
value = st.builds(complex, signed, signed)
nonzero = st.builds(complex, magnitude, signed)
index_sets = st.one_of(
    st.lists(st.integers(-30, 30), max_size=12),
    st.lists(st.integers(-(10 ** 15), 10 ** 15), max_size=12),
    st.lists(
        st.integers(LIMIT - 40, LIMIT - 1) | st.integers(-LIMIT + 1, -LIMIT + 40),
        max_size=12,
    ),
)


def values_for(draw, n, entries=value):
    return np.array(draw(st.lists(entries, min_size=n, max_size=n)), np.complex128)


def on(draw, indices, entries=value):
    # a shifted or disjoint support drawn next to +-2^62 can step out of the
    # index set, which the constructor refuses: keep the indices inside it
    indices = indices[np.abs(indices) < LIMIT]
    return WindowVector(indices, values_for(draw, len(indices), entries))


@st.composite
def support_pairs(draw):
    """(u, v) whose supports are empty, disjoint, one array object, equal
    copies, shifted overlaps or independent draws (which covers sparse
    far-apart supports and indices near +-2^62)."""
    u = on(draw, np.unique(np.array(draw(index_sets), np.int64)))
    relation = draw(
        st.sampled_from(("empty", "disjoint", "same", "copy", "shifted", "independent"))
    )
    if relation == "empty":
        v = WindowVector.zero()
    elif relation == "same":
        factors = values_for(draw, len(u), nonzero)
        v = u.scale_by(lambda idx: factors)
        assert v.indices is u.indices
    elif relation == "copy":
        v = on(draw, u.indices.copy())
    elif relation == "shifted":
        v = on(draw, u.indices + np.int64(draw(st.integers(-3, 3))))
    elif relation == "disjoint" and len(u):
        steps = np.arange(1, len(u) + 1, dtype=np.int64)
        if u.indices[-1] < 0:
            v = on(draw, u.indices[-1] + steps)
        else:
            v = on(draw, u.indices[0] - steps[::-1])
    else:
        v = on(draw, np.unique(np.array(draw(index_sets), np.int64)))
    return draw(st.permutations([u, v]))


def exact_inner(u, v):
    """Exact sum over the shared indices, looked up through a dict."""
    right = dict(zip(v.indices.tolist(), v.values.tolist()))
    re = im = Fraction(0)
    for i, a in zip(u.indices.tolist(), u.values.tolist()):
        if i in right:
            b = right[i]
            re += Fraction(a.real) * Fraction(b.real) + Fraction(a.imag) * Fraction(b.imag)
            im += Fraction(a.imag) * Fraction(b.real) - Fraction(a.real) * Fraction(b.imag)
    return complex(float(re), float(im))


@given(support_pairs())
def test_inner_matches_dict_reference(pair):
    u, v = pair
    assert abs(inner(u, v) - exact_inner(u, v)) <= 1e-15 * u.norm() * v.norm()


@given(support_pairs())
def test_norm_matches_dict_reference(pair):
    # n squares summed in any order are within n u of exact; the square root
    # halves that, and the roundings of both roots and the reference add 2 u
    for u in pair:
        exact = float(np.sqrt(exact_inner(u, u).real))
        assert abs(u.norm() - exact) <= (len(u) + 3) * 2.0 ** -53 * exact


def bits(z):
    return np.complex128(z).tobytes()


def inner_by_intersect(u, v):
    """Shared-index sum through ``np.intersect1d``, in increasing index order."""
    _, pa, pb = np.intersect1d(u.indices, v.indices, assume_unique=True, return_indices=True)
    return complex(np.sum(u.values[pa] * np.conj(v.values[pb])))


@st.composite
def merge_cases(draw):
    """(u, v) whose supports are disjoint, nested inside a gap of the other
    (the range cut leaves one side empty), interleaved, equal in distinct
    arrays or contiguous runs."""
    drawn = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=16))
    base = np.unique(np.array(drawn, np.int64))
    relation = draw(
        st.sampled_from(("disjoint", "nested", "interleaved", "equal", "contiguous"))
    )
    if relation == "disjoint":
        gaps = draw(st.lists(st.integers(0, 40), min_size=1))
        other = base[-1] + 1 + np.unique(np.array(gaps, np.int64))
    elif relation == "nested":
        base = np.concatenate([base[:1] - 100, base])
        inside = base[0] + 1 + np.arange(draw(st.integers(1, 99)), dtype=np.int64)
        other = np.setdiff1d(inside, base)
    elif relation == "interleaved":
        lo = draw(st.integers(-40, 40))
        both = lo + 2 * np.arange(draw(st.integers(1, 20)), dtype=np.int64)
        base, other = both, np.union1d(both[:: draw(st.integers(2, 4))], both + 1)
    elif relation == "equal":
        other = base.copy()
    else:
        lo = draw(st.integers(-40, 40))
        base = np.arange(lo, lo + draw(st.integers(1, 30)), dtype=np.int64)
        start = lo + draw(st.integers(-30, 30))
        other = np.arange(start, start + draw(st.integers(1, 30)), dtype=np.int64)
    return draw(st.permutations([on(draw, base), on(draw, other)]))


@given(st.one_of(merge_cases(), support_pairs()))
def test_inner_bit_identical_to_intersect1d(pair):
    u, v = pair
    assert bits(inner(u, v)) == bits(inner_by_intersect(u, v))
    _, pa, pb = np.intersect1d(u.indices, v.indices, assume_unique=True, return_indices=True)
    sel_u, sel_v = vectors._shared(u.indices, v.indices)
    assert sel_u.tolist() == pa.tolist() and sel_v.tolist() == pb.tolist()


def test_inner_sidon_translates_share_at_most_one_index():
    from orbitforge.flatten import sidon_set

    rng = np.random.default_rng(11)
    atoms = sidon_set(2 ** 16)
    u = WindowVector(atoms, rng.normal(size=len(atoms)) + 1j * rng.normal(size=len(atoms)))
    # a difference of two atoms lines up exactly one pair; shifts below the
    # prime 65537 of the construction line up none
    differences = (int(atoms[40_000] - atoms[123]), int(atoms[1] - atoms[0]))
    for shift, shared in [(d, 1) for d in differences] + [(1, 0), (12_345, 0)]:
        v = u.translate(shift)
        assert len(np.intersect1d(u.indices, v.indices, assume_unique=True)) == shared
        for a, b in ((u, v), (v, u)):
            assert bits(inner(a, b)) == bits(inner_by_intersect(a, b))


def pairwise(us, vs):
    return np.array([[inner(u, v) for v in vs] for u in us], np.complex128).reshape(
        len(us), len(vs)
    )


@st.composite
def dense_families(draw):
    """Families whose joint span is at most twice the largest support: one
    contiguous row plus rows drawn inside (or just past) its window."""
    lo = draw(st.sampled_from((0, -17, -LIMIT + 1, LIMIT - 64)))
    m = draw(st.integers(1, 24))
    rows = [on(draw, np.arange(lo, lo + m, dtype=np.int64), nonzero)]
    for _ in range(draw(st.integers(0, 4))):
        picks = draw(st.lists(st.integers(0, 2 * m - 1), max_size=2 * m))
        rows.append(on(draw, lo + np.unique(np.array(picks, np.int64))))
    return draw(st.permutations(rows))


@st.composite
def sparse_families(draw):
    """Families spread over far more indices than they store."""
    far = draw(st.sampled_from((10 ** 15, LIMIT - 1)))
    rows = [on(draw, np.array([i], np.int64), nonzero) for i in (-far, far)]
    for _ in range(draw(st.integers(0, 3))):
        rows.append(on(draw, np.unique(np.array(draw(index_sets), np.int64))))
    return draw(st.permutations(rows))


def gamma(n):
    return n * 2.0 ** -53 / (1 - n * 2.0 ** -53)


def within_rounding(g, us, vs, tol=1e-14):
    bound = tol * np.outer([u.norm() for u in us], [v.norm() for v in vs])
    return bool(np.all(np.abs(g - pairwise(us, vs)) <= bound))


@given(dense_families(), st.integers(0, 5))
def test_cross_gram_dense_path_matches_pairwise_inner(family, cut):
    us, vs = family[:cut], family[cut:]
    # the dense path is one BLAS product per block and never calls inner
    with mock.patch.object(vectors, "inner", side_effect=AssertionError("sparse path taken")):
        g = gram(family)
        c = cross_gram(us, vs)
    assert within_rounding(g, family, family)
    assert within_rounding(c, us, vs)


@given(sparse_families(), sparse_families())
def test_cross_gram_sparse_path_is_pairwise_inner(us, vs):
    assert np.array_equal(cross_gram(us, vs), pairwise(us, vs))
    assert np.array_equal(gram(us), pairwise(us, us))


def test_cross_gram_blocks_a_long_shift_orbit():
    # a shift orbit longer than one dense block takes the translate path;
    # error stays at the gamma_n level of an n-term inner product
    rng = np.random.default_rng(3)
    m = 40_000
    x = WindowVector(np.arange(m, dtype=np.int64), rng.normal(size=m) + 1j * rng.normal(size=m))
    orbit = [x.translate(j) for j in range(17)]
    g = gram(orbit)
    assert within_rounding(g, orbit, orbit, tol=2 * gamma(m + 17))
    assert cross_gram([], orbit).shape == (0, 17)
    assert cross_gram(orbit, [WindowVector.zero()]).tolist() == [[0j]] * 17


@st.composite
def dense_translate_families(draw):
    """Translates of one x (an m-run with at most m/4 holes) by at most m/4
    each way, so the joint span stays within twice the support; each member
    shares x's arrays or is a fresh copy."""
    lo = draw(st.sampled_from((0, -17, 10 ** 15)))
    m = draw(st.integers(1, 24))
    holes = draw(st.lists(st.integers(lo, lo + m - 1), max_size=m // 4))
    x = on(draw, np.setdiff1d(np.arange(lo, lo + m, dtype=np.int64), holes), nonzero)
    shifts = draw(st.lists(st.integers(-(m // 4), m // 4), min_size=1, max_size=6))
    return [fresh(x.translate(s)) if draw(st.booleans()) else x.translate(s) for s in shifts]


@given(dense_translate_families(), st.integers(1, 6))
def test_translate_family_gram_is_a_hermitian_toeplitz_fill(family, cut):
    us, vs = family[:cut], family[cut:]
    fills, toeplitz = [], vectors._translate_gram

    def spy(*args):
        fills.append(toeplitz(*args))
        return fills[-1]

    with mock.patch.object(vectors, "_translate_gram", spy), mock.patch.object(
        vectors, "inner", side_effect=AssertionError("sparse path taken")
    ):
        g = gram(family)
        c = cross_gram(us, vs)
    assert len(fills) == 2 and all(fill is not None for fill in fills)
    # both sums add the same products, so each is within gamma_L sum |t| of
    # the exact value (Higham, Accuracy and Stability, sec. 4.2), per part
    lo, hi = family[0].support_range()
    tol = 2 * math.sqrt(2) * gamma(hi - lo + 1)
    assert within_rounding(g, family, family, tol=tol)
    assert within_rounding(c, us, vs, tol=tol)
    assert np.array_equal(g, g.conj().T) and not np.any(np.diag(g).imag)


def test_sparse_translate_family_never_allocates_its_span():
    # a 2^22 span holds 64 MB dense; nine stored entries take the pairwise path
    rng = np.random.default_rng(12)
    idx = np.append(np.arange(8, dtype=np.int64), 1 << 22)
    x = WindowVector(idx, rng.normal(size=9) + 1j * rng.normal(size=9))
    family = [x.translate(j) for j in range(4)] + [fresh(x.translate(5))]
    tracemalloc.start()
    try:
        with mock.patch.object(vectors, "_translate_gram", side_effect=AssertionError):
            g = gram(family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert np.array_equal(g, pairwise(family, family))


def test_gram_scatters_each_block_once():
    # four rows over more than one block of _BLOCK_ENTRIES // 4 columns
    rng = np.random.default_rng(8)
    m = vectors._BLOCK_ENTRIES // 4 + 5_000
    x = WindowVector(np.arange(m, dtype=np.int64), rng.normal(size=m) + 1j * rng.normal(size=m))
    family = [x, x.translate(3), x.translate(700).restrict(lambda idx: idx % 3 != 0), x * 1j]
    with mock.patch.object(vectors, "_dense_block", wraps=vectors._dense_block) as scatter, \
            mock.patch.object(vectors, "inner", side_effect=AssertionError("sparse path taken")):
        g = gram(family)
        once = scatter.call_count
        c = cross_gram(list(family), list(family))
    assert once == 2 and scatter.call_count == 3 * once
    assert g.tobytes() == c.tobytes()


def add_scaled_by_sort(u, v, alpha, beta):
    """The argsort + unique + reduceat merge the kernel replaced."""
    if len(u) == 0:
        return v * beta
    if len(v) == 0:
        return u * alpha
    idx = np.concatenate([u.indices, v.indices])
    val = np.concatenate([u.values * alpha, v.values * beta])
    order = np.argsort(idx, kind="stable")
    idx, val = idx[order], val[order]
    uniq, start = np.unique(idx, return_index=True)
    summed = np.add.reduceat(val, start)
    return WindowVector(uniq, summed)


def assert_bit_identical(a, b):
    assert np.array_equal(a.indices, b.indices)
    assert a.values.tobytes() == b.values.tobytes()


@given(support_pairs(), value, value)
def test_add_scaled_bit_identical_to_sorting_merge(pair, alpha, beta):
    u, v = pair
    assert_bit_identical(add_scaled(u, v, alpha, beta), add_scaled_by_sort(u, v, alpha, beta))
    assert_bit_identical(add_scaled(u, v, 1.0, -1.0), add_scaled_by_sort(u, v, 1.0, -1.0))


def test_add_scaled_drops_exact_cancellation():
    u = entries((-(2 ** 62) + 1, 1.0), (0, 0.5 + 2j), (7, 3.0), (2 ** 62 - 1, -1j))
    v = entries((0, 0.5 + 2j), (5, 1.0), (2 ** 62 - 1, -1j))
    out = add_scaled(u, v, 1.0, -1.0)
    assert out.indices.tolist() == [-(2 ** 62) + 1, 5, 7]
    assert_bit_identical(out, add_scaled_by_sort(u, v, 1.0, -1.0))
    assert len(add_scaled(u, u, 1.0, -1.0)) == 0


# -- combine: the dense accumulator against the left fold of add_scaled


def combine_by_fold(terms):
    """The left fold of two-term merges that combine replaces."""
    out = WindowVector.zero()
    for c, v in terms:
        out = add_scaled(out, v, 1.0, c)
    return out


coefficient = st.one_of(st.just(1.0), st.just(-1.0), value)


@st.composite
def combine_terms(draw):
    """Terms whose supports overlap, are disjoint, shifted by one, equal
    (one array object) or empty, with exact cancellations of the term
    before; the first support may lie next to +-2^62."""
    u = on(draw, np.unique(np.array(draw(index_sets), np.int64)))
    terms = [(draw(coefficient), u)]
    for _ in range(draw(st.integers(0, 5))):
        c, last = terms[-1]
        relation = draw(
            st.sampled_from(("overlap", "disjoint", "shift", "equal", "cancel", "empty"))
        )
        if relation == "cancel":
            terms.append((-c, last))
            continue
        if relation == "empty" or len(last) == 0:
            v = WindowVector.zero()
        elif relation == "overlap":
            extra = draw(st.lists(st.integers(-3, 3), max_size=6))
            near = last.indices[0] + np.array(extra, np.int64)
            picks = np.concatenate([last.indices[::2], near])
            v = on(draw, np.unique(picks))
        elif relation == "disjoint":
            v = on(draw, last.indices[-1] + np.arange(1, len(last) + 1, dtype=np.int64))
        elif relation == "shift":
            v = on(draw, last.indices + np.int64(draw(st.sampled_from((-1, 1)))))
        else:
            factors = values_for(draw, len(last))
            v = last.scale_by(lambda idx: factors)
        terms.append((draw(coefficient), v))
    return terms


@given(combine_terms())
def test_combine_equals_the_add_scaled_fold(terms):
    assert combine(terms) == combine_by_fold(terms)
    assert combine(iter(terms)) == combine_by_fold(terms)


@given(dense_families(), st.lists(coefficient, min_size=5, max_size=5))
def test_combine_dense_path_never_merges(family, coefficients):
    terms = list(zip(coefficients, family))
    want = combine_by_fold(terms)
    with mock.patch.object(vectors, "add_scaled", side_effect=AssertionError("sparse path taken")):
        got = combine(terms)
    assert got == want


@given(sparse_families(), st.lists(coefficient, min_size=5, max_size=5))
def test_combine_sparse_path_allocates_no_span(family, coefficients):
    terms = list(zip(coefficients, family))
    stored = sum(len(v) for v in family)
    sizes = []

    def recording(alloc):
        def wrapped(shape, *args, **kwargs):
            sizes.append(int(np.prod(shape)))
            return alloc(shape, *args, **kwargs)

        return wrapped

    with mock.patch.object(np, "full", recording(np.full)), mock.patch.object(
        np, "zeros", recording(np.zeros)
    ), mock.patch.object(vectors, "add_scaled", side_effect=AssertionError("merged pairwise")):
        got = combine(terms)
    assert max(sizes, default=0) <= 2 * stored
    assert got == combine_by_fold(terms)


def fold_by_sort(terms):
    out = WindowVector.zero()
    for c, v in terms:
        out = add_scaled_by_sort(out, v, 1.0, c)
    return out


def test_combine_sparse_path_bit_identical_to_the_sorting_fold():
    # far-apart shared indices (span far above twice the stored entries), an
    # exact cancellation at 0 that a later term writes again, and signed zeros
    far = 10 ** 15
    terms = [
        (1, WindowVector([-far, 0, far], [complex(-0.0, 1.5), 0.5 + 2j, complex(-2.0, -0.0)])),
        (-1, WindowVector([0, far], [0.5 + 2j, 1.0 + 0.25j])),
        (1, WindowVector([0, 7], [4.0 + 1j, complex(-1.0, -0.0)])),
        (0.5, WindowVector([far, 2 * far], [2.0 - 4j, complex(-3.0, -0.0)])),
    ]
    with mock.patch.object(vectors, "add_scaled", side_effect=AssertionError("merged pairwise")):
        got = combine(terms)
    assert got.indices.tolist() == [-far, 0, 7, far, 2 * far]
    assert got[0] == 4.0 + 1j
    assert np.signbit(got.values.real[0]) and np.signbit(got.values.imag[[2, 4]]).all()
    assert_bit_identical(got, fold_by_sort(terms))


def test_combine_empty_and_lone_terms():
    assert combine([]) == WindowVector.zero()
    assert len(combine([(2.0, WindowVector.zero()), (1j, WindowVector.zero())])) == 0
    # a lone term keeps its bits, signed zero components included, on the
    # dense path (slice and fancy index) and on the sparse one
    values = [complex(-0.0, 1.5), complex(2.0, -0.0), complex(-1.0, 0.0)]
    for indices in ([-1, 0, 1], [-1, 0, 2], [-3, 0, 4]):
        v = WindowVector(indices, values)
        assert_bit_identical(combine([(1, v)]), v)
        for c in (0.5 - 2j, -1.0):
            assert_bit_identical(combine([(c, v)]), combine_by_fold([(c, v)]))
            assert_bit_identical(combine([(c, v), (0.0, WindowVector.zero())]), c * v)
        assert len(combine([(1, v), (-1, v)])) == 0


# -- combine placements: per-run slices against one fancy index per term


def combine_by_fancy_index(terms):
    """combine with every term of a multi-term sum added through one fancy
    index: the accumulator loop before per-run slices, kept as the oracle."""
    terms = [(c, v) for c, v in terms if len(v)]
    if len(terms) < 2:
        return combine(terms)
    lo = min(int(v.indices[0]) for _, v in terms)
    span = max(int(v.indices[-1]) for _, v in terms) - lo + 1
    keys = None
    if span > 2 * sum(len(v) for _, v in terms):
        merged = np.sort(np.concatenate([v.indices for _, v in terms]), kind="stable")
        keys = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
    acc = np.full(span if keys is None else len(keys), complex(-0.0, -0.0))
    for c, v in terms:
        where = v.indices - np.int64(lo) if keys is None else np.searchsorted(keys, v.indices)
        acc[where] += v.values * c
    keep = np.flatnonzero(acc != 0)
    indices = keep + np.int64(lo) if keys is None else keys[keep]
    return WindowVector(indices, acc[keep], _checked=True)


def recorded_placements():
    """Patch vectors._placements to record the slot kinds of every term."""
    kinds = []
    place = vectors._placements

    def recording(indices, lo, keys):
        out = place(indices, lo, keys)
        kinds.append(["slice" if isinstance(slot, slice) else "index" for slot, _ in out])
        return out

    return kinds, mock.patch.object(vectors, "_placements", recording)


# every term run-wise (shortest runs included) and at the kernel's own threshold
run_thresholds = st.sampled_from((1, vectors._RUN_SLICE_MIN))


@given(combine_terms(), run_thresholds)
def test_combine_placements_bit_identical_to_the_fancy_index(terms, threshold):
    with mock.patch.object(vectors, "_RUN_SLICE_MIN", threshold):
        got = combine(terms)
    assert_bit_identical(got, combine_by_fancy_index(terms))


@given(dense_families(), st.lists(coefficient, min_size=5, max_size=5), run_thresholds)
def test_combine_dense_placements_bit_identical_to_the_fancy_index(family, coefficients, threshold):
    terms = list(zip(coefficients, family))
    with mock.patch.object(vectors, "_RUN_SLICE_MIN", threshold):
        got = combine(terms)
    assert_bit_identical(got, combine_by_fancy_index(terms))


def sixteen_window_vector(m=600, gap=18, seed=4):
    """Sixteen windows of m entries with gap empty slots between them."""
    rng = np.random.default_rng(seed)
    starts = np.arange(16) * (m + gap)
    idx = (starts[:, None] + np.arange(m)[None, :]).ravel().astype(np.int64)
    return WindowVector(idx, rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size))


def test_combine_folds_a_sixteen_run_orbit_slice_by_slice():
    # the orbit fold y = sum lam^-j T^j x of a bilateral shift: every term has
    # 16 runs of 600 entries, so each is added as 16 slices
    x = sixteen_window_vector()
    lam = cmath.exp(2j * math.pi * 3 / 16)
    terms = [(lam ** (-j), x.translate(j)) for j in range(16)]
    kinds, patch = recorded_placements()
    with patch:
        got = combine(terms)
    assert kinds == [["slice"] * 16] * 16
    assert_bit_identical(got, combine_by_fancy_index(terms))
    # the two-term subtraction (T - lam) y of the fold's residual
    kinds.clear()
    with patch:
        residual = got.translate(1) - lam * got
    assert kinds == [["slice"] * 16] * 2
    assert_bit_identical(residual, combine_by_fancy_index([(1, got.translate(1)), (-1, lam * got)]))


def test_combine_adds_a_term_of_one_entry_runs_by_one_fancy_index():
    rng = np.random.default_rng(5)
    block = WindowVector(np.arange(2000), rng.normal(size=2000) + 1j * rng.normal(size=2000))
    sparse = WindowVector(np.arange(0, 2000, 2), rng.normal(size=1000) - 1j)
    terms = [(1, block), (0.5 - 1j, sparse), (-1, block.translate(1))]
    kinds, patch = recorded_placements()
    with patch:
        got = combine(terms)
    assert kinds == [["slice"], ["index"], ["slice"]]
    assert_bit_identical(got, combine_by_fancy_index(terms))


def test_combine_placements_keep_signed_zeros():
    # -0.0 + -0.0 stays -0.0 while -0.0 + 0.0 is +0.0: a slice must add the
    # same components in the same order as the fancy index does, onto an
    # accumulator that starts at -0.0
    m = 2 * vectors._RUN_SLICE_MIN
    idx = np.concatenate([np.arange(m), np.arange(m + 5, 2 * m + 5)])
    neg = np.full(idx.size, complex(-0.0, 1.0))
    neg[::3] = complex(2.0, -0.0)
    pos = np.full(idx.size, complex(0.0, -1.0))
    terms = [
        (1, WindowVector(idx, neg)),
        (-1.0, WindowVector(idx[:m], neg[:m])),
        (1, WindowVector(idx[::2], pos[::2])),
    ]
    kinds, patch = recorded_placements()
    with patch:
        got = combine(terms)
    assert kinds == [["slice", "slice"], ["slice"], ["index"]]
    # the odd entries of the second run hold term 1 alone: its real -0.0
    # survives the multiply by 1 and the -0.0 start
    alone = (got.indices > m) & ((got.indices - (m + 5)) % 2 == 1) & (got.values.imag == 1)
    assert alone.sum() > 100 and np.signbit(got.values.real[alone]).all()
    assert_bit_identical(got, combine_by_fancy_index(terms))


def test_combine_sparse_placements_slice_a_term_that_fills_a_stretch_of_keys():
    # two far-apart windows each fill one stretch of the merged indices; a
    # term interleaved with another one is looked up index by index
    rng = np.random.default_rng(6)
    m, far = 3000, 10 ** 12
    a = WindowVector(np.arange(m), rng.normal(size=m) + 1j)
    b = WindowVector(np.arange(far, far + m), rng.normal(size=m) - 1j)
    odd = WindowVector(np.arange(1, m, 2), rng.normal(size=m // 2) + 0.5j)
    kinds, patch = recorded_placements()
    with patch:
        two = combine([(1, a), (-0.25j, b)])
        three = combine([(1, a), (2.0, b), (-1, odd)])
    assert kinds == [["slice"], ["slice"], ["slice"], ["slice"], ["index"]]
    assert_bit_identical(two, combine_by_fancy_index([(1, a), (-0.25j, b)]))
    assert_bit_identical(three, combine_by_fancy_index([(1, a), (2.0, b), (-1, odd)]))


# -- the translation memo: the norm and the run edges of a value array


def fresh(v):
    """A copy of v that shares neither arrays nor memo with it."""
    return WindowVector(v.indices.copy(), v.values.copy())


@st.composite
def translate_families(draw):
    """(c_k, x translated by a chain of shifts) terms of one x made of runs,
    some longer than a slice threshold of 4, with x's memo filled first or
    not.  A far first hop spreads a family too thin for the dense paths."""
    lo = draw(st.sampled_from((0, -17, 10 ** 15)))
    runs, at = [], lo
    for _ in range(draw(st.integers(1, 4))):
        at += draw(st.integers(1, 6))
        length = draw(st.integers(1, 12))
        runs.append(np.arange(at, at + length, dtype=np.int64))
        at += length
    x = on(draw, np.concatenate(runs))
    if draw(st.booleans()):
        x.norm()
    hops = st.tuples(
        st.sampled_from((0, 0, 10 ** 6, -(10 ** 12))),
        st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    )
    terms = []
    for far, steps in draw(st.lists(hops, min_size=1, max_size=6)):
        v = x.translate(far)
        for k in steps:
            v = v.translate(k)
        terms.append((draw(coefficient), v))
    return terms


@given(translate_families(), st.sampled_from((1, 4, vectors._RUN_SLICE_MIN)))
def test_translate_families_are_bit_identical_to_fresh_copies(terms, threshold):
    family = [v for _, v in terms]
    copies = [fresh(v) for v in family]
    with mock.patch.object(vectors, "_RUN_SLICE_MIN", threshold):
        assert_bit_identical(combine(terms), combine([(c, fresh(v)) for c, v in terms]))
        assert gram(family).tobytes() == gram(copies).tobytes()
        assert cross_gram(family[:2], family).tobytes() == cross_gram(copies[:2], copies).tobytes()
    assert [bits(v.norm()) for v in family] == [bits(v.norm()) for v in copies]
    assert [bits(inner(u, v)) for u in family for v in family] == [
        bits(inner(u, v)) for u in copies for v in copies
    ]


@given(support_pairs(), nonzero)
def test_new_values_or_indices_start_a_fresh_memo(pair, c):
    u, v = pair
    for w in (u, v):
        w.norm()
        w._run_edges()
        keep = w.indices % 2 == 0
        factors = np.linspace(0.5, 2.0, len(w))
        made = [w * c, -w, w.scale_by(lambda idx: factors), w.restrict(lambda idx: keep)]
        for out in made:
            # v * 1 and the empty vector's products are v itself
            assert out is w or out._memo is not w._memo
            assert bits(out.norm()) == bits(fresh(out).norm())
            assert out._run_edges() == fresh(out)._run_edges()


def dense_block_by_fancy_index(vectors_, lo, width):
    """The scatter before run slices: one fancy index per row."""
    block = np.zeros((len(vectors_), width), np.complex128)
    for row, v in zip(block, vectors_):
        start, stop = np.searchsorted(v.indices, (lo, lo + width))
        row[v.indices[start:stop] - lo] = v.values[start:stop]
    return block


def test_run_slice_scatter_is_bit_identical_to_the_fancy_index():
    # blocks of 256 // 4 = 64 columns; runs of 300 straddle block edges, and
    # a row of one-entry runs keeps the fancy index
    rng = np.random.default_rng(9)
    idx = np.concatenate([np.arange(0, 300), np.arange(310, 610)])
    x = WindowVector(idx, rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size))
    short = WindowVector(np.arange(0, 620, 2), rng.normal(size=310) - 0.5j)
    family = [x, x.translate(5), short, x.translate(-3)]
    with mock.patch.object(vectors, "_RUN_SLICE_MIN", 256):
        assert x._run_edges() == (0, 300, 600) and short._run_edges() is None
    step = 64
    for start in range(-3, 615, step):
        width = min(step, 615 - start)
        want = dense_block_by_fancy_index(family, start, width)
        assert vectors._dense_block(family, start, width).tobytes() == want.tobytes()
    with mock.patch.object(vectors, "_BLOCK_ENTRIES", 256):
        got = gram(family)
        got_cross = cross_gram(family[:3], family[1:])
        with mock.patch.object(vectors, "_dense_block", dense_block_by_fancy_index):
            want = gram(family)
            want_cross = cross_gram(family[:3], family[1:])
    assert got.tobytes() == want.tobytes() and got_cross.tobytes() == want_cross.tobytes()
