"""Flat subspaces: Sidon combinatorics checked against brute force."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.errors import (
    DegenerateInputError,
    NumericalError,
    PreconditionError,
    UnsupportedModelError,
    WindowBudgetError,
)
from orbitforge.flatten import (
    DecayProfile,
    flat_report_csv,
    flat_subspace,
    next_prime,
    sidon_set,
    weak_decay_probe,
)
from orbitforge.operators import (
    BilateralShift,
    ConstantWeights,
    DenseOperator,
    DiagonalUnitary,
    MultiplicationGrid,
    QuadraticIrrationalRotation,
    UnilateralShift,
)
from orbitforge.vectors import WindowVector, inner


def raw_shift_form(x, n, y=None):
    """<S^n x, y> for a plain shift, by integer index arithmetic only."""
    y = x if y is None else y
    shifted = x.indices + int(n)
    common, ia, ib = np.intersect1d(
        shifted, y.indices, assume_unique=True, return_indices=True
    )
    del common
    return complex(np.sum(x.values[ia] * np.conj(y.values[ib])))


# -- primes ---------------------------------------------------------------------

KNOWN = [(1, 2), (2, 2), (3, 3), (4, 5), (90, 97), (7919, 7919), (7920, 7927)]


@pytest.mark.parametrize("n,p", KNOWN)
def test_next_prime_known_values(n, p):
    assert next_prime(n) == p


def test_next_prime_rejects_carmichael_and_strong_pseudoprimes():
    assert next_prime(561) == 563
    # strong pseudoprime to bases 2, 3, 5, 7; the full base list catches it
    assert next_prime(3215031751) > 3215031751


# -- Sidon sets -------------------------------------------------------------------


def brute_difference_multiset(positions):
    d = (positions[None, :] - positions[:, None]).ravel()
    return np.sort(d[d > 0])


@pytest.mark.parametrize("size", [2, 5, 40, 101])
def test_sidon_differences_all_distinct(size):
    s = sidon_set(size)
    assert s.dtype == np.int64
    assert np.all(np.diff(s) > 0)
    diffs = brute_difference_multiset(s)
    assert len(np.unique(diffs)) == len(diffs)


def test_sidon_rejects_empty():
    with pytest.raises(DegenerateInputError):
        sidon_set(0)


@given(st.integers(min_value=2, max_value=64))
@settings(max_examples=30, deadline=None)
def test_sidon_distinctness_property(size):
    diffs = brute_difference_multiset(sidon_set(size))
    assert len(np.unique(diffs)) == len(diffs)


# -- decay probes ------------------------------------------------------------------


def test_probe_sees_the_shift_hop():
    p = weak_decay_probe(
        BilateralShift(), [WindowVector.basis(0), WindowVector.basis(5)], 20
    )
    assert p.values[0] == pytest.approx(1.0)
    assert p.values[5] == pytest.approx(1.0)
    assert p.exact_zero_beyond == 6
    assert np.all(p.values[6:] == 0.0)
    assert p.decays
    blob = p.to_json()
    assert blob["decays"] and blob["exact_zero_beyond"] == 6


def test_probe_tracks_weighted_products():
    p = weak_decay_probe(
        BilateralShift(ConstantWeights(0.5)),
        [WindowVector.basis(0), WindowVector.basis(3)],
        8,
    )
    assert p.values[3] == pytest.approx(0.125)


def test_probe_flags_persistent_diagonal():
    p = weak_decay_probe(
        DiagonalUnitary(QuadraticIrrationalRotation(2)), [WindowVector.basis(0)], 16
    )
    assert p.exact_zero_beyond is None
    assert not p.decays
    assert np.all(np.abs(p.values - 1.0) < 1e-12)


def test_probe_validates_inputs():
    with pytest.raises(DegenerateInputError):
        weak_decay_probe(BilateralShift(), [], 4)
    with pytest.raises(DegenerateInputError):
        weak_decay_probe(BilateralShift(), [2.0 * WindowVector.basis(0)], 4)


def test_probe_refuses_an_overflowing_power_bound():
    op = DenseOperator(2 * np.eye(2))
    # the top of the SVD enclosure of ||2 I|| = 2
    nb = op.norm_bound()
    assert 2.0 < nb <= 2.0 + 1e-13
    refusal = rf"{re.escape(repr(nb))} raised to the horizon 1100"
    with warnings.catch_warnings():
        # the refusal comes before any power is applied
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=refusal):
            weak_decay_probe(op, [WindowVector.basis(0)], 1100)
    assert weak_decay_probe(op, [WindowVector.basis(0)], 1000).power_bound == nb ** 1000


# -- flat subspaces ------------------------------------------------------------------


def stage_count_oracle(eps, r, power_bound=1):
    thr = Fraction(eps) / (2 ** (r + 3) * (r + 1))
    need = 16 * Fraction(power_bound) ** 2 / (thr * thr)
    return max(math.floor(need) + 1, 2)


def test_flat_subspace_one_dimension():
    cert = flat_subspace(BilateralShift(), 0.5, 1)
    rep = cert.to_json()
    assert len(cert.basis) == 1
    assert rep["schedule"]["counts"] == [stage_count_oracle(0.5, 0)] == [4097]
    assert rep["sup_bound_closed_form"] <= 0.5 / 2
    assert rep["passed"]


def test_flat_subspace_three_stage_certificate():
    rep = flat_subspace(BilateralShift(), 0.25, 3).to_json()
    counts = rep["schedule"]["counts"]
    assert counts == [stage_count_oracle(0.25, r) for r in range(3)]
    assert counts == [16385, 262145, 2359297]
    assert rep["gram_defect"] <= 1e-10
    assert rep["sup_bound_closed_form"] <= 0.25
    for r, sb in enumerate(rep["stage_bounds"]):
        assert sb <= 0.25 / 2 ** (r + 1) + 1e-15
    times = rep["schedule"]["times"]
    assert times == sorted(set(times))
    for row in rep["per_n"]:
        assert row["norm"] <= row["stage_bound"] + 1e-12
    assert rep["per_n"][-1]["beyond_horizon"]
    assert rep["per_n"][-1]["norm"] == 0.0
    assert rep["passed"]


def test_flat_subspace_compression_entries_raw():
    cert = flat_subspace(BilateralShift(), 1.9, 2)
    rep = cert.to_json()
    y0, y1 = cert.basis
    s0, s1 = rep["schedule"]["counts"]
    assert inner(y1, y0) == 0.0  # disjoint chunks

    # upper-triangle entries vanish identically: the later chunk only moves up
    for n in (1, 7, int(rep["total_span"] // 3) or 1):
        assert raw_shift_form(y1, n, y0) + 0 == 0.0

    # a realized cross difference hits exactly one aligned pair
    gap = int(y1.indices[5]) - int(y0.indices[2])
    v = abs(raw_shift_form(y0, gap, y1))
    assert v == pytest.approx(1.0 / math.sqrt(s0 * s1), abs=1e-15)

    # and every entry obeys the one-pair bound at a few arbitrary powers
    rng = np.random.default_rng(11)
    for n in rng.integers(1, rep["total_span"] + 1, 5).tolist():
        for a, sa in ((y0, s0), (y1, s1)):
            for b, sb in ((y0, s0), (y1, s1)):
                assert abs(raw_shift_form(a, n, b)) <= 1.0 / math.sqrt(sa * sb) + 1e-15


def test_flat_subspace_replay_is_deterministic():
    rep_a = flat_subspace(BilateralShift(), 1.5, 2, rng=7)
    rep_b = flat_subspace(BilateralShift(), 1.5, 2, rng=7)
    assert [r["n"] for r in rep_a.per_n] == [r["n"] for r in rep_b.per_n]
    assert [r["norm"] for r in rep_a.per_n] == [r["norm"] for r in rep_b.per_n]


def test_flat_vector_refusals():
    # a flat vector is the d = 1 flat subspace
    with pytest.raises(PreconditionError, match="do not vanish weakly"):
        flat_subspace(DiagonalUnitary(QuadraticIrrationalRotation(2)), 0.5, 1)
    with pytest.raises(PreconditionError, match="do not vanish weakly"):
        flat_subspace(MultiplicationGrid(64), 0.5, 1)
    with pytest.raises(UnsupportedModelError, match="weight product"):
        flat_subspace(BilateralShift(ConstantWeights(0.5)), 0.5, 1)
    with pytest.raises(UnsupportedModelError):
        flat_subspace(DenseOperator(np.eye(3)), 0.5, 1)
    with pytest.raises(DegenerateInputError):
        flat_subspace(BilateralShift(), 0.0, 1)


def test_flat_vector_budget_is_enforced():
    with pytest.raises(WindowBudgetError):
        flat_subspace(BilateralShift(), 0.1, 1, window_budget=100)


def test_flat_subspace_validation_and_budget():
    with pytest.raises(DegenerateInputError):
        flat_subspace(BilateralShift(), 0.25, 0)
    with pytest.raises(UnsupportedModelError):
        flat_subspace(UnilateralShift(ConstantWeights(0.9)), 0.25, 2)
    with pytest.raises(WindowBudgetError) as exc:
        flat_subspace(BilateralShift(), 0.25, 3, window_budget=1000)
    assert exc.value.required == 16385 + 262145 + 2359297


def test_flat_report_csv_shape():
    cert = flat_subspace(BilateralShift(), 1.5, 2)
    text = flat_report_csv(cert)
    lines = text.strip().split("\n")
    assert lines[0] == "n,norm,stage_bound"
    assert len(lines) == 1 + len(cert.per_n)
    n0 = int(lines[1].split(",")[0])
    assert n0 == cert.per_n[0]["n"]


@given(st.floats(min_value=0.05, max_value=1.9))
@settings(max_examples=40, deadline=None)
def test_stage_counts_certify_their_thresholds(eps):
    for r in range(3):
        s_r = stage_count_oracle(eps, r)
        thr = Fraction(eps) / (2 ** (r + 3) * (r + 1))
        assert Fraction(s_r) * thr * thr > 16
