"""Flat vectors and subspaces: Sidon combinatorics checked against brute force."""

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
    flat_vector,
    next_prime,
    sidon_set,
    spectral_precondition,
    weak_decay_probe,
)
from orbitforge.operators import (
    BilateralShift,
    ConstantWeights,
    DenseOperator,
    DiagonalUnitary,
    FunctionWeights,
    MultiplicationGrid,
    PeriodicPhases,
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


# -- flat vectors -------------------------------------------------------------------


def test_flat_vector_matches_the_closed_form():
    x, rep = flat_vector(BilateralShift(), 0.5, targets=[WindowVector.basis(0)])
    s = len(x.indices)
    assert s == 65  # floor(16 / 0.25) + 1
    assert abs(x.norm() - 1.0) < 1e-12
    assert rep["scan"] == "full"
    assert rep["sup_form"] == pytest.approx(1.0 / s, abs=1e-15)
    # independent recheck at the reported maximizer and past the span
    assert abs(raw_shift_form(x, rep["arg_form"])) == pytest.approx(
        1.0 / s, abs=1e-15
    )
    assert raw_shift_form(x, rep["exact_zero_beyond"]) == 0.0
    (t,) = rep["targets"]
    # the target e_0 sits below the support, so forward forms vanish and the
    # adjoint supremum is one atom's weight
    assert t["sup_forward"] == 0.0
    assert t["sup_adjoint"] == pytest.approx(1.0 / math.sqrt(s), abs=1e-15)
    assert rep["passed"]


def test_flat_vector_sampled_scan_still_exact():
    x, rep = flat_vector(BilateralShift(), 0.12)
    s = len(x.indices)
    assert s > 256 and rep["scan"] == "sampled"
    # every sampled difference is realized, so the supremum is hit exactly
    assert rep["sup_form"] == pytest.approx(1.0 / s, abs=1e-15)
    assert rep["sup_form_closed"] == pytest.approx(1.0 / s, abs=1e-18)


def test_flat_vector_lands_beyond_avoid_support():
    avoid = [WindowVector.basis(k) for k in range(10)]
    x, rep = flat_vector(UnilateralShift(), 0.4, avoid=avoid)
    assert int(x.indices[0]) >= 10
    for v in avoid:
        assert inner(x, v) == 0.0
    assert rep["passed"]


def test_flat_vector_degenerate_tolerance_single_atom():
    x, rep = flat_vector(BilateralShift(), 2.5, targets=[WindowVector.basis(3)])
    assert len(x.indices) == 1
    assert int(x.indices[0]) == 4
    assert rep["schedule"]["counts"] == [1]
    assert rep["passed"]


def test_flat_vector_spread_target():
    a = WindowVector([0, 1], np.full(2, 1.0 / math.sqrt(2), np.complex128))
    x, rep = flat_vector(BilateralShift(), 0.4, targets=[a])
    (t,) = rep["targets"]
    assert t["sup_adjoint"] <= 0.4
    assert t["sup_forward"] <= 0.4
    assert rep["passed"]


def test_flat_vector_halving_eps_at_most_quadruples_atoms():
    sizes = {}
    for eps in (0.8, 0.4, 0.2):
        x, _rep = flat_vector(BilateralShift(), eps)
        sizes[eps] = len(x.indices)
    assert sizes[0.4] <= 4 * sizes[0.8]
    assert sizes[0.2] <= 4 * sizes[0.4]


def test_flat_vector_refusals():
    with pytest.raises(PreconditionError, match="do not vanish weakly"):
        flat_vector(DiagonalUnitary(QuadraticIrrationalRotation(2)), 0.5)
    with pytest.raises(PreconditionError, match="do not vanish weakly"):
        flat_vector(MultiplicationGrid(64), 0.5)
    with pytest.raises(UnsupportedModelError, match="weight product"):
        flat_vector(BilateralShift(ConstantWeights(0.5)), 0.5)
    with pytest.raises(UnsupportedModelError):
        flat_vector(DenseOperator(np.eye(3)), 0.5)
    with pytest.raises(DegenerateInputError):
        flat_vector(BilateralShift(), 0.0)
    with pytest.raises(DegenerateInputError):
        flat_vector(BilateralShift(), 0.3, targets=[2.0 * WindowVector.basis(0)])


def test_flat_vector_budget_is_enforced():
    with pytest.raises(WindowBudgetError):
        flat_vector(BilateralShift(), 0.1, window_budget=100)


# -- flat subspaces ------------------------------------------------------------------


def stage_count_oracle(eps, r, power_bound=1):
    thr = Fraction(eps) / (2 ** (r + 3) * (r + 1))
    need = 16 * Fraction(power_bound) ** 2 / (thr * thr)
    return max(math.floor(need) + 1, 2)


def test_flat_subspace_one_dimension():
    sub, rep = flat_subspace(BilateralShift(), 0.5, 1)
    assert sub.dim == 1
    assert rep["schedule"]["counts"] == [stage_count_oracle(0.5, 0)] == [4097]
    assert rep["sup_bound_closed_form"] <= 0.5 / 2
    assert rep["passed"]


def test_flat_subspace_three_stage_certificate():
    sub, rep = flat_subspace(BilateralShift(), 0.25, 3)
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
    sub, rep = flat_subspace(BilateralShift(), 1.9, 2)
    y0, y1 = sub.basis
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
    _, rep_a = flat_subspace(BilateralShift(), 1.5, 2, rng=7)
    _, rep_b = flat_subspace(BilateralShift(), 1.5, 2, rng=7)
    assert [r["n"] for r in rep_a["per_n"]] == [r["n"] for r in rep_b["per_n"]]
    assert [r["norm"] for r in rep_a["per_n"]] == [r["norm"] for r in rep_b["per_n"]]


def test_flat_subspace_validation_and_budget():
    with pytest.raises(DegenerateInputError):
        flat_subspace(BilateralShift(), 0.25, 0)
    with pytest.raises(UnsupportedModelError):
        flat_subspace(UnilateralShift(ConstantWeights(0.9)), 0.25, 2)
    with pytest.raises(WindowBudgetError) as exc:
        flat_subspace(BilateralShift(), 0.25, 3, window_budget=1000)
    assert exc.value.required == 16385 + 262145 + 2359297


def test_flat_report_csv_shape():
    _, rep = flat_subspace(BilateralShift(), 1.5, 2)
    text = flat_report_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "n,norm,stage_bound"
    assert len(lines) == 1 + len(rep["per_n"])
    n0 = int(lines[1].split(",")[0])
    assert n0 == rep["per_n"][0]["n"]


@given(st.floats(min_value=0.05, max_value=1.9))
@settings(max_examples=40, deadline=None)
def test_stage_counts_certify_their_thresholds(eps):
    for r in range(3):
        s_r = stage_count_oracle(eps, r)
        thr = Fraction(eps) / (2 ** (r + 3) * (r + 1))
        assert Fraction(s_r) * thr * thr > 16


# -- spectral preconditions ------------------------------------------------------------


def test_precondition_routes():
    ok, why = spectral_precondition(BilateralShift())
    assert ok and "hull" in why
    ok, why = spectral_precondition(BilateralShift(ConstantWeights(0.5)))
    assert ok and "hull" in why
    ok, why = spectral_precondition(UnilateralShift())
    assert ok
    ok, why = spectral_precondition(DenseOperator(np.eye(2)))
    assert not ok and "finite dimension" in why
    ok, why = spectral_precondition(DiagonalUnitary(PeriodicPhases([0.0, math.pi])))
    assert not ok
    ok, why = spectral_precondition(MultiplicationGrid(16))
    assert not ok


def test_precondition_reports_catalogue_gaps():
    w = FunctionWeights(
        lambda k: np.where(np.asarray(k) < 0, 0.5, 1.0).astype(complex),
        sup_modulus=1.0,
        limit_neg=0.5,
        limit_pos=1.0,
        inf_modulus=0.5,
    )
    ok, why = spectral_precondition(BilateralShift(w))
    assert not ok and "two-circle" in why
