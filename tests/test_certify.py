"""One Check line, one Certificate record, and one verifier per statement,
run once by the builder, whose record the harness reports."""

import json
from fractions import Fraction

import numpy as np
import pytest

from orbitforge import harness
from orbitforge.certify import Certificate, Check, require
from orbitforge.errors import NumericalError
from orbitforge.flatten import flat_subspace, verify_flat_subspace
from orbitforge.harness import CHECK_IDS, check_from_json, emit_report, run_check
from orbitforge.moments import circle_moment_match, verify_moment_match
from orbitforge.nrange import diagonal_compression_subspace, verify_compression
from orbitforge.operators import (
    BilateralShift,
    DiagonalUnitary,
    MultiplicationGrid,
    OperatorPower,
    QuadraticIrrationalRotation,
)
from orbitforge.vectors import WindowVector, normalize
from orbitforge.witness import (
    almost_orthogonal_orbit,
    rokhlin_tower,
    rotation_tower,
    verify_orbit,
    verify_rokhlin_tower,
    verify_rotation_tower,
    verify_zeroing,
    zero_tuple_vector,
)


def test_comparison_is_applied_when_the_line_is_made():
    assert Check.at_most("a", 1.0, 1.0).passed
    assert not Check.below("a", 1.0, 1.0).passed
    assert Check.below("a", 0.5, 1.0) == Check("a", 0.5, 1.0, True)
    line = Check.at_most("a", 2, 1)
    assert (line.measured, line.bound, line.passed) == (2.0, 1.0, False)
    assert line.to_json() == {"label": "a", "measured": 2.0, "bound": 1.0, "passed": False}
    assert Check(**json.loads(json.dumps(line.to_json()))) == line


def test_require_names_the_failed_line():
    ok = Check.at_most("fine", 0.0, 1.0)
    assert require([ok], "thing") == {"fine": ok}
    with pytest.raises(NumericalError, match="thing failed its own recheck: bad") as exc:
        require([ok, Check.below("bad", 3.0, 2.0)], "thing")
    assert (exc.value.residual, exc.value.bound) == (3.0, 2.0)


def test_report_written_with_the_old_line_type_still_parses():
    # a moment_exact record as the four-key line type wrote it
    blob = {
        "check_id": "moment_exact",
        "params": {"mode": "exact", "rho": "1", "eps": ["0", "1/100"]},
        "results": [
            {"label": "moment_error", "measured": 1.7e-16, "bound": 1e-12, "passed": True},
            {"label": "mass", "measured": 2.2e-16, "bound": 1e-12, "passed": True},
            {"label": "symbolic_zero_defects", "measured": 0.0, "bound": 0.0, "passed": True},
        ],
        "seed": 0,
        "diagnostics": None,
        "statement": "...",
        "passed": True,
    }
    c = check_from_json(blob)
    assert c.passed()
    assert c.results[1] == Check("mass", 2.2e-16, 1e-12, True)
    assert json.loads(emit_report(c, "json"))["results"] == blob["results"]


# -- the builder's record is a fresh verifier record on the returned objects -----
# each case returns (built, fresh) after the assertions the record alone cannot make


def _orbit(op, n, eps):
    cert = almost_orthogonal_orbit(op, n, eps)
    return cert, verify_orbit(op, cert.x, n, eps)


def _tower():
    s = BilateralShift()
    tower = rokhlin_tower(s, 65, 0.25)
    again = verify_rokhlin_tower(s, tower.w, tower.u, 0.25)
    assert list(again.link_residuals) == list(tower.link_residuals)
    return tower, again


def _rotation_tower():
    grid = MultiplicationGrid(64)
    tower = rotation_tower(grid, 8)
    again = verify_rotation_tower(grid, tower.w)
    assert list(again.link_residuals) == list(tower.link_residuals)
    assert (again.sum_defect, again.gram_defect) == (tower.sum_defect, tower.gram_defect)
    return tower, again


def _zeroing():
    s = BilateralShift()
    ops = (s, OperatorPower(s, 2), OperatorPower(s, 3))
    start = 0.75 ** 0.5 * WindowVector.basis(0)
    cert = zero_tuple_vector(ops, start=start, start_stage=2)
    again = verify_zeroing(s, [1, 2, 3], cert.x, start, 2, 1e-8)
    # the distance is measured from the start, against 3 * 2^{-k/2 - 1}
    assert again.checks["distance"].measured == (cert.x - start).norm()
    assert again.checks["distance"].bound == 0.75
    return cert, again


def _flat():
    s = BilateralShift()
    cert = flat_subspace(s, 0.5, 2, rng=3)
    again = verify_flat_subspace(s, cert.basis, 0.5, rng=3)
    assert again.per_n == cert.per_n
    assert again.stage_bounds == cert.stage_bounds
    return cert, again


def _compression():
    s = BilateralShift()
    res = diagonal_compression_subspace(s, 0.4 + 0.1j, 3, dim=2, delta=0.05)
    again = verify_compression(s, res.subspace, 0.4 + 0.1j, 3, 0.05)
    assert list(again.power_defects) == list(res.power_defects)
    return res, again


def _moments(mode):
    targets = [Fraction(0), Fraction(1, 100), Fraction(0), Fraction(1, 200)]
    res = circle_moment_match(targets, rho=1, mode=mode)
    again = verify_moment_match(
        res.measure, [complex(t) for t in targets], mode, res.stages, res.exact_certificate
    )
    assert np.array_equal(again.residuals, res.residuals)
    return res, again


BUILDS = {
    "orbit": lambda: _orbit(BilateralShift(), 6, 0.2),
    "orbit_diagonal": lambda: _orbit(DiagonalUnitary(QuadraticIrrationalRotation(2)), 4, 0.25),
    "tower": _tower,
    "rotation_tower": _rotation_tower,
    "zeroing": _zeroing,
    "flat": _flat,
    "compression": _compression,
    "moments_exact": lambda: _moments("exact"),
    "moments_float": lambda: _moments("float"),
}


@pytest.mark.parametrize("build", BUILDS)
def test_builder_record_is_the_verifier_record(build):
    built, fresh = BUILDS[build]()
    assert isinstance(built, Certificate) and type(fresh) is type(built)
    assert built.passed() and built.lines()
    assert fresh.checks == built.checks


def test_rotation_tower_returns_a_certificate():
    tower = rotation_tower(MultiplicationGrid(64), 8)
    assert isinstance(tower, Certificate) and tower.passed()
    assert [c.label for c in tower.lines()] == ["zero_sum", "links", "unit_norms"]


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_run_check_reports_exactly_the_record_lines(check_id):
    params, record = harness._SUITES[check_id]({}, 0)
    assert isinstance(record, Certificate)
    c = run_check(check_id, None, seed=0)
    assert (c.params, c.results) == (params, record.lines())


def test_certificate_verdict_and_slack_read_the_lines():
    ok, tight = Check.at_most("a", 0.5, 1.0), Check.below("b", 0.9, 1.0)
    cert = Certificate(checks={"a": ok, "b": tight})
    assert cert.passed() and cert.lines() == [ok, tight] and cert.params == {}
    assert cert.worst_slack() == pytest.approx(0.1)
    assert not Certificate(checks={"c": Check.at_most("c", 2.0, 1.0)}).passed()
    assert Certificate(checks={}).worst_slack() == 0.0


# -- the harness lines ------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.3, 0.35, 0.4, 0.7, 0.8, 0.9, 1.5])
def test_flat_sampled_ratio_is_an_enclosure(eps):
    # d = 1 samples a realized difference, where the exact ratio ||C_n|| /
    # stage bound is 1 and the computed one can round above it
    c = run_check("flat_subspace", {"eps": eps, "d": 1})
    assert c.passed(), c.results
    line = next(r for r in c.results if r.label == "sampled_within_bounds")
    assert line.bound == 1.0 + 42 * 2.0 ** -53
    assert 1.0 - 1e-15 <= line.measured <= line.bound
    cert = flat_subspace(BilateralShift(), eps, 1)
    assert cert.passed()
    assert cert.checks["sampled_within_bounds"] == line


def _closed_form_lines(eps, d):
    s = BilateralShift()
    basis = flat_subspace(s, eps, d).basis
    found = {k: Fraction(c.measured) for k, c in verify_flat_subspace(s, basis, eps).checks.items()}
    return [len(v) for v in basis], found["sup_closed_form"], found["stage_tails_rescaled"]


@pytest.mark.parametrize("eps", [0.3, 0.9, 1.5])
def test_flat_closed_form_norm_is_an_enclosure_of_one_stage(eps):
    # d = 1: B = [[1/s]], and fl(1/s) rounds below 1/s at these eps
    (count,), sup, tails = _closed_form_lines(eps, 1)
    assert Fraction(1, count) <= sup <= Fraction(1, count) * (1 + Fraction(1, 10 ** 14))
    assert tails == 0


def test_flat_closed_form_lines_enclose_two_stages():
    # B = [[1/s0, 0], [1/sqrt(s0 s1), 1/s1]]: ||B||^2 is the larger root of
    # l^2 - tr l + det^2 with tr = sum of squared entries and det = 1/(s0 s1);
    # the stage-0-dead tail is 2 ||(1/sqrt(s0 s1), 1/s1)||
    (s0, s1), sup, tails = _closed_form_lines(0.5, 2)
    tr = Fraction(1, s0 * s0) + Fraction(1, s0 * s1) + Fraction(1, s1 * s1)
    det = Fraction(1, s0 * s1)
    lift = 2 * sup * sup - tr
    assert lift >= 0 and lift * lift >= tr * tr - 4 * det * det
    assert tails * tails >= 4 * (Fraction(1, s0 * s1) + Fraction(1, s1 * s1))


def _bent_orbit_lines(bend, n=4, eps=0.2):
    s = BilateralShift()
    cert = almost_orthogonal_orbit(s, n, eps)
    return verify_orbit(s, bend(cert.x), n, eps).checks


def test_orbit_check_measures_exact_orthogonality():
    # x + 1e-4 T x keeps every eps-line of the orbit but breaks x _|_ T x
    s = BilateralShift()
    lines = _bent_orbit_lines(lambda x: normalize(x + 1e-4 * s.apply(x)))
    assert set(lines) == {"orthogonality", "off_diagonal", "norm_window", "recurrence"}
    assert 0.5e-4 < lines["orthogonality"].measured < 2e-4
    assert not lines["orthogonality"].passed
    assert all(lines[k].passed for k in ("off_diagonal", "norm_window", "recurrence"))


def test_orbit_check_refuses_a_vector_that_is_not_unit():
    with pytest.raises(NumericalError, match="not unit") as exc:
        _bent_orbit_lines(lambda x: x * (1.0 + 1e-9))
    assert exc.value.bound == 1e-12
    assert exc.value.residual == pytest.approx(1e-9, rel=1e-3)
