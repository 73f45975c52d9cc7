"""One Check record and one verifier per statement, shared by builder and harness."""

import dataclasses
import json
from fractions import Fraction

import pytest

from orbitforge import harness
from orbitforge.certify import Check, require
from orbitforge.errors import NumericalError
from orbitforge.flatten import flat_subspace, verify_flat_subspace
from orbitforge.harness import check_from_json, emit_report, run_check
from orbitforge.moments import circle_moment_match, verify_moment_match
from orbitforge.nrange import diagonal_compression_subspace, verify_compression
from orbitforge.operators import (
    BilateralShift,
    DiagonalUnitary,
    OperatorPower,
    QuadraticIrrationalRotation,
)
from orbitforge.vectors import WindowVector, normalize
from orbitforge.witness import (
    almost_orthogonal_orbit,
    rokhlin_tower,
    verify_orbit,
    verify_rokhlin_tower,
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


# -- builders self-check with the verifier the harness calls -------------------


def test_orbit_builder_lines_are_the_verifier_lines():
    s = BilateralShift()
    cert = almost_orthogonal_orbit(s, 6, 0.2)
    assert verify_orbit(s, cert.x, 6, 0.2).checks == cert.checks
    diag = DiagonalUnitary(QuadraticIrrationalRotation(2))
    cert = almost_orthogonal_orbit(diag, 4, 0.25)
    assert verify_orbit(diag, cert.x, 4, 0.25).checks == cert.checks


def test_tower_builder_lines_are_the_verifier_lines():
    s = BilateralShift()
    tower = rokhlin_tower(s, 65, 0.25)
    again = verify_rokhlin_tower(s, tower.w, tower.u, 0.25)
    assert again.checks == tower.checks
    assert list(again.link_residuals) == list(tower.link_residuals)


def test_zeroing_builder_lines_are_the_verifier_lines():
    s = BilateralShift()
    ops = (s, OperatorPower(s, 2), OperatorPower(s, 3))
    start = 0.75 ** 0.5 * WindowVector.basis(0)
    cert = zero_tuple_vector(ops, start=start, start_stage=2)
    lines = verify_zeroing(s, [1, 2, 3], cert.x, start, 2, 1e-8)
    assert {c.label: c for c in lines} == {
        k: c for k, c in cert.checks.items() if k != "stage_norms"
    }
    # the distance is measured from the start, against 3 * 2^{-k/2 - 1}
    distance = next(c for c in lines if c.label == "distance")
    assert distance.measured == (cert.x - start).norm()
    assert distance.bound == 0.75


def test_flat_builder_lines_are_the_verifier_lines():
    s = BilateralShift()
    sub, report = flat_subspace(s, 0.5, 2, rng=3)
    lines, measured = verify_flat_subspace(s, sub.basis, 0.5, rng=3)
    assert [c.to_json() for c in lines] == [
        c for c in report["checks"] if c["label"] != "norm_le_2w"
    ]
    assert [r["n"] for r in measured["per_n"]] == [r["n"] for r in report["per_n"]]
    assert measured["stage_bounds"] == report["stage_bounds"]


def test_compression_builder_lines_are_the_verifier_lines():
    s = BilateralShift()
    res = diagonal_compression_subspace(s, 0.4 + 0.1j, 3, dim=2, delta=0.05)
    again = verify_compression(s, res.subspace, 0.4 + 0.1j, 3, 0.05)
    assert again.checks == res.checks
    assert list(again.power_defects) == list(res.power_defects)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_moment_builder_lines_are_the_verifier_lines(mode):
    targets = [Fraction(0), Fraction(1, 100), Fraction(0), Fraction(1, 200)]
    res = circle_moment_match(targets, rho=1, mode=mode)
    lines = verify_moment_match(
        res.measure, [complex(t) for t in targets], mode, res.exact_certificate
    )
    assert lines == res.checks()


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
    sub, report = flat_subspace(BilateralShift(), eps, 1)
    assert report["passed"]
    assert line.to_json() in report["checks"]


def _bent_orbit(monkeypatch, bend):
    real = harness.almost_orthogonal_orbit

    def bent(*args, **kwargs):
        cert = real(*args, **kwargs)
        return dataclasses.replace(cert, x=bend(cert.x))

    monkeypatch.setattr(harness, "almost_orthogonal_orbit", bent)


def test_orbit_check_measures_exact_orthogonality(monkeypatch):
    # x + 1e-4 T x keeps every eps-line of the orbit but breaks x _|_ T x
    s = BilateralShift()
    _bent_orbit(monkeypatch, lambda x: normalize(x + 1e-4 * s.apply(x)))
    c = run_check("orbit_certificate", {"n": 4, "eps": 0.2})
    lines = {r.label: r for r in c.results}
    assert set(lines) == {"orthogonality", "off_diagonal", "norm_window", "recurrence"}
    assert 0.5e-4 < lines["orthogonality"].measured < 2e-4
    assert not lines["orthogonality"].passed
    assert all(lines[k].passed for k in ("off_diagonal", "norm_window", "recurrence"))
    assert not c.passed()


def test_orbit_check_refuses_a_vector_that_is_not_unit(monkeypatch):
    _bent_orbit(monkeypatch, lambda x: x * (1.0 + 1e-9))
    c = run_check("orbit_certificate", {"n": 4, "eps": 0.2})
    (line,) = c.results
    assert line.label == "construction_certificate"
    assert line.bound == 1e-12
    assert line.measured == pytest.approx(1e-9, rel=1e-3)
    assert "not unit" in c.diagnostics
