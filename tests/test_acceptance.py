"""Top-level acceptance: nine criteria, each printing one pass/fail line.

Every criterion re-measures its inequalities from raw vectors and operators
at the stated tolerances, and enforces its own wall-clock budget.  Run
directly (python3 tests/test_acceptance.py) for the results as a list, or
through pytest as ordinary tests.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from orbitforge.cli import main as cli_main
from orbitforge.errors import PreconditionError
from orbitforge.exactring import QI
from orbitforge.flatten import flat_subspace, weak_decay_probe
from orbitforge.moments import admissible_radius_exact, circle_moment_match
from orbitforge.nrange import numerical_radius, radius_norm_bounds
from orbitforge.operators import (
    BilateralShift,
    DenseOperator,
    DiagonalUnitary,
    MultiplicationGrid,
    OperatorPower,
    QuadraticIrrationalRotation,
    apply_power,
)
from orbitforge.spectra import orbit_to_approx_eigenvector
from orbitforge.vectors import WindowVector, inner
from orbitforge.witness import (
    almost_orthogonal_orbit,
    rokhlin_tower,
    rotation_tower,
    zero_iteration_step,
)

TWO_PI = 2.0 * math.pi


def _report(number, label, t0, limit):
    dt = time.time() - t0
    assert dt < limit, f"criterion {number} took {dt:.1f}s, budget {limit}s"
    print(f"PASS  criterion {number}: {label}  ({dt:.2f}s < {limit:.0f}s)")


def test_criterion_1_moment_matching_exactness():
    t0 = time.time()
    for n in range(1, 7):
        assert admissible_radius_exact(1, n) == Fraction(1, 2 ** n - 1)
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        rho = (Fraction(1, 2), Fraction(1), Fraction(2))[int(rng.integers(3))]
        r = admissible_radius_exact(rho, n)
        coeffs = [
            (
                Fraction(int(rng.integers(-99, 100)), 401) * r,
                Fraction(int(rng.integers(-99, 100)), 401) * r,
            )
            for _ in range(n)
        ]
        res = circle_moment_match(
            [QI(a, b) for a, b in coeffs], rho=rho, mode="exact"
        )
        assert res.exact_certificate["moment_defects_zero"]
        assert res.exact_certificate["mass_defect_zero"]
        targets = np.array([complex(a, b) for a, b in coeffs])
        fres = circle_moment_match(list(targets), rho=float(rho), mode="float")
        err = np.max(np.abs(fres.measure.moments(n) - targets))
        assert err <= 1e-10
        assert abs(fres.measure.mass() - 1.0) <= 1e-10
    _report(1, "moment matching exact in rational mode, <= 1e-10 in float", t0, 10)


def test_criterion_2_zeroing_iteration_ladder():
    t0 = time.time()
    s = BilateralShift()
    ops = tuple(OperatorPower(s, p) for p in range(1, 5))
    x = WindowVector.zero()
    for stage in range(10):
        x = zero_iteration_step(ops, x, stage)
        assert abs(x.norm() ** 2 - (1.0 - 2.0 ** -(stage + 1))) <= 1e-10
    w = x * (1.0 / x.norm())
    assert (w - WindowVector.zero()).norm() <= 3.0 * 2.0 ** (-0.0 / 2 - 1)
    for j in range(1, 5):
        assert abs(inner(apply_power(s, w, j), w)) <= 1e-8
    _report(2, "stage norms on the 1 - 2^-m ladder, forms zeroed", t0, 30)


def test_criterion_3_orbit_certificate_with_budget():
    t0 = time.time()
    cert = almost_orthogonal_orbit(BilateralShift(), 8, 0.1, window_budget=10 ** 6)
    assert cert.passed()
    slacks = {
        name: chk.bound - chk.measured for name, chk in cert.checks.items()
    }
    assert set(slacks) == {"orthogonality", "off_diagonal", "norm_window", "recurrence"}
    assert all(s >= 0.0 for s in slacks.values())
    assert cert.checks["orthogonality"].measured <= 1e-8
    assert cert.params["entries_charged"] <= 10 ** 6
    slack_text = " ".join(f"{k}={v:.2e}" for k, v in sorted(slacks.items()))
    _report(3, f"orbit n=8 eps=0.1 within 1e6 entries; slack {slack_text}", t0, 60)


def test_criterion_4_invariant_tower_threshold():
    t0 = time.time()
    s = BilateralShift()
    with pytest.raises(PreconditionError) as exc:
        rokhlin_tower(s, 64, 0.25)
    assert exc.value.minimal_n == 65
    tower = rokhlin_tower(s, 65, 0.25)
    n = tower.n
    gram = np.array([[inner(a, b) for b in tower.w] for a in tower.w])
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
    total = WindowVector.zero()
    for w in tower.w:
        total = total + w
    assert (total * (1.0 / math.sqrt(n)) - tower.u).norm() <= 1e-12
    links = [(s.apply(tower.w[j]) - tower.w[j + 1]).norm() for j in range(n - 1)]
    assert max(links) < 0.25
    _report(4, "tower refuses n=64, passes n=65 with links < 0.25", t0, 30)


def test_criterion_5_rotation_towers_on_the_grid():
    t0 = time.time()
    grid = MultiplicationGrid(4096)
    for n in (8, 64, 512):
        tower = rotation_tower(grid, n)
        links = [
            (grid.apply(tower.w[j]) - tower.w[(j + 1) % n]).norm() for j in range(n)
        ]
        assert max(links) <= TWO_PI / n + 1e-12
        total = WindowVector.zero()
        for w in tower.w:
            total = total + w
        pointwise = np.max(np.abs(total.values)) if len(total.values) else 0.0
        assert pointwise <= 1e-12
        assert all(abs(w.norm() - 1.0) <= 1e-12 for w in tower.w)
    _report(5, "grid towers n in {8, 64, 512}: links <= 2 pi / n, zero sum", t0, 10)


def test_criterion_6_flat_subspace_certificate():
    t0 = time.time()
    eps = 0.25
    sub, report = flat_subspace(BilateralShift(), eps, 3)
    assert report["sup_bound_closed_form"] <= eps
    for r, sb in enumerate(report["stage_bounds"]):
        assert sb <= eps * 2.0 ** (-r)
    counts = report["schedule"]["counts"]
    thresholds = [Fraction(t) for t in report["schedule"]["thresholds"]]
    for r, (s_r, thr) in enumerate(zip(counts, thresholds)):
        assert thr == Fraction(eps) / (2 ** (r + 3) * (r + 1))
        assert Fraction(s_r) * thr * thr > 16
    s = BilateralShift()
    beyond = report["total_span"] + 1
    for a in sub.basis:
        for b in sub.basis:
            assert inner(apply_power(s, a, beyond), b) == 0.0
    _report(6, "flat subspace d=3: sup <= 0.25, exact zero beyond the span", t0, 120)


def test_criterion_7_numerical_radius_comparisons():
    t0 = time.time()
    j2 = np.array([[0.0, 1.0], [0.0, 0.0]], complex)
    w, _ = numerical_radius(j2)
    assert abs(w - 0.5) <= 1e-6
    rng = np.random.default_rng(7)
    oracle = 0.0
    for _ in range(20000):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x /= np.linalg.norm(x)
        oracle = max(oracle, abs(np.vdot(x, j2 @ x)))
    assert oracle <= w + 1e-9
    assert abs(oracle - w) <= 1e-3
    rng = np.random.default_rng(42)
    for _ in range(100):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        bounds = radius_norm_bounds(DenseOperator(a))
        assert bounds["norm_bound"] <= 2.0 * bounds["radius"] + 1e-8
        assert bounds["radius"] <= bounds["norm_bound"] + 1e-9
    _report(7, "J2 radius 0.5 within 1e-6; norm <= 2w on 100 random 8x8", t0, 30)


def test_criterion_8_orbit_to_eigenvector_scaling():
    t0 = time.time()
    s = BilateralShift()
    residuals = []
    for k in (4, 8, 16):
        cert = almost_orthogonal_orbit(s, k, 1.0 / k)
        pair = orbit_to_approx_eigenvector(s, cert.x, 1.0, k)
        measured = (s.apply(pair.vector) - pair.vector).norm()
        assert measured < 3.0 / k
        residuals.append(measured)
    assert residuals[0] > residuals[1] > residuals[2]
    _report(8, "eigenvector residuals decrease with k, each below 3/k", t0, 60)


def test_criterion_9_hypothesis_refusals():
    t0 = time.time()
    diag = DiagonalUnitary(QuadraticIrrationalRotation(2))
    probe = weak_decay_probe(diag, [WindowVector.basis(0)], 16)
    assert not probe.decays
    assert cli_main(["flatten", "--model", "diagonal-qi:2", "--eps", "0.5"]) == 2
    with pytest.raises(PreconditionError):
        almost_orthogonal_orbit(DenseOperator(np.eye(4)), 4, 0.1)
    _report(9, "non-decaying and finite models are refused, exit code 2", t0, 5)


if __name__ == "__main__":
    for fn in sorted(
        (name, obj) for name, obj in list(globals().items())
        if name.startswith("test_criterion_")
    ):
        fn[1]()
