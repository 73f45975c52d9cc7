"""The benchmark's workloads: inputs made from a seed, a fixed certificate
list, and a correctness gate for every certificate.

A certificate is timed from the call into orbitforge until it returns a
checked result (the harness checks re-measure inside that time).  The gate
then runs untimed: it recomputes what it can from the raw output with numpy
alone and returns the measured values that feed the replay digest.

Calls go through module attributes (``witness.almost_orthogonal_orbit``,
not an imported name) so that the tracer's wrappers are seen.

Which layer should move which end-to-end metric, and where it should not:

- ``vectors`` (inner, add_scaled, translate): wall_s, slowest_cert_s and
  peak_rss_mb on verify_suite (inner on equal supports, the 65-row Rokhlin
  Gram) and on shift_orbits (inner on shifted 0.5M-entry supports,
  add_scaled writes); no change on dense_exact.
- ``operators.find_index``: wall_s on dense_exact, about a tenth of
  verify_suite; no change on shift_orbits.
- ``spectra``: wall_s on shift_orbits.
- ``nrange`` (numerical radius, eigvalsh) and ``moments`` (exact matching,
  which covers exactring): wall_s on dense_exact only.
- ``harness`` re-measurement: wall_s on verify_suite only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from orbitforge import harness, moments, nrange, operators, spectra, witness
from orbitforge.exactring import QI


@dataclass
class Cert:
    name: str
    run: Callable[[], Any]
    # result -> (passed, measured values for the replay digest)
    check: Callable[[Any], tuple]


@dataclass
class Workload:
    warmup: Cert
    certs: list
    # measured values by certificate name -> failed statements of one pass
    check_pass: Callable[[dict], list] = lambda values: []


# -- verify_suite: the eight verify checks at defaults (harness.run_all) ------


def _verified(check):
    values = [(r.label, r.measured, r.bound, r.passed) for r in check.results]
    return check.passed(), values


def _run_check(check_id, seed):
    return Cert(check_id, lambda: harness.run_check(check_id, None, seed), _verified)


def verify_suite(seed):
    return Workload(
        warmup=_run_check("orbit_reverse_eigenvector", seed),
        certs=[_run_check(cid, seed) for cid in harness.CHECK_IDS],
    )


# -- shift_orbits: criterion 8 at a seed-chosen root of unity -----------------

ORBIT_LENGTHS = (4, 8, 16)


def _shift_residual(y, lam):
    """||(S - lam) y|| for the unweighted bilateral shift, (S y)_{i+1} = y_i."""
    idx = np.union1d(y.indices, y.indices + 1)
    out = np.zeros(len(idx), np.complex128)
    out[np.searchsorted(idx, y.indices + 1)] += y.values
    out[np.searchsorted(idx, y.indices)] -= lam * y.values
    return float(np.linalg.norm(out))


def _orbit_fold(n, lam):
    shift = operators.BilateralShift()

    def run():
        cert = witness.almost_orthogonal_orbit(shift, n, 1.0 / n)
        return cert, spectra.orbit_to_approx_eigenvector(shift, cert.x, lam, n)

    def check(result):
        cert, pair = result
        residual = _shift_residual(pair.vector, lam)
        passed = cert.passed() and residual < 3.0 / n
        return passed, [cert.gram, cert.norms, cert.recurrence, pair.residual, residual]

    return Cert(f"orbit_n{n}", run, check)


def _residuals_decrease(values):
    residuals = [values[f"orbit_n{n}"][-1] for n in ORBIT_LENGTHS]
    if all(a > b for a, b in zip(residuals, residuals[1:])):
        return []
    return [f"eigen residuals {residuals} do not decrease in n={ORBIT_LENGTHS}"]


def shift_orbits(seed):
    rng = np.random.default_rng(seed)
    lams = {n: cmath.exp(2j * math.pi * int(rng.integers(n)) / n) for n in ORBIT_LENGTHS}
    return Workload(
        warmup=_orbit_fold(8, lams[8]),
        certs=[_orbit_fold(n, lams[n]) for n in ORBIT_LENGTHS],
        check_pass=_residuals_decrease,
    )


# -- dense_exact: radius bounds, exact moment matching, phase-index search ----

RADIUS_CASES = ((8, 80), (64, 8))  # (matrix size, count)
DIAGONAL_ORBIT_LENGTHS = (4, 8, 16)
MOMENT_MATCHES = 400
MOMENT_RHOS = (Fraction(1, 2), Fraction(1), Fraction(2))


def _radius(a):
    def run():
        return nrange.radius_norm_bounds(operators.DenseOperator(a))

    def check(bounds):
        w = bounds["radius"]
        norm = float(np.linalg.norm(a, 2))
        # w <= ||T|| up to the rounding of two float64 eigen/singular solves
        passed = bool(
            bounds["lower_holds"]
            and bounds["upper_holds"]
            and w <= norm * (1.0 + 1e-12)
            and norm <= 2.0 * w
        )
        return passed, [w, bounds["norm_bound"], norm]

    return Cert(f"radius_{len(a)}x{len(a)}", run, check)


def _diagonal_orbit(n):
    op = harness.build_model("diagonal-qi:2")

    def check(cert):
        return cert.passed(), [cert.gram, cert.norms, cert.recurrence, cert.x.indices]

    return Cert(f"diagonal_orbit_n{n}", lambda: witness.almost_orthogonal_orbit(op, n, 1.0 / n), check)


def _measure_error(measure, targets):
    z, w = measure.positions, measure.weights
    err = max(abs(np.sum(w * z ** k) - t) for k, t in enumerate(targets, start=1))
    return float(err), abs(float(np.sum(w)) - 1.0)


def _moment_match(coeffs, rho):
    exact_targets = [QI(a, b) for a, b in coeffs]
    float_targets = [complex(float(a), float(b)) for a, b in coeffs]

    def run():
        exact = moments.circle_moment_match(exact_targets, rho=rho, mode="exact")
        approx = moments.circle_moment_match(float_targets, rho=float(rho), mode="float")
        return exact, approx

    def check(result):
        exact, approx = result
        cert = exact.exact_certificate or {}
        errors = _measure_error(exact.measure, float_targets) + _measure_error(
            approx.measure, float_targets
        )
        passed = bool(
            cert.get("moment_defects_zero")
            and cert.get("mass_defect_zero")
            and max(errors) <= 1e-10
        )
        measures = (exact.measure, approx.measure)
        return passed, [a for m in measures for a in (m.positions, m.weights)]

    return Cert(f"moments_n{len(coeffs)}", run, check)


def dense_exact(seed):
    rng = np.random.default_rng(seed)
    certs = []
    for size, count in RADIUS_CASES:
        for _ in range(count):
            a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            certs.append(_radius(a))
    certs += [_diagonal_orbit(n) for n in DIAGONAL_ORBIT_LENGTHS]
    for i in range(MOMENT_MATCHES):
        n = 1 + i % 6
        rho = MOMENT_RHOS[(i // 6) % len(MOMENT_RHOS)]
        r = moments.admissible_radius_exact(rho, n)
        coeffs = [
            (Fraction(int(rng.integers(-99, 100)), 401) * r, Fraction(int(rng.integers(-99, 100)), 401) * r)
            for _ in range(n)
        ]
        certs.append(_moment_match(coeffs, rho))
    for i, cert in enumerate(certs):
        cert.name = f"{i:03d}_{cert.name}"
    return Workload(warmup=certs[0], certs=certs)


WORKLOADS = {
    "verify_suite": verify_suite,
    "shift_orbits": shift_orbits,
    "dense_exact": dense_exact,
}
