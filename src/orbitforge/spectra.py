"""Spectral descriptors for the model catalogue.

For the lazy models (shifts, diagonal unitaries, grids) the four spectral sets
are known in closed form and are returned as :class:`Region` descriptors:

    sigma       spectrum
    sigma_pi    approximate point spectrum
    sigma_e     essential spectrum
    sigma_pi_e  essential approximate point spectrum

Every descriptor this module emits is falsifiable: the test suite checks each
claimed sigma_pi point by producing an approximate eigenvector with small
residual, and each claimed complement point by a resolvent bound.  Models
whose spectral sets fall outside the region vocabulary are refused rather
than approximated.

Points of a spectral circle are realized by
:func:`approx_eigenvector_family` as bare unit vectors whose cross terms
vanish exactly, charged to the one :class:`~orbitforge.vectors.BudgetMeter`
of the calling construction.  The orbit, tower and witness builders mix
those vectors, and their certificates measure what the mix gives;
:func:`approx_eigenvector` realizes a single point with its residual
measured, for falsifying the catalogue.

Dense matrices get an eigenvalue computation instead of a catalogue entry:
:func:`dense_spectrum` takes LAPACK's eigenpairs and returns the eigenvalues
together with a backward-error line re-measured from the raw pairs, so a
caller never has to trust the eigensolver, only the residual check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .certify import UNIT_TOL, Check, require
from .errors import (
    DegenerateInputError,
    DomainError,
    NumericalError,
    PreconditionError,
    UnsupportedModelError,
)
from .operators import (
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
from .vectors import BudgetMeter, WindowVector, combine

REGION_KINDS = ("empty", "points", "circle", "annulus", "disk")


@dataclass(frozen=True)
class Region:
    """Origin-symmetric spectral region, or a finite point list.

    circle(r) is the circumference |z| = r, disk(r) is |z| <= r, and
    annulus(r_in, r_out) is r_in <= |z| <= r_out.  points carries an explicit
    tuple of complex numbers.
    """

    kind: str
    points: tuple = ()
    r_in: float = 0.0
    r_out: float = 0.0

    def __post_init__(self):
        if self.kind not in REGION_KINDS:
            raise DegenerateInputError(f"unknown region kind {self.kind!r}")
        if self.kind == "annulus" and not 0 <= self.r_in <= self.r_out:
            raise DegenerateInputError("annulus radii must satisfy 0 <= r_in <= r_out")
        if self.kind in ("circle", "disk") and self.r_out < 0:
            raise DegenerateInputError("radius must be nonnegative")

    def contains_point(self, z, tol=1e-9):
        z = complex(z)
        if self.kind == "empty":
            return False
        if self.kind == "points":
            return any(abs(z - p) <= tol for p in self.points)
        r = abs(z)
        if self.kind == "circle":
            return abs(r - self.r_out) <= tol
        if self.kind == "disk":
            return r <= self.r_out + tol
        return self.r_in - tol <= r <= self.r_out + tol

    def contains_circle(self, radius, tol=1e-9):
        """Does the whole circumference |z| = radius sit inside the region?"""
        radius = float(radius)
        if self.kind == "circle":
            return abs(radius - self.r_out) <= tol
        if self.kind == "disk":
            return radius <= self.r_out + tol
        if self.kind == "annulus":
            return self.r_in - tol <= radius <= self.r_out + tol
        if self.kind == "points":
            # a finite set contains a circle only when the circle degenerates
            return radius <= tol and self.contains_point(0.0, tol)
        return False

    def to_json(self):
        if self.kind == "points":
            params = {"points": [[p.real, p.imag] for p in self.points]}
        elif self.kind == "circle" or self.kind == "disk":
            params = {"radius": self.r_out}
        elif self.kind == "annulus":
            params = {"r_in": self.r_in, "r_out": self.r_out}
        else:
            params = {}
        return {"kind": self.kind, "params": params}


def region_from_json(obj):
    kind = obj["kind"]
    params = obj.get("params", {})
    if kind == "points":
        return Region("points", points=tuple(complex(re, im) for re, im in params["points"]))
    if kind in ("circle", "disk"):
        return Region(kind, r_out=float(params["radius"]))
    if kind == "annulus":
        return Region(kind, r_in=float(params["r_in"]), r_out=float(params["r_out"]))
    return Region("empty")


def empty_region():
    return Region("empty")


def point_region(points):
    return Region("points", points=tuple(complex(p) for p in points))


def circle_region(radius):
    return Region("circle", r_out=float(radius))


def disk_region(radius):
    return Region("disk", r_out=float(radius))


def polynomial_hull(region):
    """Fill the holes of a region.

    A circle or annulus separates the plane, so its hull is the enclosing
    disk.  A finite point set separates nothing and is its own hull; same for
    a disk and the empty set.
    """
    if region.kind == "circle":
        return disk_region(region.r_out)
    if region.kind == "annulus":
        return disk_region(region.r_out)
    return region


def hull_contains_zero(region, tol=1e-9):
    return polynomial_hull(region).contains_point(0.0, tol)


@dataclass(frozen=True)
class SpectralInfo:
    sigma: Region
    sigma_pi: Region
    sigma_e: Region
    sigma_pi_e: Region

    def to_json(self):
        return {
            "sigma": self.sigma.to_json(),
            "sigma_pi": self.sigma_pi.to_json(),
            "sigma_e": self.sigma_e.to_json(),
            "sigma_pi_e": self.sigma_pi_e.to_json(),
        }


def _shift_modulus(weights):
    """Single catalogue modulus of a weight rule, or an explanatory refusal."""
    if weights is None:
        return 1.0
    if isinstance(weights, ConstantWeights):
        return abs(weights.value)
    if isinstance(weights, PeriodicWeights):
        # gauge away the phases, then p-th power spectral mapping
        return weights.geometric_mean_modulus()
    if isinstance(weights, FunctionWeights):
        lims = weights.modulus_limits()
        if lims is None:
            raise UnsupportedModelError(
                "function weights need declared modulus limits at both ends"
            )
        if weights.inf_modulus is None or weights.inf_modulus <= 0:
            raise UnsupportedModelError(
                "function weights need a declared positive lower modulus bound"
            )
        if lims[0] != lims[1]:
            raise UnsupportedModelError(
                "unequal end limits give a two-circle essential spectrum, "
                "which the region catalogue cannot express"
            )
        return lims[0]
    raise UnsupportedModelError(f"unknown weight rule {type(weights).__name__}")


def _diagonal_phase_points(rule):
    if isinstance(rule, PeriodicPhases):
        seen = []
        for p in rule.values:
            z = cmath.exp(1j * float(p))
            if all(abs(z - q) > 1e-12 for q in seen):
                seen.append(z)
        return point_region(seen)
    return None


def spectral_descriptor(op):
    """Closed-form spectral sets for a catalogued model."""
    if isinstance(op, BilateralShift):
        rho = _shift_modulus(op.weights)
        c = circle_region(rho)
        return SpectralInfo(c, c, c, c)
    if isinstance(op, UnilateralShift):
        rho = _shift_modulus(op.weights)
        c = circle_region(rho)
        return SpectralInfo(disk_region(rho), c, c, c)
    if isinstance(op, DiagonalUnitary):
        pts = _diagonal_phase_points(op.phase_rule)
        if pts is not None:
            return SpectralInfo(pts, pts, pts, pts)
        if isinstance(op.phase_rule, QuadraticIrrationalRotation):
            # irrational rotation: the phase orbit is dense, every circle
            # point is an accumulation of eigenvalues, hence essential
            c = circle_region(1.0)
            return SpectralInfo(c, c, c, c)
        raise UnsupportedModelError(
            f"no catalogue entry for phase rule {type(op.phase_rule).__name__}"
        )
    if isinstance(op, MultiplicationGrid):
        nodes = point_region(
            [cmath.exp(2j * math.pi * k / op.dim) for k in range(op.dim)]
        )
        return SpectralInfo(nodes, nodes, empty_region(), empty_region())
    if isinstance(op, DenseOperator):
        eigs, _cert = dense_spectrum(op)
        pts = point_region(eigs)
        return SpectralInfo(pts, pts, empty_region(), empty_region())
    raise UnsupportedModelError(f"no catalogue entry for {type(op).__name__}")


def circle_in_pi_essential(op, radius=1.0, tol=1e-9):
    """Decide circle(radius) <= sigma_pi_e(T), reporting which route fired.

    Route "catalogue": the descriptor's sigma_pi_e already contains the
    circle.  Route "hull": the circle sits in sigma while ||T|| keeps the
    spectral radius at the circle's radius, which pins the circle to the
    boundary of the spectrum; boundary spectrum of that kind is essential
    approximate point spectrum.  Both routes are evaluated so a catalogue
    regression cannot silently change the answer.
    """
    info = spectral_descriptor(op)
    catalogue = info.sigma_pi_e.contains_circle(radius, tol)
    hull = (
        info.sigma.contains_circle(radius, tol)
        and op.norm_bound() <= radius + tol
    )
    if catalogue or hull:
        route = "catalogue" if catalogue else "hull"
        if catalogue and hull:
            route = "catalogue+hull"
        return True, route
    return False, "none"


def essential_circle_route(op, radius=1.0):
    """The route of :func:`circle_in_pi_essential`, or PreconditionError
    when circle(radius) is not in sigma_pi_e(T)."""
    ok, route = circle_in_pi_essential(op, radius)
    if not ok:
        raise PreconditionError(
            f"the circle of radius {radius:g} is not in the essential approximate "
            f"point spectrum of this {type(op).__name__}"
        )
    return route


def circle_radius(op):
    """Radius of the spectral circle whose points the family realizes.

    Shifts need a constant-modulus weight and diagonals a dense phase orbit;
    finite-rank models get 1.0, so that :func:`essential_circle_route`
    refuses them for their empty essential spectrum.
    """
    if isinstance(op, (BilateralShift, UnilateralShift)):
        if op.weights is None:
            return 1.0
        if isinstance(op.weights, ConstantWeights):
            return abs(op.weights.value)
        raise UnsupportedModelError("need a constant-modulus shift weight")
    if isinstance(op, DiagonalUnitary):
        if isinstance(op.phase_rule, QuadraticIrrationalRotation):
            return 1.0
        raise UnsupportedModelError("need a dense phase orbit on the diagonal")
    if isinstance(op, (DenseOperator, MultiplicationGrid)):
        return 1.0
    raise UnsupportedModelError(f"no circle realization for {type(op).__name__}")


# ---------------------------------------------------------------------------
# approximate eigenvectors for catalogued models


def _off_circle(lam, radius, tol):
    """True unless | |lam| - radius | <= tol; NaN lies off every circle."""
    return not abs(abs(lam) - radius) <= tol


def shift_eigen_window(op, lam, m, start=0):
    """Unit window vector x with ||op x - lam x|| = |lam| sqrt(2/m).

    The profile solves the eigen-recurrence x_{j+1} = lam x_j / w exactly, so
    the residual lives entirely on the two window edges.  Only shifts with a
    constant weight are supported; |lam| must match the weight modulus.

    Entry k is (|r|^-k / sqrt(m)) exp(-i theta k) with r = lam / w and
    theta = arg r, a modulus times a unit phase.  The modulus factor stays
    because |r| may differ from 1 by up to 1e-12, which moves |r|^-k by up
    to k 1e-12.  The angle is taken as hi k + lo k with hi k exact, so
    entry k is off the profile of the exact arg r by k times the rounding
    of theta plus a few units of roundoff: at most 4e-12 at the roots of
    unity of order 4, 8 and 16 with m = 2^15, where one rounded product
    theta k would be off by up to 1.1e-11.
    """
    if not isinstance(op, (BilateralShift, UnilateralShift)):
        raise UnsupportedModelError("eigen windows exist only for shift models")
    w = 1.0 + 0j
    if op.weights is not None:
        if not isinstance(op.weights, ConstantWeights):
            raise UnsupportedModelError("eigen windows need a constant weight")
        w = op.weights.value
    lam = complex(lam)
    if _off_circle(lam, abs(w), 1e-12):
        raise DegenerateInputError(
            f"|lam| = {abs(lam)!r} is off the catalogued circle of radius {abs(w)!r}"
        )
    m = int(m)
    if m < 1:
        raise DegenerateInputError("window length must be positive")
    if isinstance(op, UnilateralShift) and start < 0:
        raise DegenerateInputError("half-line window cannot start below 0")
    ratio = lam / w
    scale = 1.0 / math.sqrt(m)
    k = np.arange(m, dtype=np.float64)
    # theta = hi + lo, hi with at most 53 - m.bit_length() significant bits:
    # hi * k is exact for every k < m and only the small lo * k rounds
    theta = cmath.phase(ratio)
    step = math.ldexp(1.0, math.frexp(theta)[1] - 53 + m.bit_length())
    hi = round(theta / step) * step
    phase = np.exp(-1j * (hi * k)) * np.exp(-1j * ((theta - hi) * k))
    vals = (scale * abs(ratio) ** -k) * phase
    idx = np.arange(start, start + m, dtype=np.int64)
    return WindowVector(idx, vals)


def grid_eigen_vector(grid, node_index):
    if not isinstance(grid, MultiplicationGrid):
        raise UnsupportedModelError("need a multiplication grid")
    node_index = int(node_index) % grid.dim
    return WindowVector.basis(node_index)


# ---------------------------------------------------------------------------
# dense eigenvalues

DENSE_SPECTRUM_CAP = 512
_BACKWARD_TOL = 1e-8


def dense_spectrum(op_or_matrix, tol=_BACKWARD_TOL):
    """Eigenvalues of a dense matrix with a per-pair backward-error line.

    LAPACK (``np.linalg.eig``) returns pairs (lam_k, v_k); the line
    ``eigen_backward_error`` re-measures r_k = A v_k - lam_k v_k from them
    and requires max_k ||r_k|| / (||A||_2 ||v_k||) <= tol.  Each lam_k is
    then an exact eigenvalue of A - r_k v_k^H / ||v_k||^2, a matrix within
    that relative distance of A.  The line vouches for each returned value;
    it does not vouch for multiplicities or for the list being complete, and
    no caller needs either.  A miss raises NumericalError rather than
    returning unvouched numbers.  Returns the eigenvalues, sorted by real
    then imaginary part, and ``{"backward_error", "check"}``.
    """
    if not isinstance(op_or_matrix, DenseOperator):
        # refuses empty, non-square and non-finite matrices
        op_or_matrix = DenseOperator(op_or_matrix)
    a = op_or_matrix.matrix
    n = a.shape[0]
    if n > DENSE_SPECTRUM_CAP:
        raise UnsupportedModelError(
            f"dense spectra are capped at {DENSE_SPECTRUM_CAP}x{DENSE_SPECTRUM_CAP}, got {n}"
        )

    eigs, vecs = np.linalg.eig(a)
    residuals = np.linalg.norm(a @ vecs - vecs * eigs, axis=0)
    norm_a = float(np.linalg.norm(a, 2))
    if norm_a > 0:
        residuals = residuals / (norm_a * np.linalg.norm(vecs, axis=0))
    line = Check.at_most("eigen_backward_error", np.max(residuals), tol)
    require([line], "dense spectrum")
    order = np.lexsort((eigs.imag, eigs.real))
    return eigs[order], {"backward_error": line.measured, "check": line}


# ---------------------------------------------------------------------------
# approximate eigenvectors


@dataclass(frozen=True)
class ApproxEigenpair:
    """Unit vector with a measured eigen-residual for a catalogued point.

    ``residual`` is always recomputed from the vector, never copied from the
    construction.  ``raw_norm`` carries the norm of the unnormalized
    combination when the pair came out of an orbit sum, 1.0 otherwise.
    """

    lam: complex
    vector: WindowVector
    residual: float
    raw_norm: float = 1.0


def _shift_window(op, lam, m, start):
    """The eigen window at lam, refusing a lam off the shift's circle."""
    # the window's unit norm and residual formula hold only on the circle
    rho = circle_radius(op)
    if _off_circle(lam, rho, 1e-12):
        raise DomainError(
            f"|lam| = {abs(lam)!r} is not on the spectral circle of radius {rho!r}"
        )
    return shift_eigen_window(op, lam, m, start=start)


def _require_unimodular(lam, what):
    if _off_circle(lam, 1.0, 1e-9):
        raise DomainError(f"{what} spectrum lives on the unit circle")


def approx_eigenvector(op, lam, m, start=0):
    """Approximate eigenvector for a catalogued sigma_pi point.

    Shift models get the window profile (residual |lam| sqrt(2/m) exactly);
    diagonal and grid models get the basis vector with the closest phase in
    the index window [start, start + m).  The residual is measured from the
    returned vector.
    """
    lam = complex(lam)
    m = int(m)
    if m < 2:
        raise DegenerateInputError("window length must be at least 2")
    if isinstance(op, (BilateralShift, UnilateralShift)):
        x = _shift_window(op, lam, m, start)
    elif isinstance(op, DiagonalUnitary):
        _require_unimodular(lam, "diagonal unitary")
        if op.index_set == "N" and start < 0:
            raise DegenerateInputError("half-line index window cannot start below 0")
        idx = np.arange(start, start + m, dtype=np.int64)
        factors = np.exp(1j * op.phase_rule.phases(idx))
        x = WindowVector.basis(int(idx[np.argmin(np.abs(factors - lam))]))
    elif isinstance(op, MultiplicationGrid):
        _require_unimodular(lam, "grid multiplication")
        turn = (cmath.phase(lam) / (2.0 * math.pi)) % 1.0
        x = grid_eigen_vector(op, int(round(turn * op.dim)) % op.dim)
    else:
        raise UnsupportedModelError(
            f"no approximate-eigenvector recipe for {type(op).__name__}"
        )
    return ApproxEigenpair(lam, x, (op.apply(x) - lam * x).norm())


def phase_tolerance_turns(m):
    """Index tolerance of a diagonal family of window length m, in turns.

    Matched to the shift-window residual scale: a phase within it is within
    2 pi tol = sqrt(2/m) radians of its target.
    """
    return math.sqrt(2.0 / m) / (2.0 * math.pi)


def approx_eigenvector_family(op, lambdas, m, margin=None, constraints=None, meter=None):
    """Unit approximate eigenvectors u_k at the lambdas, with exactly
    vanishing cross terms, as a list of WindowVectors.

    Shift models place one :func:`shift_eigen_window` of length m per
    lambda.  The first window starts at index 0 when no constraint has
    support, else ``margin`` empty slots above the highest constraint index;
    consecutive windows have ``margin + 1`` empty slots between them.  So
    <T^j u_k, T^j' u_k'> = 0 exactly for k != k' and all j, j' <= margin,
    and every u_k is orthogonal to the constraints and to their images under
    those powers.  Diagonal models use distinct basis vectors off every
    constraint's support, whose phases lie within
    :func:`phase_tolerance_turns` of arg lambda; they are orthogonal under
    every power.  The stored entries are charged to ``meter`` (a fresh
    default-budget meter when None); nothing is measured here, the callers'
    certificates measure the vectors they build from the family.
    """
    lambdas = [complex(z) for z in lambdas]
    if not lambdas:
        raise DegenerateInputError("need at least one eigenvalue")
    m = int(m)
    if m < 2:
        raise DegenerateInputError("window length must be at least 2")
    if margin is None:
        margin = len(lambdas)
    margin = int(margin)
    if margin < 1:
        raise DegenerateInputError("margin must be at least 1")
    meter = meter if meter is not None else BudgetMeter()
    constraints = [c for c in constraints or () if len(c.indices)]

    if isinstance(op, (BilateralShift, UnilateralShift)):
        meter.charge(len(lambdas) * m)
        start = max((int(c.indices[-1]) + margin + 1 for c in constraints), default=0)
        out = []
        for lam in lambdas:
            out.append(_shift_window(op, lam, m, start))
            start += m + margin + 1
        return out

    if isinstance(op, DiagonalUnitary):
        meter.charge(len(lambdas))
        used = {int(i) for c in constraints for i in c.indices}
        tol_turn = phase_tolerance_turns(m)
        out = []
        for lam in lambdas:
            _require_unimodular(lam, "diagonal unitary")
            turn = (cmath.phase(lam) / (2.0 * math.pi)) % 1.0
            k = op.phase_rule.find_index(turn, tol_turn, exclude=used)
            used.add(k)
            out.append(WindowVector.basis(k))
        return out

    raise UnsupportedModelError(
        f"no eigenvector family recipe for {type(op).__name__}"
    )


def orbit_to_approx_eigenvector(op, x, lam, n):
    """Fold an orbit into an approximate eigenvector: y = sum lam^{-j} T^j x.

    When the orbit is almost orthogonal with a small recurrence defect, the
    terms align and the measured residual ||(T - lam) y|| / ||y|| inherits the
    recurrence bound divided by sqrt(n).
    """
    lam = complex(lam)
    n = int(n)
    if n < 1:
        raise DegenerateInputError("need at least one orbit term")
    if _off_circle(lam, 1.0, 1e-9):
        raise DomainError("orbit folding needs a unimodular eigenvalue")
    norm_x = x.norm()
    if abs(norm_x - 1.0) > 1e-9:
        raise DegenerateInputError("orbit start vector must be unit")
    orbit = [x]
    for _ in range(1, n):
        orbit.append(op.apply(orbit[-1]))
    y = combine((lam ** (-j), v) for j, v in enumerate(orbit))
    raw_norm = y.norm()
    if raw_norm == 0.0:
        raise NumericalError("orbit sum collapsed to zero")
    residual = (op.apply(y) - lam * y).norm() / raw_norm
    return ApproxEigenpair(lam, y * (1.0 / raw_norm), residual, raw_norm)


def verify_eigenpair(op, y, lam, n):
    """unit_norm | ||y|| - 1 | <= UNIT_TOL and eigen_residual ||(T - lam) y|| < 3/n.

    Not a self-check of the fold: 3/n holds only for the fold of an almost
    orthogonal orbit of length n, so only a check that built one applies it.
    """
    return [
        Check.at_most("unit_norm", abs(y.norm() - 1.0), UNIT_TOL),
        Check.below("eigen_residual", (op.apply(y) - lam * y).norm(), 3.0 / n),
    ]
