"""The essential circle of each model, and approximate eigenvectors on it.

Every construction of the paper assumes a circle inside the essential
approximate point spectrum sigma_pi_e(T).  The constructions need two facts
from that hypothesis: the circle's radius, or a refusal.
:func:`circle_radius` is that one rule, and its docstring says for each
model why the circle lies in sigma_pi_e.

Points of the circle are realized by :func:`approx_eigenvector_family` as
bare unit vectors whose cross terms vanish exactly, charged to the one
:class:`~orbitforge.vectors.BudgetMeter` of the calling construction.  The
orbit, tower and witness builders mix those vectors, and their certificates
measure what the mix gives.  :func:`orbit_to_approx_eigenvector` folds an
orbit back into an approximate eigenvector, and :func:`verify_eigenpair`
gives the lines that measure it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .certify import UNIT_TOL, Check
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
    MultiplicationGrid,
    QuadraticIrrationalRotation,
    UnilateralShift,
)
from .vectors import BudgetMeter, WindowVector, combine


def circle_radius(op):
    """Radius of the circle in sigma_pi_e(T), or a refusal.

    A point lam lies in sigma_pi_e(T) when some orthonormal sequence x_k has
    ||T x_k - lam x_k|| -> 0.  Per model:

    * a bilateral or unilateral shift with no weight or a constant weight w
      gives |w| (1 with no weight): the eigen windows of
      :func:`shift_eigen_window` at any lam with |lam| = |w| have residual
      |lam| sqrt(2/m), and windows on disjoint supports are orthonormal;
    * a diagonal unitary whose phases follow a quadratic irrational rotation
      gives 1: the phase orbit is dense, so every arc of the unit circle
      holds the phases of infinitely many basis vectors;
    * a multiplication grid or a dense matrix is refused with
      PreconditionError: in finite dimension no infinite orthonormal
      sequence exists, so sigma_pi_e is empty.  No eigensolver runs.

    Every other model is refused with UnsupportedModelError.
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
        raise PreconditionError(
            f"the essential approximate point spectrum of this {type(op).__name__} "
            "is empty in finite dimension, so it holds no circle"
        )
    raise UnsupportedModelError(f"no circle realization for {type(op).__name__}")


# ---------------------------------------------------------------------------
# approximate eigenvectors


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
            f"|lam| = {abs(lam)!r} is off the circle of radius {abs(w)!r}"
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


@dataclass(frozen=True)
class ApproxEigenpair:
    """Unit vector folded from an orbit, with its measured eigen-residual.

    ``residual`` is always recomputed from the vector, never copied from the
    construction.  ``raw_norm`` is the norm of the orbit sum before it was
    normalized.
    """

    lam: complex
    vector: WindowVector
    residual: float
    raw_norm: float


def _shift_window(op, lam, m, start):
    """The eigen window at lam, refusing a lam off the shift's circle."""
    # the window's unit norm and residual formula hold only on the circle
    rho = circle_radius(op)
    if _off_circle(lam, rho, 1e-12):
        raise DomainError(
            f"|lam| = {abs(lam)!r} is not on the spectral circle of radius {rho!r}"
        )
    return shift_eigen_window(op, lam, m, start=start)


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
            if _off_circle(lam, 1.0, 1e-9):
                raise DomainError("diagonal unitary spectrum lives on the unit circle")
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
