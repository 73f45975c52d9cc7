"""Operator models acting exactly on windowed vectors.

Five kinds: bilateral and unilateral weighted shifts, diagonal unitaries,
finite multiplication grids, and dense matrices.  The first four act lazily on
:class:`~orbitforge.vectors.WindowVector` supports of any size; dense matrices
act on vectors whose support fits their dimension.  Every model reports an
upper bound for its operator norm (for dense matrices, the top of an SVD
enclosure), which downstream constructions use in their schedule formulas.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    NumericalError,
    ResolutionError,
    UnsupportedModelError,
)
from .vectors import WindowVector, cross_gram

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# shift weights


class ConstantWeights:
    def __init__(self, value):
        self.value = complex(value)
        if self.value == 0:
            raise DegenerateInputError("shift weight must be nonzero")

    def at(self, indices):
        return np.full(len(indices), self.value, np.complex128)

    def sup_modulus(self):
        return abs(self.value)

    def to_json(self):
        return {"kind": "constant", "value": [self.value.real, self.value.imag]}


def weights_from_json(obj):
    if obj is None:
        return None
    kind = obj.get("kind")
    if kind == "constant":
        re, im = obj["value"]
        return ConstantWeights(complex(re, im))
    raise UnsupportedModelError(f"unknown weight rule kind {kind!r}")


# ---------------------------------------------------------------------------
# phase rules for diagonal unitaries


def _first_hit(a, m, center, tau, start):
    """Smallest k >= start with (a*k - center) mod m within tau of 0 on either
    side, for 0 <= a < m and tau >= 0; None when no k hits.

    With k = start + x the hits are the x with a*x mod m in [lo, lo + 2*tau];
    an arc that runs past m holds residue 0, so x = 0.  Otherwise, when no
    multiple of a lies in [lo, hi], a*x - m*y lies in it exactly when
    (m % a)*y mod a lies in [(-hi) % a, (-lo) % a]: the same problem on the
    pair (m % a, a), which shrinks as in Euclid's algorithm.  The smallest y
    gives the smallest x = ceil((m*y + lo) / a).
    """
    lo = (center - tau - start * a) % m
    hi = lo + 2 * tau
    if hi >= m:
        return start
    frames = []
    while lo > 0:
        if a == 0:
            return None
        x = -(-lo // a)
        if a * x <= hi:
            break
        frames.append((m, a, lo))
        a, m, lo, hi = m % a, a, (-hi) % a, (-lo) % a
    else:
        x = 0
    for m, a, lo in reversed(frames):
        x = -(-(m * x + lo) // a)
    return start + x


class QuadraticIrrationalRotation:
    """Phases theta_k = 2*pi*frac(k*alpha) for alpha = (a + b*sqrt(d)) / c.

    The fractional parts are computed in integer arithmetic: with M guard bits
    and S = isqrt(d * 4**M) we have |S - sqrt(d)*2**M| < 1, so

        frac(k*alpha) = ((k*a*2**M + k*b*S) mod (c*2**M)) / (c*2**M)

    up to an absolute error below |k*b| * 2**-M / c.  With M = 160 the error
    stays under 1e-28 for any int64 index, far below float64 resolution, so
    the float phases handed to numpy are exact-to-rounding and, crucially,
    reproducible: two runs can never disagree about a phase.

    The default alpha = sqrt(2) - 1 is badly approximable, which keeps the
    orbit of phases uniformly spread at every scale.
    """

    PRECISION_BITS = 160

    def __init__(self, a=-1, b=1, c=1, d=2):
        a, b, c, d = int(a), int(b), int(c), int(d)
        if c <= 0:
            raise DegenerateInputError("denominator c must be positive")
        if b == 0:
            raise DegenerateInputError("b = 0 gives a rational rotation")
        if d < 2 or math.isqrt(d) ** 2 == d:
            raise DegenerateInputError("d must be a non-square integer >= 2")
        self.a, self.b, self.c, self.d = a, b, c, d
        M = self.PRECISION_BITS
        sqrt_scaled = math.isqrt(d << (2 * M))
        self._den = c << M
        # residue of alpha*2**M*c ... one multiply + one mod per index
        self._num = ((a << M) + b * sqrt_scaled) % self._den

    def frac_exact(self, k):
        """(numerator, denominator) of frac(k*alpha) in the fixed-point model."""
        return (int(k) * self._num) % self._den, self._den

    def phases(self, indices):
        den = self._den
        num = self._num
        return np.array(
            [TWO_PI * (((int(k) * num) % den) / den) for k in indices], np.float64
        )

    def find_index(self, target_turn, tol_turn, k_max=10 ** 12, exclude=()):
        """Smallest index k >= 1 with frac(k*alpha) within tol_turn of target.

        Turns, not radians: target_turn in [0, 1), tol_turn > 0.  Exclusions
        let callers reserve indices already in use; an excluded hit restarts
        the search just past it.  One exact path on the fixed-point residues,
        with no table and no float scan: :func:`_first_hit` takes O(log den)
        integer steps.  The returned index is checked against its exact
        residue before it is handed out.
        """
        target_turn = float(target_turn)
        tol_turn = float(tol_turn)
        if not (math.isfinite(target_turn) and math.isfinite(tol_turn) and tol_turn > 0):
            raise DegenerateInputError("target and tolerance must be finite, tolerance positive")
        exclude = frozenset(int(k) for k in exclude)
        den, num = self._den, self._num
        # from half a turn on every residue hits; the cap keeps tol*den finite
        tau = int(min(tol_turn, 1.0) * den)
        if tau < 1:
            raise DegenerateInputError("tolerance below the fixed-point resolution")
        t_res = int(target_turn % 1.0 * den)
        k = _first_hit(num, den, t_res, tau, 1)
        while k is not None and k in exclude:
            k = _first_hit(num, den, t_res, tau, k + 1)
        if k is None or k > k_max:
            raise ResolutionError(
                f"no index within {tol_turn:g} turns of the target up to {k_max}"
            )
        e = (k * num - t_res) % den
        if min(e, den - e) > tau:
            raise NumericalError(f"index {k} misses the target by {min(e, den - e)}/{den} turns")
        return k

    def to_json(self):
        return {
            "kind": "quadratic_irrational",
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "d": self.d,
        }


def phase_rule_from_json(obj):
    kind = obj.get("kind")
    if kind == "quadratic_irrational":
        return QuadraticIrrationalRotation(obj["a"], obj["b"], obj["c"], obj["d"])
    raise UnsupportedModelError(f"unknown phase rule kind {kind!r}")


# ---------------------------------------------------------------------------
# operator models


def _require_nonnegative_support(v):
    if len(v.indices) and v.indices[0] < 0:
        raise DimensionMismatchError("vector has support outside N")


class BilateralShift:
    """(S x)_{i+1} = w_i x_i on the integer line."""

    index_set = "Z"
    dim = None
    kind = "bilateral_shift"

    def __init__(self, weights=None):
        self.weights = weights

    def apply(self, v):
        if self.weights is not None:
            v = v.scale_by(self.weights.at)
        return v.translate(1)

    def norm_bound(self):
        return 1.0 if self.weights is None else self.weights.sup_modulus()

    def to_json(self):
        w = None if self.weights is None else self.weights.to_json()
        return {"kind": self.kind, "params": {"weights": w}}


class UnilateralShift:
    """(S x)_{i+1} = w_i x_i on the half line."""

    index_set = "N"
    dim = None
    kind = "unilateral_shift"

    def __init__(self, weights=None):
        self.weights = weights

    def apply(self, v):
        _require_nonnegative_support(v)
        if self.weights is not None:
            v = v.scale_by(self.weights.at)
        return v.translate(1)

    def norm_bound(self):
        return 1.0 if self.weights is None else self.weights.sup_modulus()

    def to_json(self):
        w = None if self.weights is None else self.weights.to_json()
        return {"kind": self.kind, "params": {"weights": w}}


class DiagonalUnitary:
    """T e_k = exp(i*theta_k) e_k with phases from a rule."""

    dim = None
    kind = "diagonal_unitary"

    def __init__(self, phase_rule, index_set="Z"):
        if index_set not in ("Z", "N"):
            raise DegenerateInputError("index_set must be 'Z' or 'N'")
        self.phase_rule = phase_rule
        self.index_set = index_set

    def _factors(self, indices):
        return np.exp(1j * self.phase_rule.phases(indices))

    def apply(self, v):
        if self.index_set == "N":
            _require_nonnegative_support(v)
        return v.scale_by(self._factors)

    def norm_bound(self):
        return 1.0

    def to_json(self):
        return {
            "kind": self.kind,
            "params": {"phases": self.phase_rule.to_json(), "index_set": self.index_set},
        }


class MultiplicationGrid:
    """Multiplication by z on an n-point uniform grid of the unit circle.

    Coordinates already absorb the square root of the node measure, so the
    operator itself is the plain diagonal diag(exp(2*pi*i*k/n)) regardless of
    the measure; the measure only matters when embedding function values.
    """

    index_set = "finite"
    kind = "multiplication_grid"

    def __init__(self, n_nodes, measure=None):
        n_nodes = int(n_nodes)
        if n_nodes < 1:
            raise DegenerateInputError("need at least one node")
        self.dim = n_nodes
        if measure is None:
            self.measure = np.full(n_nodes, 1.0 / n_nodes)
        else:
            m = np.asarray(measure, np.float64)
            if len(m) != n_nodes or np.any(m < 0) or m.sum() == 0:
                raise DegenerateInputError("measure must be nonnegative, length n_nodes")
            self.measure = m / m.sum()
        self.measure.setflags(write=False)

    def node_phases(self, indices):
        return TWO_PI * (np.asarray(indices, np.float64) / self.dim)

    def _check(self, v):
        if len(v.indices) and (v.indices[0] < 0 or v.indices[-1] >= self.dim):
            raise DimensionMismatchError("vector support outside the grid")

    def apply(self, v):
        self._check(v)
        return v.scale_by(lambda idx: np.exp(1j * self.node_phases(idx)))

    def embed(self, values):
        """Grid vector of a function: pointwise values weighted by sqrt(measure)."""
        values = np.asarray(values, np.complex128)
        if len(values) != self.dim:
            raise DimensionMismatchError("need one value per node")
        return WindowVector.from_dense(values * np.sqrt(self.measure))

    def norm_bound(self):
        return 1.0

    def to_json(self):
        return {
            "kind": self.kind,
            "params": {"n_nodes": self.dim, "measure": [float(x) for x in self.measure]},
        }


UNIT_ROUNDOFF = 2.0 ** -53


def _safe_scale(a):
    """1.0 when the largest real or imaginary part of A is 0 or lies in
    [2^-401, 2^400), where ||A||_F, eps and the wedge formula neither underflow
    nor overflow; otherwise a power of two that takes it into [1/2, 1)."""
    size = float(max(np.max(np.abs(a.real)), np.max(np.abs(a.imag))))
    e = math.frexp(size)[1]
    if size == 0.0 or -400 <= e <= 400:
        return 1.0
    return math.ldexp(1.0, min(-e, 1000))  # a subnormal A gets 2^1000


def _scaled_error_bound(a):
    """(scale, A scale, 16 n u ||A scale||_F) with scale from :func:`_safe_scale`."""
    scale = _safe_scale(a)
    if scale != 1.0:
        a = a * scale
    return scale, a, 16.0 * a.shape[0] * UNIT_ROUNDOFF * float(np.linalg.norm(a))


def spectral_error_bound(a):
    """eps = 16 n u ||A||_F for an n x n matrix A.

    LAPACK's Hermitian eigensolver and SVD are backward stable (LAPACK Users'
    Guide sec. 4.7, 4.9): each computed eigenvalue of a Hermitian part
    Re(e^{-i theta} A), and each computed singular value of A, is within
    p(n) u ||A||_2 <= eps of an exact one, p(n) = 16 n also covering the
    rounding of forming the input.  ||A||_F is taken of the power-of-two
    multiple :func:`_safe_scale` gives and divided back, so its sum of
    squares neither underflows nor overflows.
    """
    scale, _, eps = _scaled_error_bound(a)
    return eps / scale


class DenseOperator:
    index_set = "finite"
    kind = "dense"

    def __init__(self, matrix):
        m = np.array(matrix, np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DegenerateInputError("need a nonempty square matrix")
        if not np.all(np.isfinite(m)):
            raise DegenerateInputError("matrix entries must be finite")
        m.setflags(write=False)
        self.matrix = m
        self.dim = m.shape[0]

    @cached_property
    def _scaled(self):
        """:func:`_scaled_error_bound` of the frozen matrix, computed once for
        the radius search, the norm enclosure and the radius verdicts."""
        return _scaled_error_bound(self.matrix)

    def apply(self, v):
        return WindowVector.from_dense(self.matrix @ v.to_dense(self.dim))

    def norm_enclosure(self):
        """[sigma - eps, sigma + eps] around ||A||_2: sigma from LAPACK's SVD
        (``np.linalg.norm(A, 2)``), eps from :func:`spectral_error_bound`."""
        sigma = float(np.linalg.norm(self.matrix, 2))
        scale, _, eps = self._scaled
        eps /= scale
        return sigma - eps, sigma + eps

    def norm_bound(self):
        """Upper bound for the spectral norm: the top of :meth:`norm_enclosure`."""
        return self.norm_enclosure()[1]

    def to_json(self):
        return {
            "kind": self.kind,
            "params": {
                "matrix": [[[z.real, z.imag] for z in row] for row in self.matrix]
            },
        }


class OperatorPower:
    """T^n as a first-class operator, applied factor by factor."""

    kind = "power"

    def __init__(self, base, exponent):
        exponent = int(exponent)
        if exponent < 1:
            raise DegenerateInputError("exponent must be a positive integer")
        if isinstance(base, OperatorPower):
            exponent *= base.exponent
            base = base.base
        self.base = base
        self.exponent = exponent

    @property
    def index_set(self):
        return self.base.index_set

    @property
    def dim(self):
        return self.base.dim

    def apply(self, v):
        return apply_power(self.base, v, self.exponent)

    def norm_bound(self):
        return self.base.norm_bound() ** self.exponent

    def to_json(self):
        return {
            "kind": self.kind,
            "params": {"base": self.base.to_json(), "exponent": self.exponent},
        }


def as_power(op):
    """(base, exponent) view of an operator, unwrapping power wrappers."""
    if isinstance(op, OperatorPower):
        return op.base, op.exponent
    return op, 1


def operator_from_json(obj):
    kind = obj.get("kind")
    params = obj.get("params", {})
    if kind == "power":
        return OperatorPower(operator_from_json(params["base"]), params["exponent"])
    if kind == "bilateral_shift":
        return BilateralShift(weights_from_json(params.get("weights")))
    if kind == "unilateral_shift":
        return UnilateralShift(weights_from_json(params.get("weights")))
    if kind == "diagonal_unitary":
        return DiagonalUnitary(
            phase_rule_from_json(params["phases"]), params.get("index_set", "Z")
        )
    if kind == "multiplication_grid":
        return MultiplicationGrid(params["n_nodes"], params.get("measure"))
    if kind == "dense":
        matrix = [[complex(re, im) for re, im in row] for row in params["matrix"]]
        return DenseOperator(matrix)
    raise UnsupportedModelError(f"unknown operator kind {kind!r}")


SHIFT_KINDS = (BilateralShift, UnilateralShift)


def apply_power(op, v, n):
    """T^n v, applied factor by factor.

    Plain shifts get a direct index offset, which is the same arithmetic as n
    single steps (translation is exact), just without n intermediate arrays.
    Everything else really is applied n times so that float rounding matches a
    step-by-step computation bit for bit.
    """
    n = int(n)
    if n < 0:
        raise DegenerateInputError("power must be nonnegative")
    if n == 0:
        return v
    if isinstance(op, SHIFT_KINDS) and op.weights is None:
        if isinstance(op, UnilateralShift):
            _require_nonnegative_support(v)
        return v.translate(n)
    for _ in range(n):
        v = op.apply(v)
    return v


def power_forms(op, powers, x):
    """The forms <T^p x, x> for p in ``powers``, as one column of cross_gram."""
    return cross_gram([apply_power(op, x, p) for p in powers], [x])[:, 0]


# ---------------------------------------------------------------------------
# subspaces and compressions


class Subspace:
    """Span of finitely many windowed vectors, given by an orthonormal basis.

    The constructions build their bases orthonormal by support disjointness;
    the certificates re-measure the basis Gram from the raw vectors.
    """

    __slots__ = ("basis",)

    def __init__(self, basis):
        self.basis = tuple(basis)

    @property
    def dim(self):
        return len(self.basis)


def compress(op, subspace):
    """Matrix of the compression P_L T P_L in the subspace basis."""
    return cross_gram([op.apply(b) for b in subspace.basis], subspace.basis).T
