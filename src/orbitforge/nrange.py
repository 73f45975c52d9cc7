"""Numerical range boundaries and membership witnesses.

Dense matrices get their numerical range boundary and numerical radius from
the support-function identity

    h(theta) = top eigenvalue of Re(e^{-i theta} T),

evaluated with a Hermitian eigensolver on stacks of angles.  The radius comes
from a best-first search on C. R. Johnson's polygon (SIAM J. Numer. Anal. 15,
1978), refined adaptively as in F. Uhlig (Numer. Algorithms 52, 2009): two
solved angles bound h on the arc between them by the wedge their supporting
lines cut out, and only arcs whose bound can still beat the best solved value
are split.  The largest computed h is the lower end ``radius`` and the largest
wedge bound left is the upper enclosure ``radius_upper`` of w(T).

For the lazy models the interesting question is the reverse one: given
targets mu_1..mu_N for the quadratic forms <T^{p_1} x, x>, ..., <T^{p_N} x, x>,
produce a unit vector that attains them within delta, orthogonal to any given
finite family.  :func:`we_membership_witness` does this by building an atomic
measure with the right power moments (:mod:`orbitforge.moments`) and then
mixing the bare vectors that
:func:`~orbitforge.spectra.approx_eigenvector_family` returns for its atoms:
disjoint shift windows or phase-targeted diagonal basis vectors.  Disjointness
makes every cross term vanish identically, so the final defects are measured
from the raw vector and compared against delta, never inferred.  A witness
charges its stored entries to the meter it is handed; a construction that
builds several witnesses (a compression subspace, the zeroing stages) hands
each the one meter of the construction, so its budget caps the whole of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certify import Check, by_label, require
from .errors import (
    DegenerateInputError,
    DomainError,
    NumericalError,
    UnsupportedModelError,
)
from .moments import (
    AtomicMeasure,
    admissible_radius,
    circle_moment_match,
    power_profile_measure,
)
from .operators import (
    TWO_PI,
    UNIT_ROUNDOFF,
    BilateralShift,
    DenseOperator,
    DiagonalUnitary,
    OperatorPower,
    Subspace,
    UnilateralShift,
    as_power,
    compress,
    power_forms,
    _safe_scale,
    spectral_error_bound,
)
from .spectra import (
    approx_eigenvector_family,
    circle_radius,
    phase_tolerance_turns,
)
from .vectors import BudgetMeter, WindowVector, combine, gram, inner, normalize


# ---------------------------------------------------------------------------
# dense numerical range


def _as_dense(op):
    if not isinstance(op, DenseOperator):
        try:
            arr = np.asarray(op, np.complex128)
        except (TypeError, ValueError):
            arr = None
        if arr is None or arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise UnsupportedModelError("numerical range boundary needs a dense square matrix")
        # refuses empty and non-finite matrices
        op = DenseOperator(arr)
    return op


def _angle_grid(n_angles):
    n_angles = int(n_angles)
    if n_angles < 3:
        raise DegenerateInputError("need at least three angles")
    return TWO_PI * np.arange(n_angles) / n_angles


# complex entries per eigensolver call: one 64x64 matrix or 64 8x8 ones
_STACK_ENTRIES = 4096


def _hermitian_parts(a, thetas):
    """(offset, stack of Re(e^{-i theta} A)) over the angles, chunk by chunk."""
    thetas = np.asarray(thetas, np.float64)
    per = max(1, _STACK_ENTRIES // a.size)
    ah = a.conj().T
    for lo in range(0, len(thetas), per):
        t = thetas[lo:lo + per, None, None]
        yield lo, (np.exp(-1j * t) * a + np.exp(1j * t) * ah) / 2.0


def _support_values(a, thetas):
    """(h(theta), h(theta + pi)) at each angle: the top eigenvalue of
    Re(e^{-i theta} A) and minus its bottom one, from one eigensolve."""
    out = np.empty((2, len(thetas)))
    for lo, h in _hermitian_parts(a, thetas):
        vals = np.linalg.eigvalsh(h)
        out[0, lo:lo + len(h)] = vals[:, -1]
        out[1, lo:lo + len(h)] = -vals[:, 0]
    return out


@dataclass
class BoundaryResult:
    thetas: np.ndarray
    support: np.ndarray
    points: np.ndarray

    def boundary_radius(self):
        return float(np.max(np.abs(self.points)))

    def rows(self):
        return [
            (float(t), float(p.real), float(p.imag))
            for t, p in zip(self.thetas, self.points)
        ]


def nr_boundary(op, n_angles=512):
    """Boundary points of the numerical range of a dense matrix.

    For each grid angle theta, the top eigenvector x of Re(e^{-i theta} T)
    yields the boundary point <T x, x> whose outward normal is e^{i theta}.
    """
    a = _as_dense(op).matrix
    thetas = _angle_grid(n_angles)
    support = np.empty(len(thetas))
    points = np.empty(len(thetas), np.complex128)
    for lo, h in _hermitian_parts(a, thetas):
        vals, vecs = np.linalg.eigh(h)
        x = vecs[:, :, -1]
        support[lo:lo + len(h)] = vals[:, -1]
        points[lo:lo + len(h)] = np.einsum("ki,ki->k", x.conj(), x @ a.T)
    return BoundaryResult(thetas=thetas, support=support, points=points)


# the coarse radius pass solves every stride-th grid angle in [0, pi), stride
# at most this and at most n_angles // 8, and reads off the antipodes, so
# every coarse arc spans at most pi/4
_COARSE_STRIDE = 32


def _wedge_bounds(h0, h1, gap, eps):
    """Upper bounds on h over arcs of width gap < pi between solved angles.

    The supporting lines Re(e^{-i t0} z) = h0 and Re(e^{-i t1} z) = h1 meet at
    the vertex z* of the wedge that holds W(A), so on [t0, t1] the support
    function is at most Re(e^{-i t} z*) = |z*| cos(t - arg z*).  With t0 = 0
    and g = t1 - t0,

        |z*| = sqrt(h0^2 + h1^2 - 2 h0 h1 cos g) / sin g,

    and arg z* lies in [0, g] exactly when h1 >= h0 cos g and h0 >= h1 cos g;
    otherwise the maximum over the arc sits at an end, where it is h0 or h1.
    Either way it is at least max(h0, h1), which is kept when |z*|
    underflows.  The radicand is evaluated as (h0 - h1)^2 + 4 h0 h1
    sin^2(g/2), which cannot round below zero for g <= 2 pi/3.  The vertex is
    linear in (h0, h1) with each partial derivative of modulus 1/sin g, so
    eigenvalues computed within eps move the maximum by at most 2 eps/sin g;
    one more eps covers a computed value on the arc sitting above its exact h,
    and 4u|z*| the rounding of the formula and of the end-or-vertex decision.
    """
    v = np.sqrt((h0 - h1) ** 2 + 4.0 * h0 * h1 * np.sin(gap / 2.0) ** 2) / np.sin(gap)
    inside = (h1 >= h0 * np.cos(gap)) & (h0 >= h1 * np.cos(gap))
    top = np.maximum(np.maximum(h0, h1), np.where(inside, v, -np.inf))
    return top + (1.0 + 2.0 / np.sin(gap)) * eps + 4.0 * UNIT_ROUNDOFF * np.abs(v)


def numerical_radius(op, n_angles=720, with_upper=False):
    """max_theta h(theta) by a best-first search on Johnson's wedge bounds.

    The search starts from every stride-th angle theta of the ``n_angles``
    grid in [0, pi) and its antipode theta + pi (at least 8 angles in all).
    Since Re(e^{-i(theta + pi)} A) = -Re(e^{-i theta} A), h(theta + pi) is
    minus the bottom eigenvalue of the matrix whose top one is h(theta), so
    one eigensolve gives both.  eps still covers that value, because
    :func:`~orbitforge.operators.spectral_error_bound` bounds every computed
    eigenvalue, not only the top one; and it covers the rounding of theta +
    pi, which moves the angle by at most ulp(2 pi)/2, the same order as the
    rounding of e^{-i theta} that its 16 n factor already covers.

    Each round splits at its midpoint every arc whose wedge bound
    (:func:`_wedge_bounds`) lies in the upper half of [best h, top bound],
    solving all the midpoints in one stacked call.  It stops once no bound
    exceeds the best h, once the arc holding the top
    bound is narrower than 2 g_min, below which the 2 eps/sin g margin
    outgrows the wedge excess (about h'' g^2/8), or once another round would
    take more than ``n_angles`` solves.  One parabolic step through the best
    angle and its two neighbours, within the same cap, then polishes the
    lower end.  A matrix outside the range of
    :func:`~orbitforge.operators._safe_scale` is searched as the exact
    power-of-two multiple it gives, and w and the bound scaled back.

    Returns (w, theta) with w = h(theta) a computed value; with
    ``with_upper`` also the top wedge bound left, an upper enclosure of w(T)
    and of every computed h.
    """
    a = _as_dense(op).matrix
    scale = _safe_scale(a)
    if scale != 1.0:
        a = a * scale
    grid = _angle_grid(n_angles)
    n_angles = len(grid)
    half = grid[:(n_angles + 1) // 2 : max(1, min(_COARSE_STRIDE, n_angles // 8))]
    thetas = np.concatenate((half, half + np.pi))
    values = _support_values(a, half).ravel()
    eps = spectral_error_bound(a)
    g_min = 4.0 * (16.0 * len(a) * UNIT_ROUNDOFF) ** (1.0 / 3.0)  # 4 (eps/||A||_F)^(1/3)
    while True:
        gaps = np.diff(thetas, append=TWO_PI)
        bounds = _wedge_bounds(values, np.roll(values, -1), gaps, eps)
        best, top = values.max(), bounds.max()
        split = np.flatnonzero(bounds >= (best + top) / 2.0)
        room = n_angles - len(thetas)
        if top <= best or gaps[np.argmax(bounds)] < 2.0 * g_min or not 0 < len(split) <= room:
            break
        mids = thetas[split] + gaps[split] / 2.0
        thetas = np.insert(thetas, split + 1, mids)
        values = np.insert(values, split + 1, _support_values(a, mids)[0])

    k = int(np.argmax(values))
    w, theta = float(values[k]), float(thetas[k])
    if len(thetas) < n_angles:
        # vertex of the parabola through the best angle and its neighbours
        d0, d1 = (theta - thetas[k - 1]) % TWO_PI, gaps[k]
        f0, f1 = w - values[k - 1], w - values[(k + 1) % len(values)]
        den = d0 * f1 + d1 * f0
        if den > 0.0:
            t = theta + (d1 * d1 * f0 - d0 * d0 * f1) / (2.0 * den)
            h = float(_support_values(a, (t,))[0, 0])
            if h > w:
                w, theta = h, t
    if with_upper:
        return w / scale, theta % TWO_PI, float(top) / scale
    return w / scale, theta % TWO_PI


def radius_norm_bounds(op, n_angles=720):
    """Two-sided comparison w(T) <= ||T|| <= 2 w(T) for dense T, by enclosures.

    ``radius`` is the lower end of :func:`numerical_radius`, a computed
    h(theta), so radius - eps <= w(T) with eps from
    :func:`~orbitforge.operators.spectral_error_bound`; ``radius_upper`` is
    its top wedge bound, so w(T) <= radius_upper, and [``norm_lower``,
    ``norm_upper``] encloses ||T|| (``norm_bound`` is the upper end).  Each
    verdict means "not refuted by the enclosures": ``lower_holds`` is
    radius - eps <= norm_upper, ``upper_holds`` is norm_lower <= 2
    radius_upper, with no further slack, since the Jordan block J2 has
    ||T|| = 2 w(T) exactly.
    """
    op = _as_dense(op)
    w, _, w_upper = numerical_radius(op, n_angles, with_upper=True)
    norm_lower, norm_upper = op.norm_enclosure()
    return {
        "radius": w,
        "radius_upper": w_upper,
        "norm_lower": norm_lower,
        "norm_upper": norm_upper,
        "norm_bound": norm_upper,
        "lower_holds": w - spectral_error_bound(op.matrix) <= norm_upper,
        "upper_holds": norm_lower <= 2.0 * w_upper,
    }


# ---------------------------------------------------------------------------
# membership witnesses


@dataclass
class WitnessResult:
    vector: WindowVector
    powers: tuple
    targets: np.ndarray
    measured: np.ndarray
    defects: np.ndarray
    delta: float
    route: str
    realization: str
    params: dict = field(default_factory=dict)

    def max_defect(self):
        return float(np.max(self.defects)) if len(self.defects) else 0.0


def _same_generator(a, b):
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, (BilateralShift, UnilateralShift)):
        return a.weights is None and b.weights is None
    if isinstance(a, DiagonalUnitary):
        return a.phase_rule is b.phase_rule and a.index_set == b.index_set
    return False


def _resolve_power_tuple(ops, n_targets):
    if not isinstance(ops, (tuple, list)):
        base, p = as_power(ops)
        if p != 1:
            return base, tuple(p * (j + 1) for j in range(n_targets))
        return base, tuple(range(1, n_targets + 1))
    if len(ops) != n_targets:
        raise DegenerateInputError(
            f"{len(ops)} operators for {n_targets} targets"
        )
    pairs = [as_power(op) for op in ops]
    base = pairs[0][0]
    for b, _ in pairs[1:]:
        if not _same_generator(base, b):
            raise UnsupportedModelError(
                "tuple entries must all be powers of one generator"
            )
    powers = tuple(p for _, p in pairs)
    if len(set(powers)) != len(powers):
        raise DegenerateInputError("duplicate powers in the operator tuple")
    return base, powers


def _detect_power_profile(powers, mu):
    """lam with mu_k = lam^{p_k} for all k, if one exists."""
    if 1 in powers:
        lam = complex(mu[powers.index(1)])
    else:
        return None
    try:
        for p, m in zip(powers, mu):
            if abs(complex(m) - lam ** p) > 1e-12 * (1.0 + abs(lam)) ** p:
                return None
    except OverflowError:
        raise DegenerateInputError(
            f"lam^p overflows float64 for some p <= {max(powers)} "
            f"(|lam| = {abs(lam):.6g})"
        ) from None
    return lam


def _constraint_support(constraints):
    out = []
    for c in constraints or ():
        if isinstance(c, Subspace):
            out.extend(c.basis)
        else:
            out.append(c)
    return out


def we_membership_witness(ops, mu, delta, constraints=None, meter=None):
    """Unit vector x with <T^{p_k} x, x> within delta of mu_k, x orthogonal
    to all constraint vectors and to their images under the tuple powers.

    ops is either one generator (powers default to 1..len(mu)) or a tuple of
    powers of a single generator.  Two routes build the intermediate measure:
    moment gadgets for targets inside the admissible radius, the discretized
    harmonic measure when mu follows a power profile lam^{p_k} with lam
    strictly inside the circle (on-circle profiles use a single eigen window).
    The stored entries are charged to ``meter``, a fresh default-budget meter
    when None; ``params["entries_charged"]`` is this witness's own charge,
    not the meter's running total.  Everything is re-measured from the
    returned vector; a defect above delta raises instead of returning.
    """
    mu = np.asarray(list(mu), np.complex128)
    if len(mu) == 0:
        raise DegenerateInputError("need at least one target")
    if not np.all(np.isfinite(mu)):
        raise DegenerateInputError("targets must be finite")
    delta = float(delta)
    # NaN fails both comparisons; an infinite delta would pass vacuously
    if not 0 < delta < math.inf:
        raise DegenerateInputError("delta must be positive and finite")
    base, powers = _resolve_power_tuple(ops, len(mu))
    rho = circle_radius(base)
    constraints = _constraint_support(constraints)
    meter = meter if meter is not None else BudgetMeter()
    used_on_entry = meter.used
    p_max = max(powers)

    lam = _detect_power_profile(powers, mu)
    if lam is not None and abs(abs(lam) - rho) <= 1e-12:
        measure = AtomicMeasure(rho, np.array([lam]), np.array([1.0]))
        route = "eigen_window"
    elif lam is not None and abs(lam) < rho - 1e-12:
        res = power_profile_measure(lam, p_max, rho, tol=delta / (4.0 * p_max))
        measure = res.measure
        route = "poisson"
    else:
        r = admissible_radius(rho, p_max)
        full = np.zeros(p_max, np.complex128)
        for p, m in zip(powers, mu):
            full[p - 1] = m
        if np.any(np.abs(full) > r * (1 + 1e-12) + 1e-15):
            raise DomainError(
                "targets are neither inside the admissible radius "
                f"r = {r:.6g} nor a strictly interior power profile",
                admissible_radius=r,
            )
        res = circle_moment_match(full, rho=rho)
        measure = res.measure
        route = "moment_gadgets"

    if isinstance(base, (BilateralShift, UnilateralShift)):
        # window edges add (p/m) rho^p per power: under delta/2 at this length
        m = max(2 * p_max + 2, math.ceil(2.0 * p_max * max(rho, 1.0) ** p_max / delta))
        params = {"window_length": m, "atom_count": len(measure.weights)}
        realization = "shift_windows"
    else:
        try:  # phases within sqrt(2/m) <= delta/(4 p_max) radians of the atoms
            m = max(2, math.ceil(32.0 * (p_max / delta) ** 2))
        except OverflowError:
            raise DegenerateInputError(f"delta {delta:g} is below the phase resolution") from None
        tol_turn = phase_tolerance_turns(m)
        params = {"atom_count": len(measure.weights), "phase_tolerance_turns": tol_turn}
        realization = "diagonal_indices"
    family = approx_eigenvector_family(
        base, measure.positions, m, margin=p_max, constraints=constraints, meter=meter
    )
    x = normalize(
        combine((math.sqrt(w), u) for w, u in zip(measure.weights, family))
    )

    measured = power_forms(base, powers, x)
    defects = np.abs(measured - mu)
    if np.max(defects) > delta:
        raise NumericalError(
            f"witness defect {np.max(defects):.3e} exceeds delta {delta:g}",
            residual=float(np.max(defects)),
        )
    for c in constraints:
        if abs(inner(x, c)) > 1e-12:
            raise NumericalError("witness failed a constraint orthogonality")
    params["entries_charged"] = meter.used - used_on_entry
    return WitnessResult(
        vector=x,
        powers=powers,
        targets=mu,
        measured=measured,
        defects=defects,
        delta=delta,
        route=route,
        realization=realization,
        params=params,
    )


# ---------------------------------------------------------------------------
# lambda-power compressions


@dataclass
class CompressionResult:
    subspace: Subspace
    lam: complex
    n_powers: int
    power_defects: np.ndarray
    gram_defect: float
    delta: float
    checks: dict

    def passed(self):
        return all(c.passed for c in self.checks.values())


def verify_compression(op, subspace, lam, n, delta):
    """Result record with gram_identity max |Gram - I| <= 1e-10 and
    power_defects max_{p <= n} max |P T^p P - lam^p I| <= delta."""
    dim = subspace.dim
    gram_defect = float(np.max(np.abs(gram(subspace.basis) - np.eye(dim))))
    defects = np.array(
        [
            np.max(np.abs(compress(OperatorPower(op, p), subspace) - lam ** p * np.eye(dim)))
            for p in range(1, n + 1)
        ]
    )
    checks = by_label(
        (
            Check.at_most("gram_identity", gram_defect, 1e-10),
            Check.at_most("power_defects", np.max(defects), delta),
        )
    )
    return CompressionResult(
        subspace=subspace,
        lam=lam,
        n_powers=n,
        power_defects=defects,
        gram_defect=gram_defect,
        delta=delta,
        checks=checks,
    )


def diagonal_compression_subspace(op, lam, n, dim=2, delta=1e-3, window_budget=None):
    """Subspace L where every compression P_L T^p P_L looks like lam^p I.

    Witness vectors are built one at a time, each orthogonal to its
    predecessors and to their power images, so the off-diagonal entries of
    each compression vanish by support disjointness and the diagonals carry
    the moment defects.  All dim witnesses charge one meter, so
    ``window_budget`` caps the stored entries of the whole subspace.  The
    returned certificate re-measures both defects.
    """
    n = int(n)
    dim = int(dim)
    if dim < 1 or n < 1:
        raise DegenerateInputError("need dim >= 1 and n >= 1")
    lam = complex(lam)
    if not np.isfinite(lam):
        raise DegenerateInputError("lam must be finite")
    try:
        mu = [lam ** p for p in range(1, n + 1)]
    except OverflowError:
        raise DegenerateInputError(
            f"lam^p overflows float64 for some p <= {n} (|lam| = {abs(lam):.6g})"
        ) from None
    meter = BudgetMeter(window_budget)
    vectors = []
    for _ in range(dim):
        res = we_membership_witness(op, mu, delta, constraints=vectors, meter=meter)
        vectors.append(res.vector)
    res = verify_compression(op, Subspace(vectors), lam, n, delta)
    require(res.checks.values(), "compression subspace")
    return res
