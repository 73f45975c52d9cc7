"""Orbit-geometry constructions with recomputed certificates.

Four constructions live here:

* :func:`zero_tuple_vector` drives every quadratic form <T^p x, x> of a power
  tuple to zero by a staged iteration.  Each stage adds an increment from
  :func:`orbitforge.nrange.we_membership_witness` that is exactly orthogonal
  to the iterate and its power images, so the stage norms follow the closed
  form 1 - 2^{-k} and the forms shrink geometrically.
* :func:`almost_orthogonal_orbit` builds a unit vector whose orbit
  x, Tx, ..., T^{n-1}x is almost orthonormal with a small recurrence defect
  ||T^n x - x||, from a DFT mix of n approximate eigenvectors at the n-th
  roots of unity.  The mix meets <T^j x, x> = 0 to the 1e-8 exactness
  threshold by construction; it is measured once, by :func:`verify_orbit`.
* :func:`rokhlin_tower` produces orthonormal w_0..w_{n-1} with T w_j close to
  w_{j+1} cyclically and with prescribed mean n^{-1/2} sum w_j = u, the
  operator analogue of a Rokhlin tower in ergodic theory.
* :func:`rotation_tower` is the multiplication-model variant on a circle
  grid: exact zero sum instead of a prescribed mean, links bounded by 2 pi/n.

Every certificate quantity is recomputed from the raw output vectors;
construction intermediates are never trusted.  Finite-codimension constraints
are passed as the finite family spanning the forbidden complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    NumericalError,
    PreconditionError,
    ResolutionError,
    UnsupportedModelError,
    WindowBudgetError,
)
from .certify import UNIT_TOL, Certificate, Check, by_label, require
from .moments import admissible_radius
from .nrange import _resolve_power_tuple, we_membership_witness
from .operators import TWO_PI, DiagonalUnitary, MultiplicationGrid, power_forms
from .spectra import approx_eigenvector_family, circle_radius
from .vectors import (
    BudgetMeter,
    WindowVector,
    add_scaled,
    combine,
    cross_gram,
    gram,
    normalize,
    vector_to_json,
)

# measured orthogonality at or below this is reported as exact
HARD_TOL = 1e-8


def _complex_list(arr):
    return [[float(z.real), float(z.imag)] for z in np.asarray(arr).ravel()]


@dataclass(kw_only=True)
class OrbitCertificate(Certificate):
    """Recomputed orbit data for a unit vector under one generator.

    gram[a, b] = <T^a x, T^b x> for a, b < n; norms holds ||T^j x|| for
    j = 0..n; recurrence is ||T^n x - x||.  Every line is recomputed from x.
    """

    x: WindowVector
    n: int
    eps: float
    gram: np.ndarray
    norms: np.ndarray
    recurrence: float

    def to_json(self):
        return {
            "n": self.n,
            "eps": self.eps,
            "gram": [_complex_list(row) for row in self.gram],
            "norms": [float(v) for v in self.norms],
            "recurrence": self.recurrence,
            "checks": {k: c.to_json() for k, c in self.checks.items()},
            "params": self.params,
            "x": vector_to_json(self.x, kind="orbit_vector"),
        }


@dataclass(kw_only=True)
class Tower(Certificate):
    """Tower of unit vectors with measured link residuals.

    ``u`` is the prescribed mean when one exists (eigen-window towers);
    ``sum_defect`` replaces it for the zero-sum rotation variant.
    ``gram_defect`` is max |Gram(w) - I|, informational for the rotation
    variant where the w_j are genuinely non-orthogonal.
    """

    w: list
    u: WindowVector | None
    eps: float
    link_residuals: np.ndarray
    gram_defect: float
    mean_defect: float | None
    sum_defect: float | None

    @property
    def n(self):
        return len(self.w)

    def to_json(self):
        return {
            "n": self.n,
            "eps": self.eps,
            "link_residuals": [float(r) for r in self.link_residuals],
            "gram_defect": self.gram_defect,
            "mean_defect": self.mean_defect,
            "sum_defect": self.sum_defect,
            "checks": {k: c.to_json() for k, c in self.checks.items()},
            "params": self.params,
            "u": None if self.u is None else vector_to_json(self.u, kind="tower_mean"),
            "w": [vector_to_json(v, kind="tower_level") for v in self.w],
        }


def _orbit_data(base, x, n):
    orbit = [x]
    cur = x
    for _ in range(n):
        cur = base.apply(cur)
        orbit.append(cur)
    norms = np.array([v.norm() for v in orbit])
    recurrence = (orbit[n] - x).norm()
    return gram(orbit[:n]), norms, recurrence


def verify_orbit(base, x, n, eps):
    """Certificate record (empty params) of the orbit statement for x.

    Lines: orthogonality max_{1 <= j < n} |<T^j x, x>| <= 1e-8, off_diagonal
    max_{a != b} |<T^a x, T^b x>| < eps, norm_window max_{1 <= j < n}
    | ||T^j x|| - 1 | < eps, recurrence ||T^n x - x|| < eps.  The statement
    is about a unit x: one off by more than UNIT_TOL raises NumericalError.
    """
    gram_, norms, recurrence = _orbit_data(base, x, n)
    unit = abs(norms[0] - 1.0)
    if not unit <= UNIT_TOL:
        raise NumericalError(
            f"orbit vector is not unit: | ||x|| - 1 | = {unit:.3e}",
            residual=unit,
            bound=UNIT_TOL,
        )
    if n >= 2:
        ortho = np.max(np.abs(gram_[1:, 0]))
        off = np.max(np.abs(gram_ - np.diag(np.diag(gram_))))
        norm_dev = np.max(np.abs(norms[1:n] - 1.0))
    else:
        ortho = off = norm_dev = 0.0
    checks = by_label(
        (
            Check.at_most("orthogonality", ortho, HARD_TOL),
            Check.below("off_diagonal", off, eps),
            Check.below("norm_window", norm_dev, eps),
            Check.below("recurrence", recurrence, eps),
        )
    )
    return OrbitCertificate(
        x=x, n=n, eps=eps, gram=gram_, norms=norms, recurrence=recurrence, checks=checks
    )


def verify_unitary_orbit(base, x, n, eps):
    """Record with orthogonality max_{a < b} |<T^a x, T^b x>| <= 1e-8, unit_norms
    max_{j < n} | ||T^j x|| - 1 | <= UNIT_TOL, recurrence ||T^n x - x|| < eps."""
    gram_, norms, recurrence = _orbit_data(base, x, n)
    pairwise = np.max(np.triu(np.abs(gram_), 1), initial=0.0)
    lines = (
        Check.at_most("orthogonality", pairwise, HARD_TOL),
        Check.at_most("unit_norms", np.max(np.abs(norms[:n] - 1.0)), UNIT_TOL),
        Check.below("recurrence", recurrence, eps),
    )
    return Certificate(checks=by_label(lines))


# ---------------------------------------------------------------------------
# form zeroing


def _form_floor(base, powers, x, norm_sq):
    """Rounding floor of the measured forms: 2 gamma_n max_p ||T^p|| ||x||^2.

    With m = |supp x| the sum in <T^p x, x> has at most m terms, so Higham's
    inner-product bound |fl(a^H b) - a^H b| <= gamma_m |a|^H |b| (Accuracy and
    Stability of Numerical Algorithms, sec. 3.1) and Cauchy-Schwarz give
    gamma_m ||T^p|| ||x||^2.  n = m + max p also counts the rounded
    applications that build T^p x, and the factor 2 covers complex products.
    Below this floor float64 cannot tell a form from zero.
    """
    n = len(x.indices) + max(powers)
    nu = n * 2.0 ** -53
    gamma = nu / (1.0 - nu)
    nb = base.norm_bound()
    return 2.0 * gamma * max(nb ** p for p in powers) * norm_sq


def zero_iteration_step(ops, x, stage, radius=None, avoid=None, meter=None):
    """One zeroing stage: x' = x + 2^{-(stage+1)/2} u.

    The increment u is a unit witness with <T^p u, u> = -2^{stage+1} <T^p x, x>
    within radius/2, orthogonal to x, its power images, and anything in
    ``avoid``; its stored entries are charged to ``meter``.  Entering norm
    must be sqrt(1 - 2^{-stage}); the update then gives
    ||x'||^2 = 1 - 2^{-stage-1} and ||x' - x||^2 = 2^{-stage-1} exactly.

    Entering forms must obey |<T^p x, x>| <= radius 2^{-stage-1}.  A form over
    that cap by more than the rounding floor of :func:`_form_floor` is a
    refusal (PreconditionError); one over it by no more than the floor cannot
    be told from rounding and raises NumericalError naming the floor.
    """
    stage = int(stage)
    if stage < 0:
        raise DegenerateInputError("stage must be nonnegative")
    base, powers = _resolve_power_tuple(ops, _tuple_len(ops))
    if radius is None:
        radius = admissible_radius(circle_radius(base), max(powers))
    radius = float(radius)
    norm_sq = x.norm() ** 2
    if abs(norm_sq - (1.0 - 2.0 ** (-stage))) > 1e-10:
        raise PreconditionError(
            f"stage {stage} expects ||x||^2 = 1 - 2^-{stage}, got {norm_sq:.12f}"
        )
    mu = power_forms(base, powers, x)
    cap = radius * 2.0 ** (-stage - 1)
    worst = float(np.max(np.abs(mu)))
    if worst > cap:
        floor = _form_floor(base, powers, x, norm_sq)
        if worst > cap + floor:
            raise PreconditionError(
                f"stage {stage} expects |<T^p x, x>| <= {cap:.3e}, got {worst:.3e}"
            )
        raise NumericalError(
            f"stage {stage}: |<T^p x, x>| = {worst:.3e} exceeds the cap "
            f"{cap:.3e} by no more than the float64 floor {floor:.3e}",
            residual=worst,
            floor=floor,
        )
    targets = -(2.0 ** (stage + 1)) * mu
    constraints = list(avoid or ())
    if len(x.indices):
        constraints = constraints + [x]
    wit = we_membership_witness(
        ops, targets, radius / 2.0, constraints=constraints, meter=meter
    )
    return add_scaled(x, wit.vector, 1.0, 2.0 ** (-(stage + 1) / 2.0))


def _tuple_len(ops):
    return len(ops) if isinstance(ops, (tuple, list)) else 1


def zero_tuple_vector(
    ops,
    avoid=None,
    start=None,
    start_stage=0,
    tol=HARD_TOL,
    max_stages=60,
    window_budget=None,
):
    """Unit w with every |<T^p w, w>| <= tol, built by staged increments.

    ``start`` defaults to the zero vector at stage 0; a unit start whose
    forms already meet tol is returned as-is.  A non-unit start must sit on
    the stage ladder: ||start||^2 = 1 - 2^{-start_stage}.  ``avoid`` lists
    vectors spanning the forbidden complement; w and its power images stay
    orthogonal to them.  The returned record is :func:`verify_zeroing`'s:
    unit norm, the final forms, and the distance ||w - start|| against the
    tail bound 3 * 2^{-start_stage/2 - 1}.  The stage norms must also follow
    the closed form within 1e-10; a miss raises NumericalError but is not a
    reported line.

    Before stage k the loop compares the stage cap radius 2^{-k-1} with the
    float64 floor of :func:`_form_floor`.  Once the cap is at or below the
    floor no later stage can be certified, so a ``tol`` below what float64
    can certify ends with NumericalError naming the stage, the cap and the
    floor (exit 1 on the command line), not with a refusal.  The floor
    depends only on the support size and the norms, so the stop stage does
    not depend on the BLAS build.
    """
    base, powers = _resolve_power_tuple(ops, _tuple_len(ops))
    tol = float(tol)
    if tol <= 0:
        raise DegenerateInputError("tol must be positive")
    start_stage = int(start_stage)
    if start_stage < 0:
        raise DegenerateInputError("start_stage must be nonnegative")
    radius = admissible_radius(circle_radius(base), max(powers))
    meter = BudgetMeter(window_budget)
    avoid = list(avoid or ())

    x_start = start if start is not None else WindowVector.zero()
    x = x_start
    stages = []
    early_exit = False

    start_norm = x.norm()
    if start is not None and abs(start_norm - 1.0) <= 1e-9:
        forms = power_forms(base, powers, x)
        if np.all(np.abs(forms) <= tol):
            early_exit = True
            w = normalize(x)
        else:
            raise PreconditionError(
                "unit start vector does not satisfy the requested tolerance; "
                "restart from the stage ladder instead"
            )
    if not early_exit:
        k = start_stage
        while True:
            norm_sq = x.norm() ** 2
            if norm_sq > 0:
                forms = power_forms(base, powers, x)
                ratio = float(np.max(np.abs(forms))) / norm_sq
                if ratio <= tol * 0.999:
                    break
                cap = radius * 2.0 ** (-k - 1)
                floor = _form_floor(base, powers, x, norm_sq)
                if cap <= floor:
                    raise NumericalError(
                        f"zeroing stopped before stage {k}: the stage cap "
                        f"{cap:.3e} is at or below the float64 floor "
                        f"{floor:.3e}, so tol={tol:.3e} cannot be certified",
                        residual=ratio,
                        floor=floor,
                        bound=tol,
                    )
            if k >= start_stage + max_stages:
                raise NumericalError(
                    f"zeroing did not converge within {max_stages} stages",
                    residual=ratio if norm_sq else None,
                )
            x = zero_iteration_step(
                ops, x, k, radius=radius, avoid=avoid, meter=meter
            )
            stages.append(
                {
                    "stage": k,
                    "norm_sq": x.norm() ** 2,
                    "expected_norm_sq": 1.0 - 2.0 ** (-k - 1),
                }
            )
            k += 1
        w = normalize(x)

    stage_dev = max(
        (abs(s["norm_sq"] - s["expected_norm_sq"]) for s in stages), default=0.0
    )
    cert = verify_zeroing(base, powers, w, x_start, start_stage, tol)
    cert.params = {"stages": stages, "early_exit": early_exit, "entries_charged": meter.used}
    require(cert.lines(), "zeroing certificate")
    require([Check.at_most("stage_norms", stage_dev, 1e-10)], "zeroing certificate")
    return cert


@dataclass(kw_only=True)
class ZeroingCertificate(Certificate):
    """The unit vector x whose power forms the zeroing drove below tol."""

    x: WindowVector


def verify_zeroing(base, powers, x, start, start_stage, tol):
    """Record with unit_norm | ||x|| - 1 | <= UNIT_TOL, forms max_p |<T^p x, x>|
    <= tol, distance ||x - start|| <= 3 * 2^{-k/2 - 1} with k the start stage."""
    lines = (
        Check.at_most("unit_norm", abs(x.norm() - 1.0), UNIT_TOL),
        Check.at_most("forms", np.max(np.abs(power_forms(base, powers, x))), tol),
        Check.at_most(
            "distance", (x - start).norm(), 3.0 * 2.0 ** (-start_stage / 2.0 - 1.0)
        ),
    )
    return ZeroingCertificate(x=x, checks=by_label(lines))


# ---------------------------------------------------------------------------
# almost orthogonal orbits


def _unit_roots(n):
    return np.exp(2j * math.pi * np.arange(n) / n)


def _require_unit_circle(base):
    """Refuse a model whose essential circle is not the unit circle: the
    orbit and the tower realize the n-th roots of unity."""
    if abs(circle_radius(base) - 1.0) > 1e-9:
        raise PreconditionError(
            "the circle of radius 1 is not in the essential approximate "
            f"point spectrum of this {type(base).__name__}"
        )


# a budget-capped orbit window must predict a recurrence at most this times eps
_RECURRENCE_MARGIN = 0.999


def almost_orthogonal_orbit(base, n, eps, window_budget=None):
    """Unit x whose orbit under T is almost orthonormal and almost periodic.

    Mixes n approximate eigenvectors at the n-th roots of unity,
    v = n^{-1/2} sum u_k.  Disjoint realizations make the cross terms exact
    zeros, so the discrete Fourier cancellation kills every off-diagonal
    Gram entry and the only eps-sized quantity left is the recurrence
    ||T^n x - x||, controlled by the window length.  Shift windows cancel
    exactly under the mix; diagonal phases sit within eps_vec <= 1e-8/(2n)
    of their roots, so every form |<T^j x, x>| is at most 5e-9.  The check
    lines are those of :func:`verify_orbit`, whose ``orthogonality`` line
    is the one guard on the forms: a miss raises NumericalError.

    A shift window of length m leaves the recurrence at sqrt(2n/m).  When
    the budget caps m, a window whose sqrt(2n/m) exceeds 0.999 eps is
    refused with WindowBudgetError before anything is built.  The measured
    recurrence matches sqrt(2n/m) to rounding; the 0.1% margin also covers
    the window profile's modulus factor |r|^-k, off 1 by at most m 1e-12.
    """
    n = int(n)
    if n < 1:
        raise DegenerateInputError("orbit length must be at least 1")
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise DegenerateInputError("eps must lie in (0, 1)")
    _require_unit_circle(base)
    nb = base.norm_bound()
    eps_prime = eps / (4.0 * n ** 1.5 * nb ** (2 * n))
    meter = BudgetMeter(window_budget)

    if isinstance(base, DiagonalUnitary):
        # basis realizations are single atoms; the residual scale is set by
        # the index tolerance, so meet both the proof bound and the hard
        # orthogonality threshold directly
        eps_vec = min(eps_prime, 0.5 * HARD_TOL / n)
        m = math.ceil(2.0 / eps_vec ** 2)
        m_proof = m
        budget_limited = False
    else:
        m_proof = math.ceil(2.0 / eps_prime ** 2)
        m_target = max(math.ceil(8.0 * n / eps ** 2), 2 * n + 2)
        # the certificate stores the family plus n+1 orbit vectors of the
        # same support, so the affordable window splits the budget n(n+2) ways
        affordable = meter.limit // (n * (n + 2))
        m = min(m_proof, m_target)
        budget_limited = m > affordable
        if budget_limited:
            m = affordable
        # m_target's recurrence sqrt(2n/m) is eps/2: only a capped m falls below m_min
        m_min = max(2 * n + 2, math.ceil(2.0 * n / (_RECURRENCE_MARGIN * eps) ** 2))
        if m < m_min:
            raise WindowBudgetError(
                f"orbit of length {n} at eps {eps:g} needs at least "
                f"{m_min * n * (n + 2)} stored entries, budget is {meter.limit}",
                required=m_min * n * (n + 2),
                budget=meter.limit,
            )

    lambdas = _unit_roots(n)
    family = approx_eigenvector_family(base, lambdas, m, margin=n + 1, meter=meter)
    scale = 1.0 / math.sqrt(n)
    x = normalize(combine((scale, u) for u in family))

    cert = verify_orbit(base, x, n, eps)
    cert.params = {
        "model": base.kind,
        "window_length": m,
        "proof_window_length": m_proof,
        "budget_limited": budget_limited,
        "epsilon_prime": eps_prime,
        "entries_charged": meter.used,
    }
    require(cert.lines(), "orbit certificate")
    return cert


# ---------------------------------------------------------------------------
# towers


def _assemble_dft_tower(u, family, n):
    """Stack u and the family into rows of the unitary DFT mix.

    Returns the levels w_j = n^{-1/2} sum_k lambda^{jk} u_k on the shared
    index set, checked for order once: level j scales the stacked blocks by
    their phases, dropping exact zeros.  Root phases are reduced mod n in
    integers, so the DFT inversion identity sum_j w_j = sqrt(n) u_0 suffers
    no phase drift.
    """
    blocks = [u] + list(family)
    all_idx = np.concatenate([b.indices for b in blocks])
    order = np.argsort(all_idx, kind="stable")
    idx = all_idx[order]
    if len(idx) > 1 and not np.all(np.diff(idx) > 0):
        raise NumericalError("tower blocks overlap; realization bug")
    values = np.concatenate([b.values for b in blocks])[order]
    block = np.repeat(np.arange(len(blocks)), [len(b.values) for b in blocks])[order]
    phases = _unit_roots(n)[np.outer(np.arange(n), np.arange(len(blocks))) % n]
    levels = []
    for c in phases * (1.0 / math.sqrt(n)):
        # phase times value, in that order: a fused complex multiply rounds
        # the swapped product differently
        row = c[block] * values
        keep = row != 0
        levels.append(
            WindowVector(idx, row, _checked=True)
            if keep.all()
            else WindowVector(idx[keep], row[keep], _checked=True)
        )
    return levels


def rokhlin_tower(base, n, eps, u=None, window_budget=None):
    """Orthonormal w_0..w_{n-1} with prescribed mean and links below eps.

    Needs n > max(4 ||T||^2 / eps^2, 1); the refusal reports the smallest
    admissible n.  u is the prescribed mean (default e_0); w_j is the DFT mix
    n^{-1/2} sum_k lambda^{jk} u_k with u_0 = u and u_k approximate
    eigenvectors at the roots of unity, realized disjointly, so Gram(w) = I
    and the mean identity hold to roundoff and the link residuals carry
    exactly ||Tu - u|| spread over sqrt(n) plus the eigenvector residuals.
    """
    n = int(n)
    eps = float(eps)
    if not 0.0 < eps <= 2.0:
        raise DegenerateInputError("eps must lie in (0, 2]")
    # before the height gate, whose minimal_n would be refused again here
    _require_unit_circle(base)
    nb = base.norm_bound()
    threshold = max(4.0 * nb ** 2 / eps ** 2, 1.0)
    # the strict gate is eps - 2 nb / sqrt(n) > 0; float rounding of the
    # threshold can admit the equality case (eps=0.1 gives 399.99...), so
    # test the expression the construction actually divides by
    if n <= threshold or eps - 2.0 * nb / math.sqrt(n) <= 0.0:
        minimal = int(math.floor(threshold)) + 1
        while eps - 2.0 * nb / math.sqrt(minimal) <= 0.0:
            minimal += 1
        raise PreconditionError(
            f"tower of height {n} needs n > {threshold:g}",
            minimal_n=minimal,
        )
    if u is None:
        u = WindowVector.basis(0)
    if abs(u.norm() - 1.0) > 1e-9:
        raise DegenerateInputError("prescribed mean must be a unit vector")

    eps_prime_sup = (eps - 2.0 * nb / math.sqrt(n)) / math.sqrt(n)
    eps_prime = eps_prime_sup / 2.0  # half the admissible supremum
    meter = BudgetMeter(window_budget)
    tu_defect = (base.apply(u) - u).norm()
    m_proof = math.ceil(2.0 / eps_prime ** 2)

    u_len = len(u.indices)
    if isinstance(base, DiagonalUnitary):
        m = m_proof  # atoms are free; the tolerance is what m encodes
        budget_limited = False
    else:
        # measured link: sqrt((||Tu-u||^2 + 2(n-1)/m) / n); size the window
        # for a 20% margin under eps, doubled, never below 4n
        d_margin = n * (0.8 * eps) ** 2 - tu_defect ** 2
        d_plain = n * eps ** 2 - tu_defect ** 2
        if d_margin > 0:
            m0 = math.ceil(2.0 * (n - 1) / d_margin)
        else:
            m0 = 2 * math.ceil(2.0 * (n - 1) / d_plain)
        m = min(m_proof, max(2 * m0, 4 * n))
        # stored entries: the n x S tower matrix plus the transient family,
        # S = |supp u| + (n-1) m, so m splits the budget (n-1)(n+1) ways
        affordable = (meter.limit - n * u_len) // ((n - 1) * (n + 1))
        budget_limited = m > affordable
        if budget_limited:
            m = affordable
        if m < 4:
            required = n * u_len + 4 * (n - 1) * (n + 1)
            raise WindowBudgetError(
                f"tower of height {n} needs at least {required} stored "
                f"entries, budget is {meter.limit}",
                required=required,
                budget=meter.limit,
            )

    roots = _unit_roots(n)
    family = approx_eigenvector_family(
        base, roots[1:], m, margin=2, constraints=[u], meter=meter
    )
    meter.charge(n * (u_len + sum(len(v.indices) for v in family)))
    w = _assemble_dft_tower(u, family, n)
    tower = verify_rokhlin_tower(base, w, u, eps)
    tower.params = {
        "model": base.kind,
        "window_length": m,
        "proof_window_length": m_proof,
        "budget_limited": budget_limited,
        "epsilon_prime": eps_prime,
        "epsilon_prime_supremum": eps_prime_sup,
        "minimal_n": int(math.floor(threshold)) + 1,
        "mean_link_defect": tu_defect,
        "entries_charged": meter.used,
    }
    require(tower.lines(), "tower certificate")
    return tower


def _links(base, w):
    n = len(w)
    return np.array(
        [combine(((1, base.apply(w[j])), (-1, w[(j + 1) % n]))).norm() for j in range(n)]
    )


def verify_rokhlin_tower(base, w, u, eps):
    """Tower record (empty params) with gram_identity max |Gram(w) - I| <=
    1e-10, mean_identity ||n^{-1/2} sum_j w_j - u|| <= 1e-12 and links
    max_j ||T w_j - w_{j+1}|| < eps over the cyclic links (w_n = w_0)."""
    n = len(w)
    gram_defect = float(np.max(np.abs(gram(w) - np.eye(n))))
    mean_defect = (combine((1, v) for v in w) * (1.0 / math.sqrt(n)) - u).norm()
    links = _links(base, w)
    checks = by_label(
        (
            Check.at_most("gram_identity", gram_defect, 1e-10),
            Check.at_most("mean_identity", mean_defect, 1e-12),
            Check.below("links", np.max(links), eps),
        )
    )
    return Tower(
        w=list(w),
        u=u,
        eps=eps,
        link_residuals=links,
        gram_defect=gram_defect,
        mean_defect=mean_defect,
        sum_defect=None,
        checks=checks,
    )


def _snap_classes(n_nodes, n):
    """Nearest admissible phase class 1..n-1 per grid node, ties upward.

    Node i sits at turn i/n_nodes; its scaled position x = i*n/n_nodes is
    rounded to the nearest integer in exact arithmetic, and the forbidden
    classes 0 and n fold onto 1 and n-1, the nearest admissible targets.
    """
    i = np.arange(n_nodes, dtype=np.int64)
    k = (2 * i * n + n_nodes) // (2 * n_nodes)
    k = np.where(k == 0, 1, k)
    k = np.where(k == n, n - 1, k)
    return k


def rotation_tower(grid, n, w0=None, window_budget=None):
    """Zero-sum tower for multiplication by z on a circle grid.

    w_j multiplies w0 by the snapped phase factor e^{i j theta(z)} where
    theta(z) is the nearest nonzero multiple of 2 pi/n, so every node's
    factors run over nontrivial n-th roots of unity: sum_j w_j vanishes
    pointwise exactly, each w_j stays unit, and the links obey
    ||T w_j - w_{j+1}|| <= 2 pi/n.  No mean can be prescribed here; the
    zero sum is the point.
    """
    if not isinstance(grid, MultiplicationGrid):
        raise UnsupportedModelError("rotation towers need a multiplication grid")
    n = int(n)
    if n < 2:
        raise DegenerateInputError("tower height must be at least 2")
    n_nodes = grid.dim
    if n_nodes < 2 * n:
        raise ResolutionError(
            f"{n_nodes} grid nodes cannot resolve {n} phase classes"
        )
    if w0 is None:
        w0 = normalize(grid.embed(np.ones(n_nodes)))
    if abs(w0.norm() - 1.0) > 1e-9:
        raise DegenerateInputError("w0 must be a unit grid vector")
    meter = BudgetMeter(window_budget)
    meter.charge(n * len(w0.indices))

    cls = _snap_classes(n_nodes, n)[np.asarray(w0.indices, np.int64)]
    roots = _unit_roots(n)
    w = []
    for j in range(n):
        factors = roots[(j * cls) % n]
        w.append(WindowVector(w0.indices, w0.values * factors))

    tower = verify_rotation_tower(grid, w)
    tower.params = {
        "model": grid.kind,
        "n_nodes": n_nodes,
        "class_counts": np.bincount(cls, minlength=n).tolist(),
        "entries_charged": meter.used,
    }
    require(tower.lines(), "rotation tower")
    return tower


def verify_rotation_tower(grid, w):
    """Tower record (empty params) with zero_sum max |sum_j w_j| <= 1e-12
    pointwise, links max_j ||T w_j - w_{j+1}|| <= 2 pi/n over the cyclic
    links (w_n = w_0) and unit_norms max_j | ||w_j|| - 1 | <= UNIT_TOL."""
    n = len(w)
    links = _links(grid, w)
    total = combine((1, v) for v in w)
    sum_defect = float(np.max(np.abs(total.values))) if len(total.values) else 0.0
    norm_dev = max(abs(v.norm() - 1.0) for v in w)
    # the w_j are NOT near-orthogonal here (the forbidden zero class
    # unbalances the arcs), so the Gram defect is informational; the Gram
    # is circulant, so its first column holds every off-diagonal value
    gram_defect = float(np.max(np.abs(cross_gram(w[1:], w[:1]))))
    link_bound = TWO_PI / n
    checks = by_label(
        (
            Check.at_most("zero_sum", sum_defect, 1e-12),
            Check.at_most("links", np.max(links), link_bound),
            Check.at_most("unit_norms", norm_dev, UNIT_TOL),
        )
    )
    return Tower(
        w=list(w),
        u=None,
        eps=link_bound,
        link_residuals=links,
        gram_defect=gram_defect,
        mean_defect=None,
        sum_defect=sum_defect,
        checks=checks,
    )
