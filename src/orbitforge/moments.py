"""Atomic measures on a circle with prescribed power moments.

Given targets e_1..e_n, :func:`circle_moment_match` builds a probability
measure on the circle of radius rho whose k-th moments hit the targets, one
root-of-unity gadget per stage: s equally weighted atoms at the rotated s-th
roots contribute nothing to moments 1..s-1, exactly the requested correction
to moment s, and a known pollution to moments 2s, 3s, ... which later stages
absorb.  The admissible target size r(rho, n) = 1/b_n, with

    b_1 = 1/rho,   b_k = 2*b_{k-1} + rho**-k,

is exactly what makes the gadget masses sum to at most one; the leftover mass
sits on rotated (n+1)-th roots, invisible to moments 1..n.

Float mode measures each stage residual from the atoms already placed, so
rounding never accumulates.  Exact mode runs the same construction on
Laurent polynomials in the stage moduli (:mod:`orbitforge.exactring`), where
the moment defects and the mass defect reduce to literal zeros, and carries
float mirrors of the symbols to emit concrete atoms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certify import Certificate, Check, by_label, require
from .errors import (
    DegenerateInputError,
    DomainError,
    NumericalError,
    ResolutionError,
)
from .exactring import EMPTY_MONOMIAL, QI, add_stage, evaluate, minus
from .operators import TWO_PI

# the moment statement's bounds: moment error by mode, and mass error
MOMENT_BOUNDS = {"exact": 1e-12, "float": 1e-9}
MASS_BOUND = 1e-12


def _as_fraction(x):
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DegenerateInputError(f"{x!r} is not a finite rational")
        return Fraction(x)  # floats are exact dyadic rationals
    raise DegenerateInputError(f"cannot interpret {x!r} as an exact rational")


def admissible_radius_exact(rho, n):
    """r(rho, n) = 1/b_n as an exact Fraction.

    Unrolled, b_n = sum_{k=1}^n 2^{n-k} rho^{-k}, so for rho = p/q in lowest
    terms r = p^n / sum_k (2p)^{n-k} q^k: one integer sum and one gcd.
    """
    n = int(n)
    if n < 1:
        raise DegenerateInputError("need at least one moment")
    rho = _as_fraction(rho)
    if rho <= 0:
        raise DegenerateInputError("rho must be positive")
    p, q = rho.numerator, rho.denominator
    return Fraction(p ** n, sum((2 * p) ** (n - k) * q ** k for k in range(1, n + 1)))


def admissible_radius(rho, n):
    return float(admissible_radius_exact(rho, n))


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite nonnegative atomic measure: positions and weights."""

    rho: float
    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, np.complex128)
        wts = np.asarray(self.weights, np.float64)
        if pos.shape != wts.shape or pos.ndim != 1:
            raise DegenerateInputError("positions and weights must match 1-d")
        if len(wts) == 0:
            raise DegenerateInputError("measure needs at least one atom")
        if np.any(wts <= 0):
            raise DegenerateInputError("atom weights must be strictly positive")
        pos.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", wts)

    def mass(self):
        return float(np.sum(self.weights))

    def moment(self, k):
        return complex(np.sum(self.weights * self.positions ** k))

    def moments(self, n):
        return np.array([self.moment(k) for k in range(1, n + 1)])

    def to_json(self):
        return {
            "rho": self.rho,
            "atoms": [
                [z.real, z.imag, float(w)]
                for z, w in zip(self.positions, self.weights)
            ],
        }


@dataclass(kw_only=True)
class MomentMatchResult(Certificate):
    measure: AtomicMeasure
    targets: np.ndarray
    residuals: np.ndarray
    mass_defect: float
    mode: str
    stages: list
    exact_certificate: dict | None

    def to_json(self):
        out = {
            "mode": self.mode,
            "stages": list(self.stages),
            "measure": self.measure.to_json(),
            "targets": [[t.real, t.imag] for t in self.targets],
            "residual_max": float(np.max(np.abs(self.residuals))) if len(self.residuals) else 0.0,
            "mass_defect": self.mass_defect,
        }
        if self.exact_certificate is not None:
            out["exact"] = dict(self.exact_certificate)
        return out


def _coerce_exact_target(e):
    if isinstance(e, QI):
        return e
    if isinstance(e, (Fraction, int, float)):
        return QI(e)
    if isinstance(e, tuple) and len(e) == 2:
        return QI(e[0], e[1])
    return QI(complex(e))


def _gadget_positions(rho, s, zeta):
    return [rho * cmath.exp(TWO_PI * 1j * j / s) * zeta for j in range(1, s + 1)]


def _principal_root_of_direction(value, s):
    return cmath.exp(1j * cmath.phase(value) / s)


def _match_float(eps, rho):
    n = len(eps)
    r = admissible_radius(rho, n)
    for k, e in enumerate(eps, start=1):
        if not cmath.isfinite(e):
            raise DegenerateInputError(f"target moment {k} = {e} is not finite")
        if abs(e) > r * (1 + 1e-12) + 1e-15:
            raise DomainError(
                f"|target moment {k}| = {abs(e):.6g} exceeds the admissible radius {r:.6g}",
                admissible_radius=r,
            )
    positions: list = []
    weights: list = []
    stages = []
    for s in range(1, n + 1):
        placed = np.sum(
            np.asarray(weights) * np.asarray(positions, np.complex128) ** s
        ) if positions else 0j
        cur = eps[s - 1] - placed
        if cur == 0:
            continue
        zeta = _principal_root_of_direction(cur, s)
        w = abs(cur) / (s * rho ** s)
        positions.extend(_gadget_positions(rho, s, zeta))
        weights.extend([w] * s)
        stages.append(s)
    pad = 1.0 - float(np.sum(weights)) if weights else 1.0
    if pad < -1e-12:
        raise NumericalError(
            "gadget masses exceeded one despite admissible targets", residual=-pad
        )
    if pad > 0.0:
        positions.extend(_gadget_positions(rho, n + 1, 1.0))
        weights.extend([pad / (n + 1)] * (n + 1))
    measure = AtomicMeasure(rho, np.array(positions), np.array(weights))
    return verify_moment_match(measure, eps, "float", stages)


def _match_exact(eps, rho):
    n = len(eps)
    rho_q = _as_fraction(rho)
    if rho_q <= 0:
        raise DegenerateInputError("rho must be positive")
    r_exact = admissible_radius_exact(rho_q, n)
    eps_qi = [_coerce_exact_target(e) for e in eps]
    for k, e in enumerate(eps_qi, start=1):
        if e.modulus_sq() > r_exact * r_exact:
            raise DomainError(
                f"|target moment {k}|^2 = {float(e.modulus_sq()):.6g} exceeds "
                f"r^2 = {float(r_exact * r_exact):.6g} exactly",
                admissible_radius=float(r_exact),
            )

    targets = [{EMPTY_MONOMIAL: e} if e else {} for e in eps_qi]
    contrib = [{} for _ in range(n)]
    moduli, roots = {}, {}  # float mirrors of R_s and E_s
    stages = []
    for s in range(1, n + 1):
        resid = minus(targets[s - 1], contrib[s - 1])
        if not resid:
            continue
        mirror = evaluate(resid, moduli)
        moduli[s] = abs(mirror)
        roots[s] = _principal_root_of_direction(mirror, s) if mirror != 0 else 1.0
        stages.append(s)
        add_stage(contrib, s, resid, rho_q)
    # normal forms are unique, so these are the exact zero tests: the moment
    # defects, and the gadget masses R_s rho^-s plus the pad against one
    one = {EMPTY_MONOMIAL: QI(1)}
    gadgets = {((s, 1),): QI(rho_q ** -s) for s in stages}
    spare = minus(one, gadgets)
    certificate = {
        "moment_defects_zero": not any(minus(c, t) for c, t in zip(contrib, targets)),
        "mass_defect_zero": not minus(minus(one, spare), gadgets),
        "stages": list(stages),
    }

    rho_f = float(rho_q)
    positions: list = []
    weights: list = []
    for s in stages:
        w = moduli[s] / (s * rho_f ** s)
        if w == 0.0:
            continue  # mirror collapsed; the symbolic certificate still stands
        positions.extend(_gadget_positions(rho_f, s, roots[s]))
        weights.extend([w] * s)
    pad = 1.0 - float(np.sum(weights)) if weights else 1.0
    if pad < -1e-9:
        raise NumericalError("mirror masses exceeded one", residual=-pad)
    if pad > 0.0:
        positions.extend(_gadget_positions(rho_f, n + 1, 1.0))
        weights.extend([pad / (n + 1)] * (n + 1))
    measure = AtomicMeasure(rho_f, np.array(positions), np.array(weights))
    targets_c = [e.to_complex() for e in eps_qi]
    return verify_moment_match(measure, targets_c, "exact", stages, certificate)


def verify_moment_match(measure, targets, mode, stages, exact_certificate=None):
    """Record with the residuals and mass defect measured from the atoms.

    Lines, for a mode with a bound in MOMENT_BOUNDS: moment_error
    max_k |m_k - e_k|, mass | mass - 1 | and, in exact mode,
    symbolic_zero_defects (0 when the stage algebra left literal zeros),
    which reads ``exact_certificate``, the exact zero tests that atoms cannot
    redo.
    """
    targets = np.asarray(targets, np.complex128)
    residuals = measure.moments(len(targets)) - targets
    mass_defect = measure.mass() - 1.0
    lines = []
    if mode in MOMENT_BOUNDS:  # power_profile_measure's "poisson" mode has none
        lines = [
            Check.at_most("moment_error", np.max(np.abs(residuals)), MOMENT_BOUNDS[mode]),
            Check.at_most("mass", abs(mass_defect), MASS_BOUND),
        ]
        if mode == "exact":
            cert = exact_certificate or {}
            zero = cert.get("moment_defects_zero") and cert.get("mass_defect_zero")
            lines.append(Check.at_most("symbolic_zero_defects", 0.0 if zero else 1.0, 0.0))
    return MomentMatchResult(
        measure=measure,
        targets=targets,
        residuals=residuals,
        mass_defect=mass_defect,
        mode=mode,
        stages=list(stages),
        exact_certificate=exact_certificate,
        checks=by_label(lines),
    )


def circle_moment_match(eps, rho=1.0, mode="float"):
    """Probability measure on the rho-circle matching moments 1..len(eps).

    Targets beyond the admissible radius raise DomainError carrying that
    radius.  mode="exact" requires targets and rho representable as Gaussian
    rationals (ints, Fractions, floats, or QI) and returns a result whose
    exact_certificate records the syntactic zero checks.  A result that misses
    a line of :func:`verify_moment_match` raises NumericalError.
    """
    eps = list(eps)
    if not eps:
        raise DegenerateInputError("need at least one target moment")
    if mode == "float":
        res = _match_float([complex(e) for e in eps], float(rho))
    elif mode == "exact":
        res = _match_exact(eps, rho)
    else:
        raise DegenerateInputError(f"unknown mode {mode!r}")
    require(res.lines(), "moment match")
    return res


# ---------------------------------------------------------------------------
# harmonic-measure route for power-profile targets


def poisson_atoms(u, rho=1.0, m=64):
    """Discretized harmonic measure of the point u inside the rho-circle.

    m equispaced nodes weighted by the Poisson kernel and renormalized to
    mass one.  Node moments approach u^k geometrically in m - k.
    """
    u = complex(u)
    rho = float(rho)
    m = int(m)
    if m < 1:
        raise DegenerateInputError("need at least one node")
    if abs(u) >= rho:
        raise DomainError(
            f"|u| = {abs(u):.6g} must lie strictly inside the circle of radius {rho:.6g}",
            admissible_radius=rho,
        )
    theta = TWO_PI * np.arange(m) / m
    nodes = rho * np.exp(1j * theta)
    kernel = (rho ** 2 - abs(u) ** 2) / np.abs(nodes - u) ** 2
    weights = kernel / kernel.sum()
    return AtomicMeasure(rho, nodes, weights)


def power_profile_measure(lam, n, rho=1.0, tol=1e-12, max_nodes=1 << 22):
    """Measure on the rho-circle with moments lam, lam^2, ..., lam^n.

    Doubles the node count until every measured moment is within tol of its
    target; the geometric decay of the discretization error makes this cheap.
    """
    lam = complex(lam)
    n = int(n)
    if n < 1:
        raise DegenerateInputError("need at least one moment")
    targets = np.array([lam ** k for k in range(1, n + 1)])
    m = max(32, 4 * (n + 1))
    while True:
        res = verify_moment_match(poisson_atoms(lam, rho, m), targets, "poisson", [m])
        if np.max(np.abs(res.residuals)) <= tol:
            return res
        if m >= max_nodes:
            raise ResolutionError(
                f"{m} nodes cannot reach tolerance {tol:g} for |u|/rho = "
                f"{abs(lam) / rho:.6g}"
            )
        m *= 2
