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
rounding never accumulates.  Exact mode runs the same construction in the
formal ring of :mod:`orbitforge.exactring`, where the moment defects and the
mass defect reduce to literal zeros, and carries float mirrors of the symbols
to emit concrete atoms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .certify import Check, require
from .errors import (
    DegenerateInputError,
    DomainError,
    NumericalError,
    ResolutionError,
)
from .exactring import QI, Ring
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
    """r(rho, n) = 1/b_n as an exact Fraction."""
    n = int(n)
    if n < 1:
        raise DegenerateInputError("need at least one moment")
    rho = _as_fraction(rho)
    if rho <= 0:
        raise DegenerateInputError("rho must be positive")
    b = 1 / rho
    for k in range(2, n + 1):
        b = 2 * b + rho ** -k
    return 1 / b


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

    @classmethod
    def from_json(cls, obj):
        atoms = obj["atoms"]
        return cls(
            rho=float(obj["rho"]),
            positions=np.array([complex(a[0], a[1]) for a in atoms]),
            weights=np.array([a[2] for a in atoms]),
        )


@dataclass
class MomentMatchResult:
    measure: AtomicMeasure
    targets: np.ndarray
    residuals: np.ndarray
    mass_defect: float
    mode: str
    stages: list = field(default_factory=list)
    exact_certificate: dict | None = None

    def checks(self):
        """moment_error max_k |m_k - e_k|, mass | mass - 1 |, and in exact mode
        symbolic_zero_defects (0 when the ring left literal zeros)."""
        bound = MOMENT_BOUNDS[self.mode]
        lines = [
            Check.at_most("moment_error", np.max(np.abs(self.residuals)), bound),
            Check.at_most("mass", abs(self.mass_defect), MASS_BOUND),
        ]
        if self.mode == "exact":
            cert = self.exact_certificate or {}
            zero = cert.get("moment_defects_zero") and cert.get("mass_defect_zero")
            lines.append(Check.at_most("symbolic_zero_defects", 0.0 if zero else 1.0, 0.0))
        return lines

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
    return _measured(measure, eps, "float", stages)


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

    ring = Ring()
    targets = [ring.const(e) for e in eps_qi]
    contrib = [ring.zero() for _ in range(n)]
    valuation: dict = {}
    stages = []
    for s in range(1, n + 1):
        resid = targets[s - 1] - contrib[s - 1]
        if resid.is_zero():
            continue
        ring.store_residual(s, resid)
        mirror = resid.evaluate(valuation)
        valuation[("R", s)] = abs(mirror)
        valuation[("E", s)] = (
            _principal_root_of_direction(mirror, s) if mirror != 0 else 1.0
        )
        stages.append(s)
        for k in range(s, n + 1, s):
            term = (
                ring.symbol("R", s)
                * ring.symbol("E", s, k)
                * ring.const(rho_q ** (k - s))
            )
            contrib[k - 1] = contrib[k - 1] + term

    # the whole point of the ring: these are literal zeros or the build is wrong
    for k in range(1, n + 1):
        defect = contrib[k - 1] - targets[k - 1]
        if not defect.is_zero():
            raise NumericalError(f"stage algebra left a nonzero moment-{k} defect")
    gadget_mass = ring.zero()
    for s in stages:
        gadget_mass = gadget_mass + ring.symbol("R", s) * ring.const(rho_q ** (-s))
    pad_el = ring.const(1) - gadget_mass
    if not (gadget_mass + pad_el - ring.const(1)).is_zero():
        raise NumericalError("mass element did not reduce to one")

    rho_f = float(rho_q)
    positions: list = []
    weights: list = []
    for s in stages:
        w = valuation[("R", s)] / (s * rho_f ** s)
        if w == 0.0:
            continue  # mirror collapsed; the symbolic certificate still stands
        positions.extend(_gadget_positions(rho_f, s, valuation[("E", s)]))
        weights.extend([w] * s)
    pad = 1.0 - float(np.sum(weights)) if weights else 1.0
    if pad < -1e-9:
        raise NumericalError("mirror masses exceeded one", residual=-pad)
    if pad > 0.0:
        positions.extend(_gadget_positions(rho_f, n + 1, 1.0))
        weights.extend([pad / (n + 1)] * (n + 1))
    measure = AtomicMeasure(rho_f, np.array(positions), np.array(weights))
    certificate = {
        "moment_defects_zero": True,
        "mass_defect_zero": True,
        "stages": list(stages),
    }
    targets_c = [e.to_complex() for e in eps_qi]
    return _measured(measure, targets_c, "exact", stages, certificate)


def _measured(measure, targets, mode, stages=(), exact_certificate=None):
    """Result record with the residuals and mass defect measured from the atoms."""
    targets = np.asarray(targets, np.complex128)
    return MomentMatchResult(
        measure=measure,
        targets=targets,
        residuals=measure.moments(len(targets)) - targets,
        mass_defect=measure.mass() - 1.0,
        mode=mode,
        stages=list(stages),
        exact_certificate=exact_certificate,
    )


def verify_moment_match(measure, targets, mode, exact_certificate=None):
    """The moment lines re-measured from the atoms; the symbolic line reads
    ``exact_certificate``, the ring's zero tests, which atoms cannot redo."""
    return _measured(measure, targets, mode, (), exact_certificate).checks()


def circle_moment_match(eps, rho=1.0, mode="float"):
    """Probability measure on the rho-circle matching moments 1..len(eps).

    Targets beyond the admissible radius raise DomainError carrying that
    radius.  mode="exact" requires targets and rho representable as Gaussian
    rationals (ints, Fractions, floats, or QI) and returns a result whose
    exact_certificate records the syntactic zero checks.  A result that misses
    a line of :meth:`MomentMatchResult.checks` raises NumericalError.
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
    require(res.checks(), "moment match")
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
        res = _measured(poisson_atoms(lam, rho, m), targets, "poisson", [m])
        if np.max(np.abs(res.residuals)) <= tol:
            return res
        if m >= max_nodes:
            raise ResolutionError(
                f"{m} nodes cannot reach tolerance {tol:g} for |u|/rho = "
                f"{abs(lam) / rho:.6g}"
            )
        m *= 2
