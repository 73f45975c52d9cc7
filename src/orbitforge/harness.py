"""Named verification suites that report each construction's verifier lines.

Every suite normalizes its parameters, drives one public construction, and
reports the lines of the statement's ``verify_<statement>`` applied to
exactly the returned objects.  Six constructions (orbit, tower, flat
subspace, zeroing, compression, moment match) make that one verifier call
themselves and carry its lines in their record; the suite reports those
lines, since a deterministic verifier on the same frozen objects can only
repeat them.  The reverse eigenvector and the unitary orbit, which no
construction claims, are verified here on the returned vectors.  A suite
result is a flat list of :class:`~orbitforge.certify.Check` lines plus the
parameters and seed needed to reproduce it bit for bit.

Reports serialize deterministically: JSON with sorted keys round-trips to an
equal check object, CSV has one row per inequality, markdown embeds the
verified statement so a failure is readable without the source.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .certify import Check
from .errors import DegenerateInputError, NumericalError
from .flatten import flat_subspace
from .moments import circle_moment_match
from .nrange import diagonal_compression_subspace
from .operators import (
    BilateralShift,
    ConstantWeights,
    DiagonalUnitary,
    MultiplicationGrid,
    OperatorPower,
    QuadraticIrrationalRotation,
    UnilateralShift,
    operator_from_json,
)
from .spectra import orbit_to_approx_eigenvector, verify_eigenpair
from .witness import (
    almost_orthogonal_orbit,
    rokhlin_tower,
    verify_unitary_orbit,
    zero_tuple_vector,
)

__all__ = [
    "CHECK_IDS",
    "VerificationCheck",
    "build_model",
    "check_from_json",
    "emit_report",
    "run_all",
    "run_check",
]

CHECK_IDS = (
    "orbit_certificate",
    "orbit_reverse_eigenvector",
    "unitary_orthogonal_orbit",
    "rokhlin_tower",
    "flat_subspace",
    "tuple_zeroing",
    "diagonal_compression",
    "moment_exact",
)

# the verified statement, quoted in markdown reports next to any failure
STATEMENTS = {
    "orbit_certificate": (
        "a unit x orthogonal to T^j x within 1e-8 for j = 1..n-1, whose orbit "
        "x, Tx, ..., T^{n-1}x is pairwise eps-orthogonal with norms within eps "
        "of one and ||T^n x - x|| < eps"
    ),
    "orbit_reverse_eigenvector": (
        "folding that orbit, y = sum_j lam^-j T^j x, gives a unit vector with "
        "||(T - lam) y|| < 3/n"
    ),
    "unitary_orthogonal_orbit": (
        "on a unitary model the orbit x, Tx, ..., T^{n-1}x is orthogonal to "
        "1e-8 and ||T^n x - x|| < eps"
    ),
    "rokhlin_tower": (
        "w_0..w_{n-1} orthonormal to 1e-10 with mean n^{-1/2} sum_j w_j = u "
        "to 1e-12 and every link ||T w_j - w_{j+1}|| < eps"
    ),
    "flat_subspace": (
        "an orthonormal d-dimensional subspace with sup over n >= 1 of "
        "||P T^n P|| <= eps certified in closed form and stage tails below "
        "eps / 2^{r+1}"
    ),
    "tuple_zeroing": (
        "a unit x with |<T_i x, x>| <= tol for every operator in the tuple, "
        "within 3 * 2^{-k/2 - 1} of the start vector"
    ),
    "diagonal_compression": (
        "a subspace where each compression of T^p equals lam^p times the "
        "identity within delta and the basis Gram is the identity to 1e-10"
    ),
    "moment_exact": (
        "an atomic probability measure on the rho-circle whose first n "
        "moments equal the targets, exactly in rational mode"
    ),
}

# -- model specs ------------------------------------------------------------------


def build_model(spec):
    """Operator from a spec: an instance, a serialized dict, or a shorthand.

    Shorthands: ``bilateral-shift``, ``unilateral-shift`` (append ``:w`` for
    a constant weight), ``diagonal-qi:d`` for the rotation by sqrt(d) turns,
    ``grid:n`` for the n-node multiplication grid.
    """
    if hasattr(spec, "apply"):
        return spec
    if isinstance(spec, dict):
        return operator_from_json(spec)
    name, _, arg = str(spec).partition(":")
    name = name.strip().replace("_", "-")
    if name == "bilateral-shift":
        return BilateralShift(ConstantWeights(complex(arg)) if arg else None)
    if name == "unilateral-shift":
        return UnilateralShift(ConstantWeights(complex(arg)) if arg else None)
    if name == "diagonal-qi":
        return DiagonalUnitary(QuadraticIrrationalRotation(int(arg) if arg else 2))
    if name == "grid":
        if not arg:
            raise DegenerateInputError("grid shorthand needs a node count, grid:n")
        return MultiplicationGrid(int(arg))
    raise DegenerateInputError(f"unknown model shorthand {spec!r}")


# -- check plumbing ----------------------------------------------------------------


@dataclass
class VerificationCheck:
    check_id: str
    params: dict
    results: list
    seed: int
    diagnostics: str | None = None

    @property
    def statement(self):
        return STATEMENTS[self.check_id]

    def passed(self):
        return (
            self.diagnostics is None
            and bool(self.results)
            and all(r.passed for r in self.results)
        )

    def to_json(self):
        return {
            "check_id": self.check_id,
            "params": self.params,
            "results": [r.to_json() for r in self.results],
            "seed": self.seed,
            "diagnostics": self.diagnostics,
            "statement": self.statement,
            "passed": self.passed(),
        }


def check_from_json(obj):
    return VerificationCheck(
        check_id=obj["check_id"],
        params=obj["params"],
        results=[Check(**r) for r in obj["results"]],
        seed=obj["seed"],
        diagnostics=obj.get("diagnostics"),
    )


def _param(params, key, default, read):
    """read(params[key]), or read(default) when the key is absent; a value
    that ``read`` cannot take is refused with its key."""
    value = params.get(key, default)
    try:
        return read(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DegenerateInputError(
            f"cannot read suite parameter {key!r} = {value!r}: {exc}"
        ) from None


def _int_param(value):
    """An int, an integral float or a decimal string; 8.7, "8.7" and booleans
    are refused rather than truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value) if isinstance(value, (str, float)) else operator.index(value)


def _complex_param(value):
    z = complex(value[0], value[1]) if isinstance(value, (list, tuple)) else complex(value)
    return z, [z.real, z.imag]


def _model(params, default):
    """(operator, window budget, their normalized params) of a model suite."""
    op = _param(params, "model", default, build_model)
    budget = params.get("window_budget")
    return op, budget, {"model": op.to_json(), "window_budget": budget}


# -- the eight suites: normalize the parameters, build, report the verifier lines ----


def _check_orbit_certificate(params, seed):
    op, budget, norm = _model(params, "bilateral-shift")
    n, eps = _param(params, "n", 8, _int_param), _param(params, "eps", 0.1, float)
    cert = almost_orthogonal_orbit(op, n, eps, window_budget=budget)
    return dict(norm, n=n, eps=eps), list(cert.checks.values())


def _check_orbit_reverse_eigenvector(params, seed):
    op, budget, norm = _model(params, "bilateral-shift")
    n = _param(params, "n", 8, _int_param)
    # n < 1 is refused by the builder, not by a ZeroDivisionError here
    eps = _param(params, "eps", 1.0 / max(n, 1), float)
    lam, lam_json = _param(params, "lam", 1.0, _complex_param)
    cert = almost_orthogonal_orbit(op, n, eps, window_budget=budget)
    pair = orbit_to_approx_eigenvector(op, cert.x, lam, n)
    lines = verify_eigenpair(op, pair.vector, lam, n)
    return dict(norm, n=n, eps=eps, lam=lam_json), lines


def _check_unitary_orthogonal_orbit(params, seed):
    op, budget, norm = _model(params, "diagonal-qi:2")
    n, eps = _param(params, "n", 8, _int_param), _param(params, "eps", 0.1, float)
    cert = almost_orthogonal_orbit(op, n, eps, window_budget=budget)
    return dict(norm, n=n, eps=eps), verify_unitary_orbit(op, cert.x, n, eps)


def _check_rokhlin_tower(params, seed):
    op, budget, norm = _model(params, "bilateral-shift")
    n, eps = _param(params, "n", 65, _int_param), _param(params, "eps", 0.25, float)
    tower = rokhlin_tower(op, n, eps, window_budget=budget)
    return dict(norm, n=n, eps=eps), list(tower.checks.values())


def _check_flat_subspace(params, seed):
    op, budget, norm = _model(params, "bilateral-shift")
    eps, d = _param(params, "eps", 0.25, float), _param(params, "d", 3, _int_param)
    _sub, report = flat_subspace(op, eps, d, window_budget=budget, rng=seed)
    return dict(norm, eps=eps, d=d), [Check(**c) for c in report["checks"]]


def _check_tuple_zeroing(params, seed):
    op, budget, norm = _model(params, "bilateral-shift")
    powers = _param(params, "powers", [1, 2, 3, 4], lambda ps: [_int_param(p) for p in ps])
    tol = _param(params, "tol", 1e-8, float)
    ops = tuple(OperatorPower(op, p) for p in powers)
    cert = zero_tuple_vector(ops, tol=tol, window_budget=budget)
    return dict(norm, powers=powers, tol=tol), list(cert.checks.values())


def _check_diagonal_compression(params, seed):
    op, budget, norm = _model(params, "bilateral-shift")
    lam, lam_json = _param(params, "lam", [0.4, 0.1], _complex_param)
    n, dim = _param(params, "n", 3, _int_param), _param(params, "dim", 2, _int_param)
    delta = _param(params, "delta", 0.05, float)
    res = diagonal_compression_subspace(
        op, lam, n, dim=dim, delta=delta, window_budget=budget
    )
    lines = list(res.checks.values())
    return dict(norm, lam=lam_json, n=n, dim=dim, delta=delta), lines


def _check_moment_exact(params, seed):
    mode = str(params.get("mode", "exact"))
    exact = mode == "exact"

    def number(t):
        # strings such as "1/100" read through Fraction in both modes
        if exact:
            return Fraction(str(t))
        return complex(Fraction(t)) if isinstance(t, str) else _complex_param(t)[0]

    def real(t):
        if exact:
            return Fraction(str(t))
        return float(Fraction(t) if isinstance(t, str) else t)

    rho = _param(params, "rho", 1, real)
    targets = ["0", "1/100", "0", "1/200", "0", "1/500"]
    eps = _param(params, "eps", targets, lambda ts: [number(t) for t in ts])
    lines = circle_moment_match(eps, rho=rho, mode=mode).checks()
    if exact:
        return {"mode": mode, "rho": str(rho), "eps": [str(t) for t in eps]}, lines
    return {"mode": mode, "rho": rho, "eps": [[z.real, z.imag] for z in eps]}, lines


_SUITES = {
    "orbit_certificate": _check_orbit_certificate,
    "orbit_reverse_eigenvector": _check_orbit_reverse_eigenvector,
    "unitary_orthogonal_orbit": _check_unitary_orthogonal_orbit,
    "rokhlin_tower": _check_rokhlin_tower,
    "flat_subspace": _check_flat_subspace,
    "tuple_zeroing": _check_tuple_zeroing,
    "diagonal_compression": _check_diagonal_compression,
    "moment_exact": _check_moment_exact,
}


def run_check(check_id, params=None, seed=0):
    """Run one named suite; refusals propagate, certificate failures do not.

    A construction that runs but misses its own certificate comes back as a
    failed check with diagnostics instead of an exception, so a batch keeps
    going and the report shows what was measured.
    """
    if check_id not in _SUITES:
        raise DegenerateInputError(
            f"unknown check id {check_id!r}; expected one of {', '.join(CHECK_IDS)}"
        )
    params = dict(params or {})
    if hasattr(params.get("model"), "apply"):
        params["model"] = params["model"].to_json()
    seed = int(seed)
    try:
        norm_params, lines = _SUITES[check_id](params, seed)
    except NumericalError as exc:
        residual = exc.residual
        measured = float(residual) if residual is not None and math.isfinite(residual) else 1.0
        bound = 0.0 if exc.bound is None else float(exc.bound)
        return VerificationCheck(
            check_id=check_id,
            params=params,
            results=[Check("construction_certificate", measured, bound, False)],
            seed=seed,
            diagnostics=str(exc),
        )
    return VerificationCheck(
        check_id=check_id, params=norm_params, results=lines, seed=seed
    )


def run_all(seed=0, overrides=None):
    """All eight suites at their defaults, in declaration order."""
    overrides = overrides or {}
    return [run_check(cid, overrides.get(cid), seed=seed) for cid in CHECK_IDS]


def exit_code(checks):
    """0 when every check passed, 1 otherwise; refusals raise before this."""
    return 0 if all(c.passed() for c in checks) else 1


# -- report emission -----------------------------------------------------------------


def emit_report(check, format="json"):
    """Deterministic text report for one check: json, csv, or markdown."""
    if format == "json":
        return json.dumps(check.to_json(), sort_keys=True, indent=2) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check_id", "label", "measured", "bound", "passed"])
        for r in check.results:
            writer.writerow(
                [check.check_id, r.label, repr(r.measured), repr(r.bound), r.passed]
            )
        return buf.getvalue()
    if format == "markdown":
        status = "PASS" if check.passed() else "FAIL"
        out = [
            f"## {check.check_id}: {status}",
            "",
            f"> {check.statement}",
            "",
            f"seed: {check.seed}",
            "",
            "```json",
            json.dumps(check.params, sort_keys=True),
            "```",
            "",
            "| inequality | measured | bound | pass |",
            "|---|---|---|---|",
        ]
        for r in check.results:
            out.append(
                f"| {r.label} | {r.measured:.6e} | {r.bound:.6e} | "
                f"{'yes' if r.passed else 'NO'} |"
            )
        if check.diagnostics:
            out += ["", f"diagnostics: {check.diagnostics}"]
        return "\n".join(out) + "\n"
    raise DegenerateInputError(f"unknown report format {format!r}")
