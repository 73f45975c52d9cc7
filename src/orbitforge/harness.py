"""Named verification suites that re-measure each construction from its outputs.

Every suite drives one public construction with declared parameters, then
recomputes the claimed inequalities directly from the returned vectors and
the operator, never trusting the numbers the construction reported about
itself.  A suite result is a flat list of (label, measured, bound, passed)
lines plus the parameters and seed needed to reproduce it bit for bit.

Reports serialize deterministically: JSON with sorted keys round-trips to an
equal check object, CSV has one row per inequality, markdown embeds the
verified statement so a failure is readable without the source.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    apply_power,
    compress,
    operator_from_json,
    power_forms,
)
from .spectra import orbit_to_approx_eigenvector
from .vectors import combine, cross_gram, gram
from .witness import almost_orthogonal_orbit, rokhlin_tower, zero_tuple_vector

__all__ = [
    "CHECK_IDS",
    "CheckLine",
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
        "a unit x whose orbit x, Tx, ..., T^{n-1}x is pairwise eps-orthogonal "
        "with norms within eps of one and ||T^n x - x|| < eps"
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

UNIT_TOL = 1e-12
# moment_exact: moment error by mode, and mass error (also `orbitforge moments`)
MOMENT_BOUNDS = {"exact": 1e-12, "float": 1e-9}
MASS_BOUND = 1e-12


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


@dataclass(frozen=True)
class CheckLine:
    label: str
    measured: float
    bound: float
    passed: bool

    def to_json(self):
        return {
            "label": self.label,
            "measured": self.measured,
            "bound": self.bound,
            "passed": self.passed,
        }


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
        results=[
            CheckLine(r["label"], r["measured"], r["bound"], r["passed"])
            for r in obj["results"]
        ],
        seed=obj["seed"],
        diagnostics=obj.get("diagnostics"),
    )


def _line(label, measured, bound, strict=False):
    measured = float(measured)
    bound = float(bound)
    ok = measured < bound if strict else measured <= bound
    return CheckLine(label=label, measured=measured, bound=bound, passed=bool(ok))


def _orbit_vectors(op, x, n):
    return [apply_power(op, x, j) for j in range(n + 1)]


def _pairwise_forms(orbit):
    return float(np.max(np.triu(np.abs(gram(orbit)), 1), initial=0.0))


def _norm_drift(orbit):
    return max((abs(v.norm() - 1.0) for v in orbit), default=0.0)


def _complex_param(value):
    z = complex(value[0], value[1]) if isinstance(value, (list, tuple)) else complex(value)
    return z, [z.real, z.imag]


# -- the eight suites ---------------------------------------------------------------


def _check_orbit_certificate(params, seed):
    op = build_model(params.get("model", "bilateral-shift"))
    n = int(params.get("n", 8))
    eps = float(params.get("eps", 0.1))
    budget = params.get("window_budget")
    cert = almost_orthogonal_orbit(op, n, eps, window_budget=budget)
    orbit = _orbit_vectors(op, cert.x, n)
    lines = [
        _line("unit_norm", abs(cert.x.norm() - 1.0), UNIT_TOL),
        _line("pairwise_forms", _pairwise_forms(orbit[:n]), eps, strict=True),
        _line("norm_drift", _norm_drift(orbit[:n]), eps, strict=True),
        _line("recurrence", (orbit[n] - cert.x).norm(), eps, strict=True),
    ]
    norm_params = {
        "model": op.to_json(),
        "n": n,
        "eps": eps,
        "window_budget": budget,
    }
    return norm_params, lines


def _check_orbit_reverse_eigenvector(params, seed):
    op = build_model(params.get("model", "bilateral-shift"))
    n = int(params.get("n", 8))
    eps = float(params.get("eps", 1.0 / n))
    lam, lam_json = _complex_param(params.get("lam", 1.0))
    budget = params.get("window_budget")
    cert = almost_orthogonal_orbit(op, n, eps, window_budget=budget)
    pair = orbit_to_approx_eigenvector(op, cert.x, lam, n)
    residual = (op.apply(pair.vector) - lam * pair.vector).norm()
    lines = [
        _line("unit_norm", abs(pair.vector.norm() - 1.0), UNIT_TOL),
        _line("eigen_residual", residual, 3.0 / n, strict=True),
    ]
    norm_params = {
        "model": op.to_json(),
        "n": n,
        "eps": eps,
        "lam": lam_json,
        "window_budget": budget,
    }
    return norm_params, lines


def _check_unitary_orthogonal_orbit(params, seed):
    op = build_model(params.get("model", "diagonal-qi:2"))
    n = int(params.get("n", 8))
    eps = float(params.get("eps", 0.1))
    budget = params.get("window_budget")
    cert = almost_orthogonal_orbit(op, n, eps, window_budget=budget)
    orbit = _orbit_vectors(op, cert.x, n)
    lines = [
        _line("orthogonality", _pairwise_forms(orbit[:n]), 1e-8),
        _line("unit_norms", _norm_drift(orbit[:n]), UNIT_TOL),
        _line("recurrence", (orbit[n] - cert.x).norm(), eps, strict=True),
    ]
    norm_params = {
        "model": op.to_json(),
        "n": n,
        "eps": eps,
        "window_budget": budget,
    }
    return norm_params, lines


def _check_rokhlin_tower(params, seed):
    op = build_model(params.get("model", "bilateral-shift"))
    n = int(params.get("n", 65))
    eps = float(params.get("eps", 0.25))
    budget = params.get("window_budget")
    tower = rokhlin_tower(op, n, eps, window_budget=budget)
    gram_defect = float(np.max(np.abs(gram(tower.w) - np.eye(n))))
    total = combine((1, w) for w in tower.w)
    mean_defect = (total * (1.0 / math.sqrt(n)) - tower.u).norm()
    links = max(
        (op.apply(tower.w[j]) - tower.w[(j + 1) % n]).norm() for j in range(n)
    )
    lines = [
        _line("gram_identity", gram_defect, 1e-10),
        _line("mean_identity", mean_defect, 1e-12),
        _line("links", links, eps, strict=True),
    ]
    norm_params = {
        "model": op.to_json(),
        "n": n,
        "eps": eps,
        "window_budget": budget,
    }
    return norm_params, lines


def _check_flat_subspace(params, seed):
    op = build_model(params.get("model", "bilateral-shift"))
    eps = float(params.get("eps", 0.25))
    d = int(params.get("d", 3))
    budget = params.get("window_budget")
    sub, report = flat_subspace(op, eps, d, window_budget=budget, rng=seed)

    gram_defect = float(np.max(np.abs(gram(sub.basis) - np.eye(d))))

    counts = [len(v.indices) for v in sub.basis]
    bound_matrix = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1):
            bound_matrix[i, j] = 1.0 / math.sqrt(counts[i] * counts[j])
    sup_bound = float(np.linalg.norm(bound_matrix, 2))
    tail_rescaled = 0.0
    for r in range(d - 1):
        live = bound_matrix.copy()
        live[: r + 1, : r + 1] = 0.0
        tail_rescaled = max(
            tail_rescaled, float(np.linalg.norm(live, 2)) * 2 ** (r + 1)
        )

    times = report["schedule"]["times"]
    span = report["total_span"]
    worst_ratio = 0.0
    beyond = 0.0
    for row in report["per_n"]:
        n = row["n"]
        c = cross_gram([apply_power(op, b, n) for b in sub.basis], sub.basis).T
        norm = float(np.linalg.norm(c, 2))
        if n > span:
            beyond = max(beyond, norm)
            continue
        dead = sum(1 for t in times if t <= n)
        live = bound_matrix.copy()
        if dead:
            live[:dead, :dead] = 0.0
        stage_bound = float(np.linalg.norm(live, 2))
        worst_ratio = max(worst_ratio, norm / stage_bound)
    lines = [
        _line("gram_identity", gram_defect, 1e-10),
        _line("sup_closed_form", sup_bound, eps),
        _line("stage_tails_rescaled", tail_rescaled, eps),
        _line("sampled_within_bounds", worst_ratio, 1.0),
        _line("vanishes_beyond_span", beyond, 0.0),
    ]
    norm_params = {
        "model": op.to_json(),
        "eps": eps,
        "d": d,
        "window_budget": budget,
    }
    return norm_params, lines


def _check_tuple_zeroing(params, seed):
    op = build_model(params.get("model", "bilateral-shift"))
    powers = [int(p) for p in params.get("powers", [1, 2, 3, 4])]
    tol = float(params.get("tol", 1e-8))
    budget = params.get("window_budget")
    ops = tuple(OperatorPower(op, p) for p in powers)
    cert = zero_tuple_vector(ops, tol=tol, window_budget=budget)
    forms = float(np.max(np.abs(power_forms(op, powers, cert.x))))
    lines = [
        _line("unit_norm", abs(cert.x.norm() - 1.0), UNIT_TOL),
        _line("zeroed_forms", forms, tol),
        _line("distance_from_start", cert.x.norm(), 3.0 / 2.0),
    ]
    norm_params = {
        "model": op.to_json(),
        "powers": powers,
        "tol": tol,
        "window_budget": budget,
    }
    return norm_params, lines


def _check_diagonal_compression(params, seed):
    op = build_model(params.get("model", "bilateral-shift"))
    lam, lam_json = _complex_param(params.get("lam", [0.4, 0.1]))
    n = int(params.get("n", 3))
    dim = int(params.get("dim", 2))
    delta = float(params.get("delta", 0.05))
    budget = params.get("window_budget")
    res = diagonal_compression_subspace(
        op, lam, n, dim=dim, delta=delta, window_budget=budget
    )
    gram_defect = float(np.max(np.abs(gram(res.subspace.basis) - np.eye(dim))))
    defect = 0.0
    for p in range(1, n + 1):
        comp = compress(OperatorPower(op, p), res.subspace)
        defect = max(defect, float(np.max(np.abs(comp - lam ** p * np.eye(dim)))))
    lines = [
        _line("gram_identity", gram_defect, 1e-10),
        _line("power_defects", defect, delta),
    ]
    norm_params = {
        "model": op.to_json(),
        "lam": lam_json,
        "n": n,
        "dim": dim,
        "delta": delta,
        "window_budget": budget,
    }
    return norm_params, lines


def _check_moment_exact(params, seed):
    mode = str(params.get("mode", "exact"))
    rho = params.get("rho", 1)
    targets = params.get("eps", ["0", "1/100", "0", "1/200", "0", "1/500"])
    if mode == "exact":
        eps = [Fraction(str(t)) for t in targets]
        rho_v = Fraction(str(rho))
        norm_targets = [str(t) for t in eps]
    else:
        eps = [
            complex(t[0], t[1]) if isinstance(t, (list, tuple)) else complex(t)
            for t in targets
        ]
        rho_v = float(rho)
        norm_targets = [[z.real, z.imag] for z in eps]
    res = circle_moment_match(eps, rho=rho_v, mode=mode)
    n = len(eps)
    moments = res.measure.moments(n)
    targets_c = np.array([complex(t) for t in eps])
    moment_err = float(np.max(np.abs(moments - targets_c)))
    mass_err = abs(res.measure.mass() - 1.0)
    lines = [
        _line("moment_error", moment_err, MOMENT_BOUNDS[mode]),
        _line("mass", mass_err, MASS_BOUND),
    ]
    if mode == "exact":
        cert = res.exact_certificate or {}
        symbolic_ok = cert.get("moment_defects_zero") and cert.get("mass_defect_zero")
        lines.append(_line("symbolic_zero_defects", 0.0 if symbolic_ok else 1.0, 0.0))
    norm_params = {
        "mode": mode,
        "rho": str(rho_v) if mode == "exact" else rho_v,
        "eps": norm_targets,
    }
    return norm_params, lines


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
            results=[CheckLine("construction_certificate", measured, bound, False)],
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


def write_report(check, format, path):
    text = emit_report(check, format)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
