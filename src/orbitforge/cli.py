"""Command-line front end: one subcommand per construction, plus verify/replay.

Every command's ``--help`` states the inequality it verifies, and every run
that writes a report can be replayed bit for bit with ``replay --from``.

Exit codes: 0 all checks passed, 1 a computation ran but missed its
certificate, 2 a construction refused its inputs (hypothesis or budget), 64
usage error, 65 config error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import load_config
from .errors import ConfigError, DegenerateInputError, NumericalError, REFUSAL_ERRORS
from .flatten import flat_report_csv, flat_subspace
from .harness import (
    CHECK_IDS,
    STATEMENTS,
    build_model,
    check_from_json,
    emit_report,
    exit_code,
    run_check,
)
from .moments import circle_moment_match
from .nrange import nr_boundary, radius_norm_bounds
from .operators import DenseOperator, MultiplicationGrid
from .witness import almost_orthogonal_orbit, rokhlin_tower, rotation_tower

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_REFUSED = 2
EXIT_USAGE = 64
EXIT_CONFIG = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit_json(obj, path):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        _write(path, text)
    else:
        print(text, end="")


def _load_matrix(path):
    with open(path, "r", encoding="utf-8") as fh:
        rows = json.load(fh)

    def entry(e):
        return complex(e[0], e[1]) if isinstance(e, (list, tuple)) else complex(e)

    return np.array([[entry(e) for e in row] for row in rows])


def _jordan(k, lam):
    return lam * np.eye(k, dtype=complex) + np.diag(np.ones(k - 1), 1)


def _number(kind, text):
    """kind(text); a literal that kind cannot read is refused."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DegenerateInputError(f"cannot read {text!r}: {exc}") from None


# -- subcommand bodies ------------------------------------------------------------


def _cmd_nrange(args):
    if args.matrix:
        a = _load_matrix(args.matrix)
    else:
        k = args.random if args.jordan is None else args.jordan
        if k < 1:
            raise DegenerateInputError(f"matrix size {k} is below 1")
        if args.jordan is not None:
            a = _jordan(k, _number(complex, args.lam))
        else:
            rng = np.random.default_rng(args.seed)
            a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    op = DenseOperator(a)
    # the boundary grid is refused, if at all, before any result is printed
    rows = None
    if args.out and args.format == "csv":
        rows = nr_boundary(op, n_angles=args.angles).rows()
    bounds = radius_norm_bounds(op)
    print(
        f"radius {bounds['radius']:.9g} to {bounds['radius_upper']:.9g}  "
        f"norm {bounds['norm_lower']:.9g} to {bounds['norm_upper']:.9g}  "
        f"w<=norm {'ok' if bounds['lower_holds'] else 'FAIL'}  "
        f"norm<=2w {'ok' if bounds['upper_holds'] else 'FAIL'}"
    )
    if args.out:
        if rows is not None:
            text = "theta,re,im\n" + "".join(
                f"{t:.12g},{re:.12g},{im:.12g}\n" for t, re, im in rows
            )
            _write(args.out, text)
        else:
            _emit_json(bounds, args.out)
    ok = bounds["lower_holds"] and bounds["upper_holds"]
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_moments(args):
    mode = "exact" if args.exact else "float"
    entries = [e.strip() for e in args.eps.split(",") if e.strip()]
    if mode == "exact":
        from fractions import Fraction

        eps = [_number(Fraction, e) for e in entries]
        rho = _number(Fraction, args.rho)
    else:
        eps = [_number(complex, e) for e in entries]
        rho = _number(float, args.rho)
    res = circle_moment_match(eps, rho=rho, mode=mode)
    blob = res.to_json()
    ok = all(c.passed for c in res.checks())
    print(
        f"{len(res.measure.weights)} atoms  residual {blob['residual_max']:.3e}  "
        f"mass defect {abs(res.mass_defect):.3e}  mode {mode}  "
        f"{'pass' if ok else 'FAIL'}"
    )
    _emit_json(blob, args.out)
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_orbit(args):
    op = build_model(args.model)
    cert = almost_orthogonal_orbit(op, args.n, args.eps, window_budget=args.budget)
    print(
        f"orbit n={args.n} eps={args.eps:g}  worst slack {cert.worst_slack():.3e}  "
        f"{'pass' if cert.passed() else 'FAIL'}"
    )
    if args.out:
        _emit_json(cert.to_json(), args.out)
    return EXIT_OK if cert.passed() else EXIT_NUMERICAL


def _cmd_tower(args):
    op = build_model(args.model)
    if isinstance(op, MultiplicationGrid):
        tower = rotation_tower(op, args.n, window_budget=args.budget)
    else:
        tower = rokhlin_tower(op, args.n, args.eps, window_budget=args.budget)
    worst = max(tower.link_residuals) if len(tower.link_residuals) else 0.0
    print(
        f"tower n={tower.n}  worst link {worst:.3e}  "
        f"{'pass' if tower.passed() else 'FAIL'}"
    )
    if args.out:
        _emit_json(tower.to_json(), args.out)
    return EXIT_OK if tower.passed() else EXIT_NUMERICAL


def _cmd_compress(args):
    from .nrange import diagonal_compression_subspace

    op = build_model(args.model)
    res = diagonal_compression_subspace(
        op,
        _number(complex, args.lam),
        args.n,
        dim=args.dim,
        delta=args.delta,
        window_budget=args.budget,
    )
    blob = {
        "lam": [res.lam.real, res.lam.imag],
        "n_powers": res.n_powers,
        "dim": res.subspace.dim,
        "power_defects": [float(d) for d in res.power_defects],
        "gram_defect": res.gram_defect,
        "delta": res.delta,
        "passed": res.passed(),
    }
    print(
        f"compression dim={res.subspace.dim} n={res.n_powers}  "
        f"worst defect {max(blob['power_defects']):.3e}  "
        f"{'pass' if res.passed() else 'FAIL'}"
    )
    if args.out:
        _emit_json(blob, args.out)
    return EXIT_OK if res.passed() else EXIT_NUMERICAL


def _cmd_flatten(args):
    op = build_model(args.model)
    _, report = flat_subspace(
        op, args.eps, args.d, window_budget=args.budget, rng=args.seed
    )
    print(
        f"flat subspace d={args.d} eps={args.eps:g}  "
        f"sup {report['sup_bound_closed_form']:.3e}  "
        f"{'pass' if report['passed'] else 'FAIL'}"
    )
    if args.out:
        if args.format == "csv":
            _write(args.out, flat_report_csv(report))
        else:
            _emit_json(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_NUMERICAL


def _cmd_verify(args):
    overrides = {}
    seed = args.seed
    ids = list(args.check) if args.check else list(CHECK_IDS)
    if args.config:
        cfg = load_config(args.config)
        params = dict(cfg.params)
        picked = params.pop("check", None)
        if picked:
            ids = [picked] if isinstance(picked, str) else list(picked)
        if cfg.model is not None:
            params.setdefault("model", cfg.model)
        overrides = {cid: params for cid in ids}
        seed = cfg.seed
        if cfg.output_path and not args.out:
            args.out = cfg.output_path
            args.format = cfg.output_format
    checks = [run_check(cid, overrides.get(cid), seed=seed) for cid in ids]
    for c in checks:
        print(
            f"{'PASS' if c.passed() else 'FAIL'} {c.check_id} "
            f"({len(c.results)} inequalities)"
        )
        if c.diagnostics:
            print(f"  {c.diagnostics}", file=sys.stderr)
    if args.out:
        if args.format == "json":
            _emit_json([c.to_json() for c in checks], args.out)
        else:
            _write(
                args.out, "\n".join(emit_report(c, args.format) for c in checks)
            )
    return exit_code(checks)


def _cmd_replay(args):
    with open(getattr(args, "from"), "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    items = payload if isinstance(payload, list) else [payload]
    all_ok = True
    for obj in items:
        recorded = check_from_json(obj)
        fresh = run_check(recorded.check_id, recorded.params, seed=recorded.seed)
        identical = fresh.results == recorded.results
        all_ok = all_ok and identical
        print(
            f"{'identical' if identical else 'MISMATCH'} {recorded.check_id} "
            f"seed={recorded.seed}"
        )
        if not identical:
            for old, new in zip(recorded.results, fresh.results):
                if old != new:
                    print(
                        f"  recorded {old.label} {old.measured!r} (bound "
                        f"{old.bound!r}), recomputed {new.label} {new.measured!r} "
                        f"(bound {new.bound!r})"
                    )
    return EXIT_OK if all_ok else EXIT_NUMERICAL


# -- parser -----------------------------------------------------------------------


def build_parser():
    parser = _Parser(
        prog="orbitforge",
        description=(
            "Constructive certificates for circle spectra: orbits, towers, "
            "compressions, flat subspaces, and their verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "nrange",
        help="numerical radius and norm comparison for a dense matrix",
        description=(
            "Verifies: w(T) <= ||T|| <= 2 w(T), w the numerical radius on the "
            "support-function grid; 'ok' means not refuted by the printed "
            "enclosures of w and ||T|| (J2 has ||T|| = 2 w(T) exactly)."
        ),
    )
    src = p.add_mutually_exclusive_group()
    src.add_argument("--matrix", help="JSON file with a square matrix")
    src.add_argument("--jordan", type=int, metavar="K", help="K x K Jordan block")
    src.add_argument(
        "--random", type=int, default=8, metavar="K", help="random K x K (default 8)"
    )
    p.add_argument("--lam", default="0", help="Jordan eigenvalue (default 0)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--angles", type=int, default=512, help="boundary grid size")
    p.add_argument("--out", help="report path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_nrange)

    p = sub.add_parser(
        "moments",
        help="atomic measure on the rho-circle matching prescribed moments",
        description=(
            "Verifies: the measure's moments 1..n equal the targets, with "
            "zero error in --exact mode (rational arithmetic end to end)."
        ),
    )
    p.add_argument("--eps", required=True, help='comma list, e.g. "0,0.1"')
    p.add_argument("--rho", default="1", help="circle radius (default 1)")
    p.add_argument("--exact", action="store_true", help="rational mode")
    p.add_argument("--out", help="atoms JSON path")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser(
        "orbit",
        help="almost-orthogonal orbit certificate",
        description="Verifies: " + STATEMENTS["orbit_certificate"] + ".",
    )
    p.add_argument("--model", default="bilateral-shift")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--budget", type=int, default=None, help="stored-entry cap")
    p.add_argument("--out", help="certificate JSON path")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser(
        "tower",
        help="almost-invariant tower (shift models) or rotation tower (grids)",
        description=(
            "Verifies: "
            + STATEMENTS["rokhlin_tower"]
            + ". On a grid model the variant statement is links <= 2 pi / n "
            "with an exactly zero sum."
        ),
    )
    p.add_argument("--model", default="bilateral-shift")
    p.add_argument("--n", type=int, default=65)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", help="tower JSON path")
    p.set_defaults(func=_cmd_tower)

    p = sub.add_parser(
        "compress",
        help="subspace compressing T^p to lam^p times the identity",
        description="Verifies: " + STATEMENTS["diagonal_compression"] + ".",
    )
    p.add_argument("--model", default="bilateral-shift")
    p.add_argument("--lam", default="0.4+0.1j")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser(
        "flatten",
        help="flat subspace: every positive power compresses below eps",
        description=(
            "Verifies: "
            + STATEMENTS["flat_subspace"]
            + ". At the default --d 1 the subspace is the span of one unit x "
            "and the statement reads sup over n >= 1 of |<T^n x, x>| <= eps."
        ),
    )
    p.add_argument("--model", default="bilateral-shift")
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--d", type=int, default=1, help="subspace dimension (default 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", help="report path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_flatten)

    p = sub.add_parser(
        "verify",
        help="run the named verification suites (default: all eight)",
        description=(
            "Runs each suite and reports its inequalities, measured once from "
            "the raw outputs; exits 0 only when every inequality holds. Suites: "
            + ", ".join(CHECK_IDS)
            + "."
        ),
    )
    p.add_argument(
        "--check", action="append", choices=CHECK_IDS, help="repeatable suite name"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="experiment config (INI or JSON)")
    p.add_argument("--out", help="combined report path")
    p.add_argument(
        "--format", choices=("json", "csv", "markdown"), default="json"
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "replay",
        help="re-run a recorded report and demand bit-identical results",
        description=(
            "Re-runs every check in the report from its recorded params and "
            "seed; exits 0 only when each measured value reproduces bit for "
            "bit."
        ),
    )
    p.add_argument("--from", required=True, help="report JSON from verify --out")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors exit 64
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        loc = f" ({exc.location})" if exc.location else ""
        print(f"config error: {exc}{loc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except REFUSAL_ERRORS as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
