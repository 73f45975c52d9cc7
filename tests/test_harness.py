"""Verification suites: replay determinism and deterministic report bytes."""

import json
import math

import pytest

from orbitforge.errors import DegenerateInputError
from orbitforge.harness import (
    CHECK_IDS,
    STATEMENTS,
    VerificationCheck,
    build_model,
    check_from_json,
    emit_report,
    exit_code,
    run_all,
    run_check,
)
from orbitforge.operators import (
    BilateralShift,
    DiagonalUnitary,
    MultiplicationGrid,
    UnilateralShift,
)
from orbitforge.vectors import WindowVector
from orbitforge.witness import rokhlin_tower, verify_rokhlin_tower


def test_all_eight_suites_pass_at_defaults():
    checks = run_all()
    assert [c.check_id for c in checks] == list(CHECK_IDS)
    for c in checks:
        assert c.passed(), f"{c.check_id}: {[r for r in c.results if not r.passed]}"
    assert exit_code(checks) == 0


def test_every_check_id_has_a_statement():
    assert len(CHECK_IDS) == 8
    for cid in CHECK_IDS:
        assert STATEMENTS[cid]


def test_replay_is_bit_identical():
    a = run_check("flat_subspace", {"eps": 1.5, "d": 2}, seed=11)
    b = run_check("flat_subspace", {"eps": 1.5, "d": 2}, seed=11)
    assert a == b
    assert [r.measured for r in a.results] == [r.measured for r in b.results]


def test_params_are_normalized_and_serializable():
    c = run_check("orbit_certificate", {"n": 4, "eps": 0.2})
    assert c.params["n"] == 4
    assert c.params["model"]["kind"] == "bilateral_shift"
    json.dumps(c.to_json())  # must not raise
    # an operator instance as the model is normalized away
    c2 = run_check("orbit_certificate", {"model": BilateralShift(), "n": 4, "eps": 0.2})
    assert c2.params["model"] == c.params["model"]
    assert c2 == c


def test_json_report_round_trips_to_equal_check():
    c = run_check("tuple_zeroing", {"powers": [1, 2], "tol": 1e-8})
    back = check_from_json(json.loads(emit_report(c, "json")))
    assert back == c
    # deterministic bytes
    assert emit_report(c, "json") == emit_report(back, "json")


def test_csv_has_one_row_per_inequality():
    c = run_check("moment_exact")
    text = emit_report(c, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "check_id,label,measured,bound,passed"
    assert len(lines) == 1 + len(c.results)
    assert all(row.startswith("moment_exact,") for row in lines[1:])


def test_markdown_quotes_the_statement():
    c = run_check("moment_exact")
    text = emit_report(c, "markdown")
    assert c.statement in text
    assert "PASS" in text
    assert text.count("| ") >= len(c.results)


def test_emit_report_rejects_unknown_format():
    c = run_check("moment_exact")
    with pytest.raises(DegenerateInputError):
        emit_report(c, "xml")


def test_unknown_check_id_is_refused():
    with pytest.raises(DegenerateInputError, match="unknown check id"):
        run_check("pythagoras")


@pytest.mark.parametrize(
    "check_id, params, key",
    [
        ("orbit_certificate", {"n": "abc"}, "n"),
        ("orbit_reverse_eigenvector", {"lam": "north"}, "lam"),
        ("tuple_zeroing", {"powers": [1, "two"]}, "powers"),
        ("diagonal_compression", {"model": "diagonal-qi:x"}, "model"),
        ("moment_exact", {"eps": ["0", "1/0"]}, "eps"),
        ("moment_exact", {"mode": "float", "rho": None}, "rho"),
        # integer parameters are refused, not truncated
        ("orbit_certificate", {"n": 8.7}, "n"),
        ("orbit_certificate", {"n": "8.7"}, "n"),
        ("orbit_certificate", {"n": True}, "n"),
        ("flat_subspace", {"d": 2.5}, "d"),
        ("tuple_zeroing", {"powers": [1, 2.5]}, "powers"),
        ("tuple_zeroing", {"powers": [1, False]}, "powers"),
    ],
)
def test_unreadable_suite_parameter_is_refused_by_name(check_id, params, key):
    with pytest.raises(DegenerateInputError, match=f"suite parameter '{key}'"):
        run_check(check_id, params)


@pytest.mark.parametrize("n", [8, "8", 8.0])
def test_integral_integer_parameter_is_read_as_int(n):
    c = run_check("orbit_certificate", {"n": n})
    assert c.passed()
    assert c.params["n"] == 8 and type(c.params["n"]) is int


def test_zero_orbit_length_is_refused_before_its_default_eps():
    with pytest.raises(DegenerateInputError, match="orbit length"):
        run_check("orbit_reverse_eigenvector", {"n": 0})


def test_certificate_failure_becomes_failed_check():
    # an unreachable tolerance exhausts the zeroing stage cap; the suite
    # reports the failure with diagnostics instead of raising
    c = run_check("tuple_zeroing", {"powers": [1, 2], "tol": 1e-30})
    assert not c.passed()
    assert c.diagnostics
    assert c.results[0].label == "construction_certificate"
    assert exit_code([c]) == 1


def test_float_floor_failure_reports_the_requested_tol():
    c = run_check("tuple_zeroing", {"powers": [1, 2], "tol": 1e-30})
    (line,) = c.results
    assert line.label == "construction_certificate"
    assert line.bound == 1e-30
    assert line.measured > line.bound
    assert "floor" in c.diagnostics


def test_rokhlin_check_measures_the_cyclic_link():
    # the last level becomes T w_{n-2} plus a far-away bump just under eps:
    # every link j < n-1 stays below eps, only T w_{n-1} -> w_0 breaks it
    op = BilateralShift()
    eps = 0.25
    tower = rokhlin_tower(op, 65, eps)
    w = list(tower.w)
    w[-1] = op.apply(w[-2]) + (eps * (1 - 1e-6)) * WindowVector.basis(10 ** 9)
    open_chain = max((op.apply(w[j]) - w[j + 1]).norm() for j in range(64))
    assert open_chain < eps
    lines = verify_rokhlin_tower(op, w, tower.u, eps).checks
    assert lines["links"].measured >= eps
    assert not lines["links"].passed


def test_moment_float_mode():
    c = run_check("moment_exact", {"mode": "float", "eps": [0, 0.1], "rho": 1.0})
    assert c.passed()
    assert c.params["eps"] == [[0.0, 0.0], [0.1, 0.0]]
    labels = [r.label for r in c.results]
    assert "symbolic_zero_defects" not in labels


def test_moment_float_mode_reads_rho_through_fraction():
    # the exact mode takes rho = "1/2"; the float mode reads the same string
    targets = ["0", "1/1000", "0", "1/2000"]
    c = run_check("moment_exact", {"mode": "float", "rho": "1/2", "eps": targets})
    assert c.passed(), (c.results, c.diagnostics)
    assert c.params["rho"] == 0.5
    again = check_from_json(json.loads(emit_report(c, "json")))
    assert run_check(again.check_id, again.params, again.seed).results == c.results


def test_build_model_shorthands():
    assert isinstance(build_model("bilateral-shift"), BilateralShift)
    assert isinstance(build_model("unilateral-shift"), UnilateralShift)
    weighted = build_model("bilateral-shift:0.5")
    assert weighted.weights is not None
    assert weighted.norm_bound() == pytest.approx(0.5)
    diag = build_model("diagonal-qi:3")
    assert isinstance(diag, DiagonalUnitary)
    grid = build_model("grid:128")
    assert isinstance(grid, MultiplicationGrid) and grid.dim == 128
    # dict and instance forms
    op = BilateralShift()
    assert build_model(op) is op
    rebuilt = build_model(op.to_json())
    assert isinstance(rebuilt, BilateralShift) and rebuilt.weights is None
    with pytest.raises(DegenerateInputError):
        build_model("moebius")
    with pytest.raises(DegenerateInputError):
        build_model("grid")


def test_refusals_propagate_out_of_suites():
    # grid models have empty essential spectra, so the orbit construction
    # declines to run; the suite surfaces that instead of reporting a failure
    from orbitforge.errors import PreconditionError

    with pytest.raises(PreconditionError):
        run_check("unitary_orthogonal_orbit", {"model": "grid:4096", "n": 4})


@pytest.mark.parametrize(
    "params",
    [
        None,
        {"model": "unilateral-shift", "n": 70},
        {"model": "diagonal-qi:2", "n": 101, "eps": 0.2},
    ],
)
def test_rokhlin_mean_identity_matches_loop(params):
    # the tower mean as the two-term loop the check used before combine
    c = run_check("rokhlin_tower", params)
    p = params or {}
    n = p.get("n", 65)
    tower = rokhlin_tower(
        build_model(p.get("model", "bilateral-shift")), n, p.get("eps", 0.25)
    )
    total = WindowVector.zero()
    for w in tower.w:
        total = total + w
    mean_defect = (total * (1.0 / math.sqrt(n)) - tower.u).norm()
    line = next(r for r in c.results if r.label == "mean_identity")
    assert line.measured == mean_defect
    assert c.passed()
