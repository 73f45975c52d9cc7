"""Command line: exit-code contract, config strictness, replay fidelity."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbitforge import cli
from orbitforge.cli import main
from orbitforge.config import ExperimentConfig, load_config, parse_config
from orbitforge.errors import ConfigError
from orbitforge.harness import CHECK_IDS
from orbitforge.moments import AtomicMeasure, verify_moment_match

SRC = Path(__file__).resolve().parents[1] / "src"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "verify" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["conjugate"]) == 64


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["moments"]) == 64


def test_subcommand_help_cites_its_inequality(capsys):
    assert main(["orbit", "--help"]) == 0
    out = capsys.readouterr().out
    assert "pairwise eps-orthogonal" in out
    assert main(["nrange", "--help"]) == 0
    assert "2 w(T)" in capsys.readouterr().out


def test_orbit_writes_certificate(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(
        ["orbit", "--model", "bilateral-shift", "--n", "8", "--eps", "0.1",
         "--out", str(out)]
    )
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["params"]["model"] == "bilateral_shift"
    assert all(c["passed"] for c in blob["checks"].values())
    assert "pass" in capsys.readouterr().out


def test_moments_exact_reports_zero_error(tmp_path, capsys):
    out = tmp_path / "atoms.json"
    code = main(["moments", "--rho", "1", "--eps", "0,0.1", "--exact",
                 "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["exact"]["moment_defects_zero"]
    assert blob["residual_max"] <= 1e-12
    assert len(blob["measure"]["atoms"]) >= 1


def test_nrange_jordan_block(capsys, tmp_path):
    assert main(["nrange", "--jordan", "2"]) == 0
    assert "radius 0.5" in capsys.readouterr().out
    out = tmp_path / "boundary.csv"
    assert main(["nrange", "--jordan", "3", "--out", str(out),
                 "--format", "csv", "--angles", "16"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta,re,im"
    assert len(lines) == 17


def test_nrange_refuses_non_finite_and_empty_matrices(capsys, tmp_path):
    for name, text in (("nan.json", "[[NaN, 1], [0, 0]]"), ("empty.json", "[[]]")):
        path = tmp_path / name
        path.write_text(text)
        assert main(["nrange", "--matrix", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "refused" in captured.err


@pytest.mark.parametrize(
    "flags", [["--jordan", "0"], ["--jordan", "-2"], ["--random", "0"], ["--random", "-1"]]
)
def test_nrange_refuses_a_matrix_size_below_one(flags, capsys):
    assert main(["nrange", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "below 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["nrange", "--jordan", "2", "--lam", "abc"], ["compress", "--lam", "abc"]],
)
def test_unreadable_lam_is_refused_by_name(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'abc'" in captured.err


def test_nrange_refuses_a_small_boundary_grid_before_any_output(capsys, tmp_path):
    out = tmp_path / "boundary.csv"
    assert main(["nrange", "--jordan", "2", "--angles", "2", "--format", "csv",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "three angles" in captured.err
    assert not out.exists()


def test_tower_grid_variant(capsys):
    assert main(["tower", "--model", "grid:256", "--n", "16"]) == 0
    assert "pass" in capsys.readouterr().out


def test_tower_refusal_exits_two(capsys):
    assert main(["tower", "--model", "bilateral-shift", "--n", "64"]) == 2
    assert "refused" in capsys.readouterr().err


def test_tower_off_the_unit_circle_exits_two_with_the_circle_refusal(capsys):
    assert main(["tower", "--model", "bilateral-shift:2", "--n", "65"]) == 2
    assert "circle of radius 1 is not" in capsys.readouterr().err


def test_flatten_vector_and_subspace(tmp_path, capsys):
    # without --d the report is the d = 1 subspace's: one Sidon stage
    out = tmp_path / "flat.json"
    assert main(["flatten", "--eps", "0.5", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["passed"]
    assert blob["schedule"]["counts"] == [4097]
    assert len(blob["checks"]) == 5
    assert all(line["passed"] for line in blob["checks"])
    assert main(["flatten", "--d", "0"]) == 2
    assert "subspace dimension" in capsys.readouterr().err
    csv_out = tmp_path / "flat.csv"
    assert main(["flatten", "--eps", "1.5", "--d", "2", "--out", str(csv_out),
                 "--format", "csv"]) == 0
    assert csv_out.read_text().startswith("n,norm,stage_bound\n")


def test_compress_round(capsys):
    assert main(["compress", "--model", "diagonal-qi:2", "--lam", "0.3",
                 "--n", "2", "--dim", "2"]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_then_replay_bit_identical(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--check", "moment_exact", "--check", "tuple_zeroing",
                 "--out", str(report)]) == 0
    assert main(["replay", "--from", str(report)]) == 0
    out = capsys.readouterr().out
    assert out.count("identical") == 2


def _run_with_blas_threads(threads, *args):
    """orbitforge in a child process whose BLAS uses ``threads`` threads."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(
        os.environ,
        PYTHONPATH=path,
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
    )
    return subprocess.run(
        [sys.executable, "-m", "orbitforge", *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_replay_does_not_depend_on_the_blas_thread_count(tmp_path):
    # norms and inner products sum in an order fixed by the code, so a report
    # written with two BLAS threads replays bit for bit with one
    report = tmp_path / "report.json"
    written = _run_with_blas_threads(2, "verify", "--out", str(report))
    assert written.returncode == 0, written.stdout + written.stderr
    replayed = _run_with_blas_threads(1, "replay", "--from", str(report))
    assert replayed.stdout.splitlines() == [
        f"identical {cid} seed=0" for cid in CHECK_IDS
    ], replayed.stdout + replayed.stderr
    assert replayed.returncode == 0


def test_orbit_report_replays_across_blas_thread_counts(tmp_path):
    # the n = 24 orbit's Gram was a blocked BLAS product whose bits moved
    # with the thread count; a translate family's Gram is summed by the code
    cfg, report = tmp_path / "orbit.ini", tmp_path / "report.json"
    cfg.write_text(
        "[experiment]\ncommand = verify\n\n[params]\n"
        'check = "orbit_certificate"\nn = 24\neps = 0.1\n'
    )
    written = _run_with_blas_threads(2, "verify", "--config", str(cfg), "--out", str(report))
    assert written.returncode == 0, written.stdout + written.stderr
    replayed = _run_with_blas_threads(1, "replay", "--from", str(report))
    assert replayed.stdout.splitlines() == ["identical orbit_certificate seed=0"], (
        replayed.stdout + replayed.stderr
    )
    assert replayed.returncode == 0


@pytest.mark.parametrize("n, eps", [("64", "0.1"), ("40", "0.05")])
def test_orbit_refuses_a_window_whose_recurrence_misses_eps(n, eps, capsys):
    # the default budget caps the window where sqrt(2n/m) exceeds eps: at
    # (64, 0.1) it is 0.104, which the builder used to measure and fail on
    assert main(["orbit", "--n", n, "--eps", eps]) == 2
    err = capsys.readouterr().err
    assert "refused" in err and "stored entries, budget is 50000000" in err


def test_float_moment_suite_passes_at_defaults_and_replays(tmp_path, capsys):
    # the default targets are fraction strings such as "1/100"
    cfg = tmp_path / "float.json"
    report = tmp_path / "report.json"
    cfg.write_text(json.dumps({
        "command": "verify",
        "params": {"check": "moment_exact", "mode": "float"},
        "output": {"path": str(report)},
    }))
    assert main(["verify", "--config", str(cfg)]) == 0
    assert main(["replay", "--from", str(report)]) == 0
    assert "identical" in capsys.readouterr().out


def test_replay_flags_tampered_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--check", "moment_exact", "--out", str(report)]) == 0
    blob = json.loads(report.read_text())
    blob[0]["results"][0]["measured"] = 0.123
    report.write_text(json.dumps(blob))
    assert main(["replay", "--from", str(report)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "bilateral_shift",
         "params": {"weights": {"kind": "periodic", "values": [[1.0, 0.0], [4.0, 0.0]]}}},
        {"kind": "diagonal_unitary",
         "params": {"phases": {"kind": "periodic", "phases": [0.0, 0.25]}}},
    ],
    ids=["weights", "phases"],
)
def test_verify_refuses_periodic_rule_kinds(model, tmp_path, capsys):
    # only constant weights and quadratic irrational phases have an
    # essential circle, and only they have a serial form
    cfg = tmp_path / "periodic.json"
    cfg.write_text(json.dumps({
        "command": "verify", "model": model, "params": {"check": "tuple_zeroing"},
    }))
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "refused" in err and "kind 'periodic'" in err


@pytest.mark.parametrize(
    "turns, root", [(0.9 / 8, "exp(2 pi i 1/8)"), (1 / 16, "exp(2 pi i ")],
    ids=["near-1/8", "e^(i pi/8)"],
)
def test_verify_refuses_a_fold_at_a_non_root_of_unity(turns, root, tmp_path, capsys):
    # (T - lam) y = lam^{1-n} (T^n x - lam^n x): lam^8 != 1 cannot meet 3/8,
    # so the suite refuses before building the orbit instead of failing
    lam = [math.cos(2 * math.pi * turns), math.sin(2 * math.pi * turns)]
    cfg = tmp_path / "fold.ini"
    cfg.write_text(
        "[experiment]\ncommand = verify\n\n[params]\n"
        f'check = "orbit_reverse_eigenvector"\nn = 8\nlam = {lam}\n'
    )
    assert main(["verify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "refused" in err and f"nearest is {root}" in err


def test_verify_failure_exits_one(capsys):
    # unreachable tolerance: the construction runs, misses its certificate
    cfg_text = (
        "[experiment]\ncommand = verify\n\n[params]\n"
        'check = "tuple_zeroing"\ntol = 1e-30\npowers = [1, 2]\n'
    )
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".ini", delete=False) as fh:
        fh.write(cfg_text)
        path = fh.name
    try:
        assert main(["verify", "--config", path]) == 1
        assert "FAIL" in capsys.readouterr().out
    finally:
        os.unlink(path)


def test_verify_float_floor_names_the_floor(tmp_path, capsys):
    cfg = tmp_path / "floor.ini"
    cfg.write_text(
        "[experiment]\ncommand = verify\n\n[params]\n"
        'check = "tuple_zeroing"\ntol = 1e-30\npowers = [1, 2]\n'
    )
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    assert "floor" in capsys.readouterr().err
    (report,) = json.loads(out.read_text())
    assert "floor" in report["diagnostics"]


def test_env_budget_caps_constructions(monkeypatch, capsys):
    monkeypatch.setenv("ORBITFORGE_WINDOW_BUDGET", "100")
    assert main(["orbit", "--n", "8", "--eps", "0.1"]) == 2
    assert "refused" in capsys.readouterr().err


def test_compress_budget_caps_the_whole_subspace(capsys):
    flags = ["compress", "--lam", "0.4+0.1j", "--n", "3", "--dim", "3",
             "--delta", "0.05", "--budget"]
    assert main([*flags, "11519"]) == 2
    assert "11520 stored entries" in capsys.readouterr().err
    assert main([*flags, "11520"]) == 0


@pytest.mark.parametrize("raw", ["abc", "1e6"])
def test_malformed_env_budget_exits_two(raw, monkeypatch, capsys):
    monkeypatch.setenv("ORBITFORGE_WINDOW_BUDGET", raw)
    assert main(["verify", "--check", "orbit_certificate"]) == 2
    err = capsys.readouterr().err
    assert "ORBITFORGE_WINDOW_BUDGET" in err and repr(raw) in err


@pytest.mark.parametrize(
    "line, key",
    [
        ("window_budget = 1e6", "window_budget"),
        ('n = "abc"', "'n'"),
        ("n = 8.7", "'n'"),
        ("n = true", "'n'"),
    ],
)
def test_malformed_verify_parameter_exits_two(line, key, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(
        "[experiment]\ncommand = verify\n\n[params]\n"
        f'check = "orbit_certificate"\n{line}\n'
    )
    assert main(["verify", "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("check", ["orbit_reverse_eigenvector", "diagonal_compression"])
@pytest.mark.parametrize(
    "lam", ["[0.4, 0.1, 7]", "[0.4]", "true", "[true, 0]"],
    ids=["three-parts", "one-part", "bool", "bool-part"],
)
def test_malformed_complex_parameter_exits_two(check, lam, tmp_path, capsys):
    # a complex number is a number or exactly [re, im]; no part is dropped,
    # and a boolean is not read as 0 or 1
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f'[experiment]\ncommand = verify\n\n[params]\ncheck = "{check}"\nlam = {lam}\n')
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "suite parameter 'lam'" in capsys.readouterr().err


# -- configs -----------------------------------------------------------------------


def test_ini_config_round(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[experiment]\ncommand = verify\nmodel = bilateral-shift\nseed = 3\n\n"
        "[params]\ncheck = \"rokhlin_tower\"\nn = 65\neps = 0.25\n\n"
        "[output]\npath = out.json\nformat = json\n"
    )
    cfg = load_config(path)
    assert cfg.command == "verify"
    assert cfg.model == "bilateral-shift"
    assert cfg.seed == 3
    assert cfg.params == {"check": "rokhlin_tower", "n": 65, "eps": 0.25}
    assert cfg.output_path == "out.json"


def test_json_config_equivalent(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "command": "verify",
        "model": "bilateral-shift",
        "seed": 3,
        "params": {"check": "rokhlin_tower", "n": 65, "eps": 0.25},
        "output": {"path": "out.json", "format": "json"},
    }))
    cfg = load_config(path)
    ini = ExperimentConfig(
        command="verify", model="bilateral-shift",
        params={"check": "rokhlin_tower", "n": 65, "eps": 0.25},
        output_path="out.json", output_format="json", seed=3,
    )
    assert cfg == ini


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config("[experiment]\ncommand = verify\nbananas = 3\n", "x.ini")
    assert "bananas" in str(exc.value)
    assert exc.value.location == "x.ini:[experiment]:bananas"
    with pytest.raises(ConfigError):
        parse_config('{"command": "verify", "bananas": 3}')
    with pytest.raises(ConfigError):
        parse_config("[mystery]\nkey = 1\n")
    with pytest.raises(ConfigError):
        parse_config(
            '{"command": "verify", "output": {"path": "x", "mode": "fast"}}'
        )


def test_config_rejects_malformed_and_missing():
    with pytest.raises(ConfigError, match="malformed JSON"):
        parse_config('{"command": ', "broken.json")
    with pytest.raises(ConfigError, match="missing command"):
        parse_config("[experiment]\nmodel = grid:8\n")
    with pytest.raises(ConfigError, match="unknown command"):
        parse_config("[experiment]\ncommand = summon\n")
    with pytest.raises(ConfigError, match="unknown output format"):
        ExperimentConfig(command="verify", output_format="yaml")


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text("[experiment]\ncommand = verify\nbananas = 3\n")
    assert main(["verify", "--config", str(bad)]) == 65
    assert "config error" in capsys.readouterr().err


def test_config_command_mismatch(tmp_path, capsys):
    cfg = tmp_path / "orbit.ini"
    cfg.write_text("[experiment]\ncommand = orbit\n")
    assert main(["verify", "--config", str(cfg)]) == 65
    assert "unknown command 'orbit'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text",
    [
        ("abc.ini", "[experiment]\ncommand = verify\nseed = abc\n"),
        ("frac.ini", "[experiment]\ncommand = verify\nseed = 1.7\n"),
        ("frac.json", '{"command": "verify", "seed": 1.7}'),
        ("bool.json", '{"command": "verify", "seed": true}'),
        ("null.json", '{"command": "verify", "seed": null}'),
    ],
)
def test_config_seed_must_be_an_integer(name, text, tmp_path, capsys):
    cfg = tmp_path / name
    cfg.write_text(text)
    assert main(["verify", "--config", str(cfg)]) == 65
    assert "seed" in capsys.readouterr().err


def test_config_missing_file(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "ghost.ini")]) == 65


# -- non-finite input is refused (exit 2), not carried into a NaN report


@pytest.mark.parametrize(
    "flags",
    [["--lam", "nan"], ["--lam", "inf"], ["--lam", "1e200"], ["--delta", "inf"]],
)
def test_compress_refuses_non_finite_input(flags, capsys):
    assert main(["compress", *flags]) == 2
    assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--eps", "nan,0"],
        ["--eps", "0,inf"],
        ["--eps", "0,0", "--rho", "nan"],
        ["--eps", "0", "--rho", "inf"],
        ["--eps", "nan", "--exact"],
        ["--eps", "0", "--rho", "nan", "--exact"],
        ["--eps", "1/0", "--exact"],
    ],
)
def test_moments_refuses_non_finite_input(flags, capsys):
    assert main(["moments", *flags]) == 2
    assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bend",
    [
        # moments off by about k 1e-8 |m_k|, or a mass 2e-12 above one
        lambda m: AtomicMeasure(m.rho, m.positions * (1 + 1e-8), m.weights),
        lambda m: AtomicMeasure(m.rho, m.positions, m.weights * (1 + 2e-12)),
    ],
)
def test_moments_exits_one_when_its_check_fails(bend, monkeypatch, capsys):
    real = cli.circle_moment_match

    def off(*args, **kwargs):
        res = real(*args, **kwargs)
        return verify_moment_match(
            bend(res.measure), res.targets, res.mode, res.stages, res.exact_certificate
        )

    assert main(["moments", "--eps", "0,0.1"]) == 0
    monkeypatch.setattr(cli, "circle_moment_match", off)
    assert main(["moments", "--eps", "0,0.1"]) == 1
    assert main(["moments", "--eps", "0,0.1", "--exact"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("eps", ["nan", "inf"])
@pytest.mark.parametrize("d", ["0", "2"])
def test_flatten_refuses_non_finite_eps(eps, d, capsys):
    assert main(["flatten", "--eps", eps, "--d", d]) == 2
    assert "refused" in capsys.readouterr().err


# -- malformed outside input is refused (exit 2) or a config error (exit 65) --


@pytest.mark.parametrize("command", ["orbit", "tower", "compress", "flatten"])
@pytest.mark.parametrize("model", ["grid:abc", "diagonal-qi:x", "bilateral-shift:zz"])
def test_malformed_model_is_refused(command, model, capsys):
    assert main([command, "--model", model]) == 2
    assert f"refused: cannot read {model!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        None, "[[1, 0], [0, 1", '[["abc", 0], [0, 1]]', "[[null, 0], [0, 1]]",
        "[[[1, 2, 3], 0], [0, 1]]", "[[[1], 0], [0, 1]]", "[[true, 0], [0, 1]]",
    ],
    ids=["missing", "truncated", "non-numeric", "null", "three-parts", "one-part", "bool"],
)
def test_nrange_refuses_a_malformed_matrix_file(text, tmp_path, capsys):
    path = tmp_path / "m.json"
    if text is not None:
        path.write_text(text)
    assert main(["nrange", "--matrix", str(path)]) == 2
    assert "refused: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [None, "{", "{}", '{"check_id": "rokhlin_tower"}', "[1]"],
    ids=["missing", "truncated", "empty", "no-params", "not-a-report"],
)
def test_replay_of_a_malformed_report_is_a_config_error(text, tmp_path, capsys):
    path = tmp_path / "report.json"
    if text is not None:
        path.write_text(text)
    assert main(["replay", "--from", str(path)]) == 65
    assert "config error: cannot read" in capsys.readouterr().err
