"""Smoke tests of the sweeps in scripts/: each runs and writes its CSV headers."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, headers",
    [
        ("flat_profile.py", ["eps,d,counts,sup_bound,total_span", "n,norm,stage_bound"]),
        (
            "tower_links.py",
            [
                "eps,minimal_n",
                "eps,n,max_link,gram_defect,mean_defect",
                "n,max_link,budget_2pi_over_n,sum_defect",
            ],
        ),
    ],
)
def test_script_prints_its_csv_headers(script, headers, capsys):
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    for header in headers:
        assert any(line.startswith(header) for line in lines), header


def test_orbit_sweep_first_row():
    # the full sweep takes seconds; its first (n, eps) row exercises every column
    rows = runpy.run_path(str(SCRIPTS / "orbit_sweep.py"))["rows"]()
    header, first = next(rows).split(","), next(rows).split(",")
    assert header == [
        "n", "eps", "window_used", "entries_charged", "worst_slack", "recurrence",
        "eigen_residual",
    ]
    assert first[:2] == ["4", "0.25"]
    assert int(first[2]) > 0 and int(first[3]) > 0
    assert float(first[4]) > 0  # every certificate line holds with slack
