"""The example scripts under scripts/ run to the end on small inputs.

They print figures that no CLI command gives, so each is run in-process, as
`python scripts/NAME ARGS` would run it, and its table is checked for its
header and row count.
"""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "name, args, lines",
    [
        # (script, its arguments, a line start it prints and how many lines start so)
        ("run_fit_calibration.py", ["2"], [("trajectory y = -16.3 um", 1), ("       2e+06", 1), ("       1e+08", 1)]),
        ("run_mode_scans.py", ["{tmp}"], [("y = ", 9), ("delta_pa = ", 3), ("vacuum Rabi splitting", 1)]),
        ("run_thermometry.py", ["{tmp}", "200"], [('  "temperature_k": ', 1), ("V-curve minimum: ", 1)]),
        ("run_transit_demo.py", [], [("seed 7, flux0 5e+06 cps", 1), ("   -16.3    0.39 |", 1), ("    18.0    0.42 |", 1)]),
    ],
    ids=["calibration", "mode-scans", "thermometry", "transit-demo"],
)
def test_script_prints_its_table(tmp_path, monkeypatch, capsys, name, args, lines):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [name, *(arg.format(tmp=tmp_path) for arg in args)])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    printed = capsys.readouterr().out.splitlines()
    for start, count in lines:
        assert sum(line.startswith(start) for line in printed) == count, (start, printed)
