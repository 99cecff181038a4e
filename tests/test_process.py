"""Tests that run specband in a fresh interpreter.

Import guards: scipy is imported where it is called, so a stray module-level
import would only show as a slower start-up. These tests pin which scipy
submodules each entry point loads. The logging tests check that telemetry
(``verify`` cells, CSV reads and writes) goes to stderr and never into the
outputs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import specband

SRC = str(Path(specband.__file__).resolve().parents[1])


def _python(args):
    path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )


def _scipy_submodules(code: str) -> set:
    """Top-level scipy submodules loaded after running ``code``."""
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted({m.split('.')[1] for m in sys.modules"
        " if m.startswith('scipy.')})))"
    )
    return set(json.loads(_python(["-c", script]).stdout.splitlines()[-1]))


def test_import_cli_loads_no_scipy_submodule():
    assert _scipy_submodules("import specband.cli") == set()


def test_white_noise_commands_load_neither_stats_nor_signal(tmp_path):
    code = f"""
import numpy as np
from specband.cli import main
from specband.mc import ExperimentPlan, run_experiment
from specband.models import WhiteNoise, simulate
from specband.series import write_csv

run_experiment(ExperimentPlan("gumbel", t_grid=(64, 128), reps=100))
path = {str(tmp_path / "wn.csv")!r}
write_csv(simulate(WhiteNoise(sigma=np.eye(2)), 512, seed=1), path)
assert main(["estimate", "--input", path, "--output", path + ".est.json"]) == 0
assert main(["bands", "--input", path, "--output", path + ".bands.json"]) == 0
"""
    loaded = _scipy_submodules(code)
    assert "stats" not in loaded
    assert "signal" not in loaded


def test_var1_and_ar1_load_neither_signal_nor_stats(tmp_path):
    out = str(tmp_path / "cov.json")
    code = f"""
from specband.cli import main
from specband.models import parse_model

parse_model('var1:default').path(__import__('numpy').zeros((5, 2)))
parse_model('ar1:phi=0.5').path(__import__('numpy').zeros((5, 1)))
assert main(["verify", "--experiment", "coverage", "--model", "var1:default",
             "--t-grid", "64,128", "--reps", "100", "--out", {out!r}]) == 0
"""
    assert _scipy_submodules(code) == set()  # not even scipy.linalg


def test_white_noise_and_vma_construction_load_no_scipy_submodule():
    code = (
        "import numpy as np\n"
        "from specband.models import VMA, parse_model\n"
        "parse_model('white:dim=2').path(np.zeros((5, 2)))\n"
        "VMA((np.eye(2), 0.5 * np.eye(2)), sigma=np.eye(2) + 0.1).path(np.zeros((5, 2)))"
    )
    assert _scipy_submodules(code) == set()


def test_verify_logs_to_stderr_and_report_ignores_log_level(tmp_path):
    plan = ["--experiment", "gumbel", "--model", "white", "--t-grid", "64,128",
            "--reps", "100", "--seed", "3"]
    reports, errs = [], []
    for level in ("debug", "info", "warning"):
        out = tmp_path / f"{level}.json"
        argv = ["-m", "specband.cli", "--log-level", level, "verify", *plan]
        proc = _python([*argv, "--out", str(out)])
        reports.append(out.read_bytes())
        errs.append(proc.stderr)
    assert reports[0] == reports[1] == reports[2]
    info = [line for line in errs[1].splitlines() if line.startswith("INFO:")]
    assert len(info) == 3  # the run's configuration, then one line per cell
    assert "numpy" in info[0] and "scipy" in info[0] and "reps=100" in info[0]
    assert "workers=1" in info[0] and "pool=0 processes" in info[0] and "seed=3" in info[0]
    assert "streams default_rng([seed, cell, rep])" in info[0]
    assert "T=64 B=" in info[1] and "T=128 B=" in info[2]
    for line in info[1:]:  # each cell's time split by stage
        assert all(f"{stage} " in line for stage in ("center", "reps", "statistic"))
    assert not any(line.startswith("INFO:") for line in errs[2].splitlines())


def test_csv_io_logs_to_stderr_and_outputs_ignore_log_level(tmp_path):
    outputs, errs = [], []
    csv_path, est_path = tmp_path / "x.csv", tmp_path / "est.json"
    for level in ("info", "warning"):  # same paths: the estimate echoes its input path
        base = ["-m", "specband.cli", "--log-level", level]
        sim = _python([*base, "simulate", "--model", "white:dim=2", "--t-len", "300",
                       "--seed", "5", "--out", str(csv_path)])
        est = _python([*base, "estimate", "--input", str(csv_path), "--output", str(est_path)])
        outputs.append((csv_path.read_bytes(), est_path.read_bytes()))
        errs.append((sim.stderr, est.stderr))
    assert outputs[0] == outputs[1]
    wrote = [line for line in errs[0][0].splitlines() if line.startswith("INFO:specband.series")]
    read = [line for line in errs[0][1].splitlines() if line.startswith("INFO:specband.series")]
    assert len(wrote) == 1 and "300 rows x 2 columns" in wrote[0]
    assert len(read) == 1 and "300 rows x 2 columns" in read[0] and "(bulk parse)" in read[0]
    assert f"{len(outputs[0][0])} bytes" in wrote[0] and f"{len(outputs[0][0])} bytes" in read[0]
    assert not any("INFO:" in err for err in errs[1])
