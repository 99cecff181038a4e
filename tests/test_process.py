"""Tests that run specband in a fresh interpreter.

The package runs on numpy and the standard library alone: the import tests
run every command, grouped by entry point, and check that no scipy module
was loaded, nor numpy.ma or the process pool's module where no pool starts,
which would only show as a slower start-up otherwise. The logging tests check that telemetry
(``verify`` cells, CSV reads and writes) goes to stderr and never into the
outputs.
"""

import os
import subprocess
import sys
from pathlib import Path

import specband
from specband.mc import pool_size

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


def _modules(roots, commands=(), setup=""):
    """Modules in the packages ``roots`` loaded after ``setup`` runs and each
    CLI command exits 0."""
    code = f"""
import sys
import numpy as np
from specband.cli import main
{setup}
for argv in {commands!r}:
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if any(m == r or m.startswith(r + ".") for r in {roots!r})))
"""
    return _python(["-c", code]).stdout.splitlines()[-1]


def _scipy_modules(commands=(), setup=""):
    return _modules(("scipy",), commands, setup)


def _verify(experiment, model, t_grid, out_dir):
    return ["verify", "--experiment", experiment, "--model", model, "--t-grid", t_grid,
            "--reps", "100", "--out", str(out_dir / (experiment + ".json"))]


def test_import_cli_loads_no_scipy_submodule():
    assert _scipy_modules() == "[]"


def test_white_noise_commands_load_neither_stats_nor_signal(tmp_path):
    x = str(tmp_path / "x.csv")
    commands = [
        ["simulate", "--model", "white:dim=2", "--t-len", "512", "--seed", "1", "--out", x],
        ["estimate", "--input", x, "--output", x + ".est.json"],
        ["bands", "--input", x, "--output", x + ".uniform.json"],
        ["bands", "--input", x, "--method", "pointwise", "--output", x + ".pw.json"],
    ] + [_verify(e, "white", "64,128", tmp_path)
         for e in ("clt", "gumbel", "moments", "uniform-rate")]
    assert _scipy_modules(commands) == "[]"


def test_var1_and_ar1_load_neither_signal_nor_stats(tmp_path):
    commands = [
        ["simulate", "--model", "ar1:phi=0.5", "--t-len", "64", "--out", str(tmp_path / "ar1.csv")],
        ["simulate", "--model", "var1:default", "--t-len", "512", "--seed", "1",
         "--out", str(tmp_path / "var1.csv")],
        _verify("coverage", "var1:default", "64,128", tmp_path),
        _verify("bias-rate", "ar1:phi=0.5", "4096", tmp_path),  # simulation-free; B reaches 128
    ]
    assert _scipy_modules(commands) == "[]"  # not even scipy.linalg


def test_white_noise_and_vma_construction_load_no_scipy_submodule():
    setup = (
        "from specband.models import VMA, parse_model\n"
        "parse_model('white:dim=2').path(np.zeros((5, 2)))\n"
        "VMA((np.eye(2), 0.5 * np.eye(2)), sigma=np.eye(2) + 0.1).path(np.zeros((5, 2)))"
    )
    assert _scipy_modules(setup=setup) == "[]"


def test_depmeasure_and_kernel_info_load_no_scipy_module(tmp_path):
    commands = [
        ["depmeasure", "--model", "tar:a=0.5,b=-0.5", "--horizon", "8", "--reps", "200",
         "--check-conditions", "--output", str(tmp_path / "dep.json")],
        ["kernel-info", "--kernel", "parzen", "--output", str(tmp_path / "kernel.json")],
    ]
    assert _scipy_modules(commands) == "[]"


def test_commands_load_neither_numpy_ma_nor_the_process_pool(tmp_path):
    # np.unique would load numpy.ma; only a verify that forks needs the pool's module
    x = str(tmp_path / "x.csv")
    commands = [
        ["simulate", "--model", "white:dim=2", "--t-len", "512", "--seed", "1", "--out", x],
        ["estimate", "--input", x, "--output", x + ".est.json"],
        ["bands", "--input", x, "--bonferroni", "--output", x + ".uniform.json"],
        ["bands", "--input", x, "--method", "pointwise", "--output", x + ".pw.json"],
        ["depmeasure", "--model", "tar:a=0.5,b=-0.5", "--horizon", "8", "--reps", "200",
         "--check-conditions", "--output", str(tmp_path / "dep.json")],
        ["kernel-info", "--kernel", "parzen", "--output", str(tmp_path / "kernel.json")],
        _verify("coverage", "var1:default", "64,128", tmp_path),
        _verify("gumbel", "white", "64,128", tmp_path),
    ]
    assert _modules(("numpy.ma", "concurrent.futures.process"), commands) == "[]"


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
    assert "numpy" in info[0] and "reps=100" in info[0]
    assert "workers=1" in info[0] and "pool=0 processes" in info[0] and "seed=3" in info[0]
    assert "streams default_rng([seed, cell, rep])" in info[0]
    assert "T=64 B=" in info[1] and "T=128 B=" in info[2]
    for line in info[1:]:  # each cell's time split by stage
        assert all(f"{stage} " in line for stage in ("center", "reps", "statistic"))
    assert not any(line.startswith("INFO:") for line in errs[2].splitlines())


def test_pooled_verify_logs_its_pool_once_and_report_ignores_log_level(tmp_path):
    plan = ["--experiment", "coverage", "--model", "var1:default", "--t-grid",
            "64,128,256", "--reps", "100", "--seed", "3", "--threads", "2"]
    reports, errs = [], []
    for level in ("info", "warning"):
        out = tmp_path / f"{level}.json"
        proc = _python(["-m", "specband.cli", "--log-level", level, "verify", *plan,
                        "--out", str(out)])
        reports.append(out.read_bytes())
        errs.append(proc.stderr)
    assert reports[0] == reports[1]
    lines = errs[0].splitlines()
    pools = [line for line in lines if line.startswith("INFO:specband:pool:")]
    size = pool_size(2)
    if size:  # 3 cells of 17 runs on one pool, logged once when it closes
        assert len(pools) == 1 and f"pool: {size} processes, 51 tasks, open " in pools[0]
        assert lines.index(pools[0]) == 4  # after the configuration and cell lines
    else:
        assert pools == []
    assert "INFO:" not in errs[1]


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
