"""Tests that run specband in a fresh interpreter.

The package runs on numpy and the standard library alone: the import tests
run every command, grouped by entry point, and check that no scipy module
was loaded, nor numpy.ma or the process pool's module where no pool starts,
which would only show as a slower start-up otherwise; ``estimate``, ``bands``
and ``kernel-info`` load no numpy.random either. The start-up tests check
that ``import specband`` loads neither numpy nor ``_hashlib``, that the CLI
starts numpy's OpenBLAS on one thread unless a thread count is set, and that
``simulate``, ``depmeasure`` and ``verify`` (with and without pool workers)
draw through numpy.random without loading ``_hashlib`` (OpenSSL) when the CLI
loads numpy, while a program that imported numpy first keeps it. The logging
tests check that telemetry (``verify`` cells, CSV reads and writes) goes to
stderr and never into the outputs.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specband
from specband.mc import _B_GRID, pool_size
from specband.models import parse_model, simulate
from specband.series import write_csv

SRC = str(Path(specband.__file__).resolve().parents[1])


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _python(args, blas_env=None):
    """Run python with ``args``, a RuntimeWarning an error as in the in-process
    tests; with ``blas_env``, of the BLAS thread-count variables exactly those
    it names are set."""
    path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    if blas_env is not None:
        env = {k: v for k, v in env.items() if k not in _BLAS_VARS} | blas_env
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        env=env,
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


def test_import_specband_loads_no_numpy_and_keeps_the_environment():
    code = """
import os, sys
before = dict(os.environ)
import specband
print('numpy' in sys.modules, '_hashlib' in sys.modules, os.environ == before)
import numpy
import specband.cli  # numpy came first: its BLAS setting is the program's
print(os.environ == before)
"""
    got = _python(["-c", code], blas_env={}).stdout.split()
    assert got == ["False", "False", "True", "True"]


def _threads_and_blas_env(module, blas_env):
    code = f"""
import os
import {module}
print(len(os.listdir('/proc/self/task')), {{k: os.environ.get(k) for k in {_BLAS_VARS!r}}})
"""
    return _python(["-c", code], blas_env=blas_env).stdout


needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="threads are counted in /proc/self/task"
)


@needs_proc
def test_cli_runs_openblas_on_one_thread():
    want = "1 {'OPENBLAS_NUM_THREADS': '1', 'GOTO_NUM_THREADS': None, 'OMP_NUM_THREADS': None}\n"
    assert _threads_and_blas_env("specband.cli", {}) == want


@needs_proc
@pytest.mark.parametrize("var", _BLAS_VARS)
def test_cli_keeps_a_blas_thread_count_that_is_set(var):
    got = _threads_and_blas_env("specband.cli", {var: "2"})
    assert got == _threads_and_blas_env("numpy", {var: "2"})
    assert f"'{var}': '2'" in got


def test_every_export_resolves_to_its_submodules_object():
    code = """
import importlib, pkgutil, sys
import specband
assert set(specband.__all__) | set(specband._EXPORTS) <= set(dir(specband))
from specband import *
for name in specband.__all__:
    obj = getattr(specband, name)
    assert obj.__module__.startswith('specband.'), name
    assert obj is getattr(sys.modules[obj.__module__], name) is globals()[name], name
assert specband.mc is sys.modules['specband.mc'] and not hasattr(specband, 'nope')
for info in pkgutil.iter_modules(specband.__path__):  # _EXPORTS is the one list
    assert not hasattr(importlib.import_module('specband.' + info.name), '__all__'), info.name
print(len(specband.__all__))
"""
    assert _python(["-c", code]).stdout == "39\n"


def test_submodule_attribute_imports_it_on_first_access():
    code = """
import sys
import specband
assert 'specband.mc' not in sys.modules
assert specband.mc is sys.modules['specband.mc']
print(specband.mc.__name__)
"""
    assert _python(["-c", code]).stdout == "specband.mc\n"


# Runs specband.cli as the ``specband`` command does, with no numpy loaded
# first. The finder reports the first import of each watched module in every
# process, forked pool workers included, as one write so that concurrent
# workers' lines cannot interleave; a hidden module never reaches it.
_LAUNCHER = """
import os, runpy, sys

class Watch:
    def find_spec(name, path=None, target=None):
        if name in ('_hashlib', 'numpy.random'):
            os.write(1, f'import {name}\\n'.encode())

sys.meta_path.insert(0, Watch)
runpy.run_module('specband.cli', run_name='__main__', alter_sys=True)
"""


def test_drawing_commands_map_no_openssl_unless_numpy_came_first(tmp_path):
    commands = [
        ["simulate", "--model", "white:dim=2", "--t-len", "512", "--seed", "1",
         "--out", str(tmp_path / "x.csv")],
        ["depmeasure", "--model", "tar:a=0.5,b=-0.5", "--horizon", "8", "--reps", "200",
         "--output", str(tmp_path / "dep.json")],
    ] + [_verify("coverage", "var1:default", "64,128", tmp_path) + ["--threads", threads]
         for threads in ("1", "2")]
    for argv in commands:
        lines = _python(["-c", _LAUNCHER, *argv]).stdout.splitlines()
        assert {line for line in lines if line.startswith("import ")} == {
            "import numpy.random"
        }, argv
    code = """
import sys
import numpy
import specband.cli  # numpy came first: the program keeps OpenSSL
import numpy.random
print(sys.modules.get('_hashlib') is not None)
"""
    assert _python(["-c", code]).stdout == "True\n"


def test_commands_that_do_not_draw_load_no_numpy_random(tmp_path):
    x = tmp_path / "x.csv"
    write_csv(simulate(parse_model("white:dim=2"), 512, seed=1), x)
    commands = [
        ["estimate", "--input", str(x), "--output", str(tmp_path / "est.json")],
        ["bands", "--input", str(x), "--bonferroni", "--output", str(tmp_path / "uniform.json")],
        ["bands", "--input", str(x), "--method", "pointwise",
         "--output", str(tmp_path / "pw.json")],
        ["kernel-info", "--kernel", "parzen", "--output", str(tmp_path / "kernel.json")],
    ]
    assert _modules(("numpy.random",), commands) == "[]"


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
        # simulation-free, so it takes no --reps; B reaches 128
        ["verify", "--experiment", "bias-rate", "--model", "ar1:phi=0.5", "--t-grid", "4096",
         "--out", str(tmp_path / "bias-rate.json")],
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
    if size:  # 3 cells of a run per process on one pool, logged once when it closes
        assert len(pools) == 1 and f"pool: {size} processes, 6 tasks, open " in pools[0]
        assert lines.index(pools[0]) == 4  # after the configuration and cell lines
    else:
        assert pools == []
    assert "INFO:" not in errs[1]


def test_bias_rate_logs_one_cell_per_bandwidth_and_no_pool(tmp_path):
    # bias_rate draws nothing, so even --threads 2 starts no pool, and its
    # configuration line says so and names no seed or streams
    plan = ["--experiment", "bias-rate", "--model", "ar1:phi=0.5", "--t-grid", "4096",
            "--threads", "2", "--out", str(tmp_path / "report.json")]
    proc = _python(["-m", "specband.cli", "--log-level", "info", "verify", *plan])
    assert proc.returncode == 0
    info = [line for line in proc.stderr.splitlines() if line.startswith("INFO:")]
    assert "verify bias_rate: numpy " in info[0]
    assert info[0].endswith("reps=0, workers=2, pool=0 processes")
    cells = [line.split(":")[2] for line in info[1:]]
    assert cells == [f"cell T=4096 B={b}" for b in _B_GRID]
    assert not any("pool:" in line for line in info)


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
