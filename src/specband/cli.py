"""Command-line front end.

Subcommands: estimate, bands, depmeasure, simulate, verify, kernel-info.
All structured output is JSON with a schema_version field and an echo of the
fully resolved configuration; series and plot data travel as CSV.

Exit codes: 0 success, otherwise the error's ``exit_code``: 1 for domain
errors (bad data, unsupported model), 2 for usage errors (bad flags, plan
validation, malformed model parameters); a stray ValueError exits 2 and an
OSError 1.

When this module is what loads numpy (the ``specband`` command,
``python -m specband.cli``), it makes two start-up settings. numpy's
OpenBLAS runs on one thread, unless ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set. And ``_hashlib`` is
hidden, unless it is already loaded, so ``hashlib`` and ``hmac`` use
CPython's built-in digests (same outputs) and ``import numpy.random`` maps
no OpenSSL. A program that loaded numpy first keeps both of its own.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys

# Every BLAS call in specband is sized to run on one thread (acov._GEMM_SIZE),
# so OpenBLAS's helper threads do none of its work; they would still start
# and spin when numpy loads, which costs CPU in every process.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules:
    if not any(v in os.environ for v in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # numpy.random imports secrets -> hmac -> _hashlib, which maps OpenSSL's
    # libcrypto (3.4 MB of RSS) for digests nothing in specband computes.
    # Hidden, hashlib and hmac fall back to CPython's built-in digests, and
    # forked pool workers inherit the setting.
    sys.modules.setdefault("_hashlib", None)

import numpy as np  # noqa: E402  (after the start-up settings)

from . import __version__
from .acov import sample_autocov
from .dependence import check_conditions, profile
from .errors import InvalidModel, SpecbandError, UsageError
from .inference import pointwise_ci, uniform_band
from .kernels import get_kernel
from .mc import EXPERIMENTS, ExperimentPlan, run_experiment
from .models import parse_model, simulate
from .series import _json_text, _jsonable, center, load_csv, write_csv
from .spectral import Bandwidth, estimate_spectrum, theorem_grid

log = logging.getLogger("specband")


def _write(text: str, path: str | None):
    """Write text to the file at path, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, path: str | None):
    _write(_json_text(payload), path)
    if path:
        log.info("wrote %s", path)


def _echo(args, *names) -> dict:
    """The named flags' parsed values, keyed by their argparse names."""
    return {name: getattr(args, name) for name in names}


def _int(text: str, flag: str, form: str) -> int:
    """An integer from a flag's value; a malformed one names the flag."""
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{flag} takes {form}; {text!r} is not an integer") from None


def _parse_grid(spec: str, bandwidth: Bandwidth):
    if spec == "theorem":
        return theorem_grid(bandwidth)
    if spec.startswith("uniform:"):
        count = _int(spec.split(":", 1)[1], "--grid", "uniform:<count>")
        if count < 2:
            raise UsageError("uniform grid needs at least 2 points")
        return np.linspace(0.0, np.pi, count)
    raise UsageError(f"unknown grid {spec!r} (use theorem or uniform:<count>)")


def _parse_entries(spec: str, n: int):
    """bands' --entries: all, diag or i,j;i,j;... as distinct 0-based pairs
    inside 1..n, where (j,i) is the same band as (i,j), its conjugate."""
    if spec == "all":
        return [(i, j) for i in range(n) for j in range(i, n)]
    if spec == "diag":
        return [(i, i) for i in range(n)]
    tokens = {}  # 0-based pair -> the token that named it
    for token in filter(None, (t.strip() for t in spec.split(";"))):
        i, j = _parse_entry(token, "--entries")
        if not (0 <= i < n and 0 <= j < n):
            raise UsageError(f"entry {token!r} outside 1..{n}")
        first = tokens.get((i, j), tokens.get((j, i)))
        if first is not None:
            raise UsageError(f"entry {token!r} repeats {first!r}: f_ji is the conjugate of f_ij")
        tokens[i, j] = token
    if not tokens:
        raise UsageError("no entries selected")
    return list(tokens)


def _parse_entry(spec: str, flag: str):
    """One i,j token of ``flag`` as a 0-based pair: two 1-based integers,
    with no range check (the caller knows the dimension)."""
    values = spec.split(",")
    if len(values) != 2:
        raise UsageError(f"{flag} takes 1-based i,j; {spec!r} is not two integers")
    return tuple(_int(v, flag, "1-based i,j") - 1 for v in values)


def _estimate_input(args, grid_spec: str):
    """(kernel, estimate) of the centered --input series on the named grid."""
    series = center(load_csv(args.input, has_header=args.has_header, centered=True))
    kernel = get_kernel(args.kernel)
    bandwidth = Bandwidth(series.t_len, args.b_exponent, args.c_const)
    freqs = _parse_grid(grid_spec, bandwidth)
    acov = sample_autocov(series, bandwidth.value)
    return kernel, estimate_spectrum(acov, kernel, bandwidth, freqs)


def _cmd_estimate(args) -> int:
    _, grid = _estimate_input(args, args.grid)
    payload = _jsonable(grid)
    payload["config"] = _echo(
        args, "input", "has_header", "kernel", "b_exponent", "c_const", "grid"
    )
    payload["config"]["centered"] = True
    _emit(payload, args.output)
    return 0


def _cmd_bands(args) -> int:
    if args.bonferroni and args.method != "uniform":
        raise UsageError("--bonferroni applies to --method uniform only")
    kernel, grid = _estimate_input(args, "theorem")
    entries = _parse_entries(args.entries, grid.n_dim)
    if args.method == "uniform":
        band = uniform_band(grid, kernel, args.level, entries, args.bonferroni)
    else:
        band = pointwise_ci(grid, kernel, args.level, entries)
    payload = _jsonable(band)
    target = "true_spectrum" if args.assume_smooth else "expected_smoothed_spectrum"
    payload["target"] = target
    if args.assume_smooth:
        check = kernel.undersmooths(args.b_exponent)
        note = (
            "an asymptotic rate condition: the smoothing bias at this "
            "bandwidth is not estimated"
        )
        payload["undersmoothing_check"] = {
            "b_exponent_times_q_plus_1_gt_1": check,
            "q": kernel.q,
            "note": note,
        }
        verdict = {None: "unknown (bias order unknown)", True: "ok", False: "VIOLATED"}
        line = f"undersmoothing check b*(q+1) > 1: {verdict[check]} ({note})"
        print(line, file=sys.stderr)
    payload["config"] = _echo(
        args, "input", "has_header", "kernel", "level", "entries", "method",
        "bonferroni", "assume_smooth", "b_exponent", "c_const",
    )
    _emit(payload, args.output)
    return 0


def _cmd_simulate(args) -> int:
    model = parse_model(args.model)
    series = simulate(model, args.t_len, args.seed)
    write_csv(series, args.out)
    _emit({**_echo(args, "model", "t_len", "seed", "out"), "n_dim": series.n_dim}, args.meta)
    return 0


def _cmd_depmeasure(args) -> int:
    model = parse_model(args.model)
    try:
        prof = profile(model, args.p, args.horizon, args.reps, args.seed)
    except InvalidModel as exc:
        raise InvalidModel(f"model {args.model!r}: {exc}") from None
    payload = {**_jsonable(prof), **_echo(args, "model", "seed")}
    if args.check_conditions:
        report = check_conditions(
            prof,
            b=args.b_exponent_upper,
            b_lower=args.b_exponent_lower,
            delta_param=args.delta_param,
            independent_components=args.independent_components,
        )
        payload["conditions"] = report
    _emit(payload, args.output)
    return 0


def _cmd_verify(args) -> int:
    plan = ExperimentPlan(
        experiment=args.experiment.replace("-", "_"),
        model_spec=args.model,
        kernel_name=args.kernel,
        t_grid=tuple(_int(t, "--t-grid", "T,T,...") for t in args.t_grid.split(",")),
        entry=_parse_entry(args.entry, "--entry"),
        workers=args.threads,
        **_echo(args, "b_exponent", "c_const", "reps", "seed", "level", "nu_star", "nu"),
    )
    report = run_experiment(plan)
    _write(report.to_json(include_raw=not args.no_raw), args.out)
    if args.plot_data:
        with open(args.plot_data, "w", encoding="utf-8") as fh:
            fh.write("experiment,T,statistic,value,se\n")
            for exp, t_val, key, value, se in report.plot_rows():
                se_txt = "" if se is None else repr(se)
                fh.write(f"{exp},{t_val},{key},{value!r},{se_txt}\n")
    for name, ok in sorted(report.verdicts.items()):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}", file=sys.stderr)
    return 0


def _cmd_kernel_info(args) -> int:
    _emit(get_kernel(args.kernel).to_dict(), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specband",
        description="lag-window spectral estimation with confidence bands",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--log-level", default="warning", choices=["debug", "info", "warning", "error"]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kernel_flags(p):
        p.add_argument("--kernel", default="bartlett",
                      help="bartlett|parzen|tukey|truncated|file:<path>")
        p.add_argument("--b-exponent", type=float, default=0.4)
        p.add_argument("--c-const", type=float, default=1.0)

    def add_input_flags(p):
        p.add_argument("--input", required=True)
        p.add_argument("--has-header", action="store_true")
        add_kernel_flags(p)

    p_est = sub.add_parser("estimate", help="estimate the spectral matrix")
    add_input_flags(p_est)
    p_est.add_argument("--grid", default="theorem", help="theorem or uniform:<count>")
    p_est.add_argument("--output", default=None)
    p_est.set_defaults(func=_cmd_estimate)

    p_bands = sub.add_parser("bands", help="confidence bands for spectral entries")
    add_input_flags(p_bands)
    p_bands.add_argument("--level", type=float, default=0.95)
    p_bands.add_argument("--entries", default="all", help="all|diag|i,j;i,j;...")
    p_bands.add_argument("--method", default="uniform", choices=["uniform", "pointwise"])
    p_bands.add_argument("--bonferroni", action="store_true")
    p_bands.add_argument("--assume-smooth", action="store_true")
    p_bands.add_argument("--output", default=None)
    p_bands.set_defaults(func=_cmd_bands)

    p_sim = sub.add_parser("simulate", help="draw a series from a model")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--t-len", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--meta", default=None, help="optional metadata JSON path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_dep = sub.add_parser("depmeasure", help="coupled dependence measures")
    p_dep.add_argument("--model", required=True)
    p_dep.add_argument("--p", type=float, default=4.0)
    p_dep.add_argument("--horizon", type=int, default=30)
    p_dep.add_argument("--reps", type=int, default=5000)
    p_dep.add_argument("--seed", type=int, default=0)
    p_dep.add_argument("--check-conditions", action="store_true")
    p_dep.add_argument("--delta-param", type=float, default=1.0)
    p_dep.add_argument("--b-exponent-lower", type=float, default=0.2)
    p_dep.add_argument("--b-exponent-upper", type=float, default=0.4)
    p_dep.add_argument("--independent-components", action="store_true")
    p_dep.add_argument("--output", default=None)
    p_dep.set_defaults(func=_cmd_depmeasure)

    p_ver = sub.add_parser("verify", help="Monte Carlo limit-theorem checks")
    p_ver.add_argument(
        "--experiment",
        required=True,
        choices=[name.replace("_", "-") for name in EXPERIMENTS],
    )
    p_ver.add_argument("--model", default="white")
    add_kernel_flags(p_ver)
    p_ver.add_argument("--t-grid", default="4096,16384,65536")
    p_ver.add_argument("--reps", type=int, default=500)
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.add_argument("--entry", default="1,1", help="1-based i,j")
    p_ver.add_argument("--level", type=float, default=0.95)
    p_ver.add_argument("--nu-star", type=float, default=1.0)
    p_ver.add_argument("--nu", type=float, default=2.0)
    p_ver.add_argument("--threads", type=int, default=1)
    p_ver.add_argument("--no-raw", action="store_true")
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--plot-data", default=None)
    p_ver.set_defaults(func=_cmd_verify)

    p_ki = sub.add_parser("kernel-info", help="kernel metadata")
    p_ki.add_argument("--kernel", required=True)
    p_ki.add_argument("--output", default=None)
    p_ki.set_defaults(func=_cmd_kernel_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level.upper())
    try:
        return args.func(args)
    except SpecbandError as exc:  # before ValueError: InvalidSeries is both
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a model too large to build
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


def run():
    """The ``specband`` command and ``python -m specband.cli``: exit with
    ``main()``'s code. ``gc.freeze()`` first moves every live object out of
    the collector's reach, so the collections at interpreter exit skip them.
    ``main()``, which programs call in-process, does not freeze."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
