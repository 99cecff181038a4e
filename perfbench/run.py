#!/usr/bin/env python3
"""specband benchmark: closed-loop CLI workloads with end-to-end and layer metrics.

Run from the repository root (the package is imported from ./src):

    python3 perfbench/run.py --workload mc-wideband --seed 1 --seconds 25 --trace 0

One client process runs the workload's specband commands one at a time, each
as its own process, starting the next only when the previous one has ended
(closed loop, one client). Inputs come from --seed only. Operations repeat
until the next one would end past --seconds.

--trace 0 measures the end-to-end metrics: set-up time, wall time, CPU time
and peak RSS of one operation (medians over the run).
--trace 1 runs pairs of serial operations, one plain and one with spans around
the public functions of each specband module (spans.py), and reports layer
self times, counts, shares and the tracing overhead.

Both modes check the outputs against independent references (reference.py)
and print human-readable lines, then one JSON object as the last line with
the metrics BENCHMARK.json declares for that mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
RUN_BUDGET_S = 170.0  # every run must end within 180 s
SETUP_SAMPLES = 3

# Sizes: "full" is the benchmark; "tiny" is for the self-test only.
SIZES = {
    "full": {
        "wide_grid": "4096,16384,65536",
        "var_grid": "4096,16384",
        "mc_reps": "100",
        "t_len": "500000",
        "dep_reps": "5000",
        "horizon": "30",
        "small_grid": "512,1024",
    },
    "tiny": {
        "wide_grid": "256,512,1024",
        "var_grid": "256,512",
        "mc_reps": "100",
        "t_len": "3000",
        "dep_reps": "200",
        "horizon": "10",
        "small_grid": "256,512",
    },
}


@dataclass(frozen=True)
class Workload:
    """A named sequence of specband commands that makes one operation."""

    name: str
    workers: int
    steps: tuple  # ((step name, argument template), ...)

    @property
    def is_mc(self) -> bool:
        return self.steps[0][0] == "verify"


# Why these three: see perfbench/README.md. {threads} is the workload's worker
# count in measured runs and 1 in traced runs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-wideband",
            1,
            (
                (
                    "verify",
                    "verify --experiment gumbel --model white --kernel truncated "
                    "--c-const 6 --t-grid {wide_grid} --reps {mc_reps} "
                    "--threads {threads} --seed {seed} --out {dir}/report.json",
                ),
            ),
        ),
        Workload(
            "mc-var1",
            2,
            (
                (
                    "verify",
                    "verify --experiment coverage --model var1:default "
                    "--t-grid {var_grid} --reps {mc_reps} --threads {threads} "
                    "--seed {seed} --out {dir}/report.json",
                ),
            ),
        ),
        Workload(
            "cli-session",
            1,
            (
                (
                    "simulate",
                    "simulate --model white:dim=2 --t-len {t_len} --seed {seed} "
                    "--out {dir}/x.csv --meta {dir}/simulate.json",
                ),
                ("estimate", "estimate --input {dir}/x.csv --output {dir}/estimate.json"),
                (
                    "bands",
                    "bands --input {dir}/x.csv --entries all --bonferroni "
                    "--output {dir}/bands.json",
                ),
                (
                    "depmeasure",
                    "depmeasure --model tar:a=0.5,b=-0.5 --p 4 --horizon {horizon} "
                    "--reps {dep_reps} --check-conditions --seed {seed} "
                    "--output {dir}/depmeasure.json",
                ),
            ),
        ),
    )
}

# Layer key (as recorded by spans.py) -> (time metric, call metric, work metric).
LAYERS = {
    "models": ("models.simulate_s", "models.calls", "models.values"),
    "acov": ("acov.self_s", "acov.calls", "acov.lag_terms"),
    "spectral.estimate": (
        "spectral.estimate_s",
        "spectral.estimate_calls",
        "spectral.freq_lag_terms",
    ),
    "spectral.oracle": ("spectral.oracle_s", "spectral.oracle_calls", None),
    "inference": ("inference.stat_s", "inference.calls", None),
    "mc": ("mc.self_s", "mc.calls", "mc.reps"),
    "series.load": ("series.load_s", "series.load_calls", "series.bytes_read"),
    "series.write": ("series.write_s", "series.write_calls", "series.bytes_written"),
    "series.center": ("series.center_s", "series.center_calls", None),
    "dependence.profile": ("dependence.profile_s", "dependence.profile_calls", None),
    "dependence.check": ("dependence.check_s", "dependence.check_calls", None),
    "cli": ("cli.self_s", "cli.calls", None),
    "cli.emit": ("cli.emit_s", "cli.emit_calls", "cli.bytes_emitted"),
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program or declaration)."""


# ---------------------------------------------------------------- processes


class _Expired(Exception):
    pass


def _raise_expired(signum, frame):
    raise _Expired


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    exit: int


def spawn(argv, out_path: Path, deadline: float) -> Proc:
    """Run ``python argv`` to completion; stdout/stderr go to out_path(.err).

    The child leads its own process group, so a run past the deadline kills
    it together with any pool workers. CPU time and peak RSS come from wait4
    and cover the child and every descendant it waited for.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(out_path) + ".err", flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, *argv], env, file_actions=actions, setpgroup=0
    )
    waited = None
    old = signal.signal(signal.SIGALRM, _raise_expired)
    try:
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.5))
        waited = os.wait4(pid, 0)
    except _Expired:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        if waited is None:  # deadline passed, or this process is being stopped
            _kill_group(pid)
    if waited is None:
        return Proc(time.perf_counter() - start, 0.0, 0.0, -signal.SIGKILL)
    wall = time.perf_counter() - start
    _, status, usage = waited
    return Proc(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        os.waitstatus_to_exitcode(status),
    )


def _kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.wait4(pid, 0)
    except ChildProcessError:
        pass


# ---------------------------------------------------------------- operations


@dataclass
class Op:
    index: int
    mode: str  # "cli" (as users run it), "plain" or "traced" (child.py)
    dir: Path
    procs: dict = field(default_factory=dict)  # step -> Proc
    results: dict = field(default_factory=dict)  # step -> child.py result

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs.values())

    @property
    def cpu(self) -> float:
        return sum(p.cpu for p in self.procs.values())

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs.values())


class Runner:
    def __init__(self, workload: Workload, seed: int, size: dict, work: Path, deadline):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def op_seed(self, index: int) -> int:
        return abs(self.seed) * 1000 + index

    def argv(self, template: str, index: int, threads: int, out_dir: Path):
        values = dict(self.size, seed=self.op_seed(index), threads=threads, dir=out_dir)
        return [token.format(**values) for token in template.split()]

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", flush=True)

    def run_op(self, index: int, mode: str) -> Op:
        out_dir = self.work / f"{mode}-{index}"
        out_dir.mkdir(parents=True, exist_ok=True)
        threads = self.workload.workers if mode == "cli" else 1
        op = Op(index, mode, out_dir)
        for step, template in self.workload.steps:
            args = self.argv(template, index, threads, out_dir)
            if mode == "cli":
                argv = ["-m", "specband.cli", *args]
            else:
                result_path = out_dir / f"{step}.child.json"
                argv = [str(HERE / "child.py"), mode, str(result_path), "--", *args]
            proc = spawn(argv, out_dir / f"{step}.out", self.deadline)
            op.procs[step] = proc
            self.record(proc.exit == 0, f"{mode} op {index} {step} exited {proc.exit}")
            if mode != "cli" and proc.exit == 0:
                op.results[step] = json.loads(result_path.read_text())
        return op

    def reps_per_op(self) -> int:
        """Monte Carlo replications in one verify: reps times grid cells."""
        args = self.argv(self.workload.steps[0][1], 0, 1, self.work)
        cells = args[args.index("--t-grid") + 1].split(",")
        return int(args[args.index("--reps") + 1]) * len(cells)

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter that imports specband and builds
        the first command's arguments, model, kernel and plan."""
        out_dir = self.work / "setup"
        out_dir.mkdir(parents=True, exist_ok=True)
        args = self.argv(self.workload.steps[0][1], 0, self.workload.workers, out_dir)
        argv = [str(HERE / "child.py"), "setup", str(out_dir / "setup.json"), "--", *args]
        proc = spawn(argv, out_dir / "setup.out", self.deadline)
        self.record(proc.exit == 0, f"setup exited {proc.exit}")
        return proc.wall


def closed_loop(seconds: float, run_one, min_ops: int = 1):
    """Call run_one(k) at least min_ops times, until the next call would end
    past ``seconds``."""
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(run_one(len(ops)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(op_wall(o) for o in ops)
        if len(ops) >= min_ops and elapsed + typical > seconds:
            return ops


def op_wall(item) -> float:
    return item.wall if isinstance(item, Op) else sum(o.wall for o in item)


# ---------------------------------------------------------------- checks


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def check_outputs(runner: Runner, op: Op):
    """Every command of an operation must leave a well-formed JSON result."""
    names = {
        "verify": "report.json",
        "simulate": "simulate.json",
        "estimate": "estimate.json",
        "bands": "bands.json",
        "depmeasure": "depmeasure.json",
    }
    for step, proc in op.procs.items():
        if proc.exit != 0:
            continue
        payload = _load_json(op.dir / names[step])
        ok = isinstance(payload, dict) and payload.get("schema_version") == 1
        runner.record(ok, f"{op.mode} op {op.index} {step} output is not a report")


def check_mc(runner: Runner, op: Op):
    """Recompute sampled replications and compare report bytes across workers."""
    import numpy as np

    import reference as ref
    from specband import parse_model

    report = _load_json(op.dir / "report.json")
    if report is None:
        runner.record(False, "mc report missing")
        return
    plan = report["plan"]
    model = parse_model(plan["model"])
    pick = np.random.default_rng([runner.op_seed(op.index), 7])
    for cell, t_len in enumerate(plan["t_grid"]):
        reps = sorted({0, plan["reps"] - 1, int(pick.integers(plan["reps"]))})
        for rep in reps:
            where = f"{plan['experiment']} T={t_len} rep={rep}"
            if plan["experiment"] == "gumbel":
                got = report["raw"][f"centered_max_T{t_len}"][rep]
                want = ref.gumbel_stat(model, plan, cell, rep)
                ok = abs(got - want) <= ref.STAT_TOL * max(1.0, abs(want))
                runner.record(ok, f"{where}: report {got!r} != recomputed {want!r}")
            else:
                got = bool(report["raw"][f"joint_T{t_len}"][rep])
                want, margin = ref.coverage_flag(model, plan, cell, rep)
                ok = got == want or margin < ref.STAT_TOL
                runner.record(ok, f"{where}: report covered={got}, recomputed {want}")

    # Criterion 10's rule on a small plan: identical bytes at 1 and 2 workers.
    step, template = runner.workload.steps[0]
    template = template.replace("{wide_grid}", "{small_grid}").replace(
        "{var_grid}", "{small_grid}"
    )
    texts = []
    for threads in (1, 2):
        out_dir = runner.work / f"workers-{threads}"
        out_dir.mkdir(parents=True, exist_ok=True)
        args = runner.argv(template, op.index, threads, out_dir)
        proc = spawn(["-m", "specband.cli", *args], out_dir / "verify.out", runner.deadline)
        runner.record(proc.exit == 0, f"small plan at {threads} workers exited {proc.exit}")
        path = out_dir / "report.json"
        texts.append(path.read_bytes() if path.exists() else None)
    runner.record(
        texts[0] is not None and texts[0] == texts[1],
        "small-plan report differs between 1 and 2 workers",
    )


def check_session(runner: Runner, op: Op):
    """CSV round trip, and estimate/bands against the direct-sum reference."""
    import numpy as np

    import reference as ref
    from specband import parse_model, simulate

    t_len = int(runner.size["t_len"])
    values = simulate(parse_model("white:dim=2"), t_len, runner.op_seed(op.index)).values
    csv_path = op.dir / "x.csv"
    try:
        written = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    except (OSError, ValueError):
        written = None
    runner.record(
        written is not None and np.array_equal(written, values),
        "CSV round trip is not exact",
    )
    b_val, freqs, estimate = ref.estimate_from_values(values, "bartlett", 0.4, 1.0)
    payload = _load_json(op.dir / "estimate.json")
    err = math.inf if payload is None else ref.estimate_json_error(payload, b_val, freqs, estimate)
    runner.record(err <= ref.REL_TOL, f"estimate differs from reference: rel {err:.3g}")
    payload = _load_json(op.dir / "bands.json")
    err = (
        math.inf
        if payload is None
        else ref.bands_json_error(payload, estimate, "bartlett", b_val, t_len)
    )
    runner.record(err <= ref.REL_TOL, f"bands differ from reference: rel {err:.3g}")
    payload = _load_json(op.dir / "depmeasure.json")
    ok = (
        payload is not None
        and "conditions" in payload
        and all(math.isfinite(v) for row in payload["delta"] for v in row)
    )
    runner.record(ok, "depmeasure report lacks conditions or finite deltas")


def deep_checks(runner: Runner, op: Op):
    sys.path.insert(0, str(SRC))
    import specband

    if Path(specband.__file__).resolve().parent != (SRC / "specband").resolve():
        raise BenchError(f"specband imported from {specband.__file__}, not {SRC}")
    try:
        (check_mc if runner.workload.is_mc else check_session)(runner, op)
    except Exception:  # a malformed output fails the check, not the benchmark
        traceback.print_exc(file=sys.stdout)
        runner.record(False, "a correctness check raised")


# ---------------------------------------------------------------- environment


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: Workload) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=20
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "specband").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "workers": workload.workers,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------- modes


def measured_run(runner: Runner, seconds: float) -> dict:
    runner.setup_time()  # warm-up: byte-compiles and fills the page cache
    setups = [runner.setup_time() for _ in range(SETUP_SAMPLES)]

    def one(k):
        op = runner.run_op(k, "cli")
        check_outputs(runner, op)
        if k > 0:
            shutil.rmtree(op.dir, ignore_errors=True)
        return op

    ops = closed_loop(seconds, one)
    walls = [op.wall for op in ops]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_wall_s": statistics.median(walls),
        "cpu_s": statistics.median(op.cpu for op in ops),
        "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
    }
    print(f"operations: {len(ops)}; wall s: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"setup samples s: {' '.join(f'{s:.3f}' for s in setups)}")
    if runner.workload.is_mc:
        reps = runner.reps_per_op()
        print(f"reps_per_s: {reps / metrics['op_wall_s']:.4f} 1/s ({reps} reps per verify)")
    else:
        for step, _ in runner.workload.steps:
            step_s = statistics.median(op.procs[step].wall for op in ops)
            print(f"{step}_cmd_s: {step_s:.4f} s")
    deep_checks(runner, ops[0])
    return metrics


def traced_run(runner: Runner, seconds: float) -> dict:
    runner.setup_time()  # warm-up, as in measured runs
    workload = runner.workload
    pooled = runner.run_op(0, "cli") if workload.workers > 1 else None

    def pair(k):
        order = ("plain", "traced") if k % 2 == 0 else ("traced", "plain")
        return [runner.run_op(k, mode) for mode in order]

    # two pairs at least, one in each order, so the overhead is not an order effect
    pairs = closed_loop(seconds, pair, min_ops=2)
    plain = [p for ops in pairs for p in ops if p.mode == "plain"]
    traced = [p for ops in pairs for p in ops if p.mode == "traced"]
    for op in traced + plain + ([pooled] if pooled else []):
        check_outputs(runner, op)
    deep_checks(runner, traced[0])

    import spans

    totals = {}
    import_times = []
    for op in traced:
        for result in op.results.values():
            import_times.append(result["import_s"])
            for layer, (secs, calls, work) in spans.layer_totals(result["spans"]).items():
                entry = totals.setdefault(layer, [0.0, 0, 0])
                entry[0] += secs
                entry[1] += calls
                entry[2] += work
    n_ops = len(traced)
    traced_wall = sum(op.wall for op in traced)
    metrics = {}
    print(f"{'layer':<20}{'self_s':>10}{'share':>8}{'calls':>9}{'work':>16}")
    for layer, (time_name, calls_name, work_name) in LAYERS.items():
        secs, calls, work = totals.get(layer, (0.0, 0, 0))
        metrics[time_name] = secs / n_ops
        metrics[calls_name] = calls / n_ops
        if work_name:
            metrics[work_name] = work / n_ops
        metrics[f"share.{layer}"] = secs / traced_wall
        print(f"{layer:<20}{secs / n_ops:>10.4f}{secs / traced_wall:>8.1%}"
              f"{calls / n_ops:>9.0f}{work / n_ops:>16.0f}")
    outside = 1.0 - sum(metrics[f"share.{layer}"] for layer in LAYERS)
    metrics["share.python"] = outside
    print(f"{'(start, import, exit)':<20}{'':>10}{outside:>8.1%}")
    metrics["python.import_s"] = statistics.median(import_times) if import_times else 0.0
    plain_wall = statistics.median(op.wall for op in plain)
    metrics["trace.overhead_frac"] = statistics.median(op.wall for op in traced) / plain_wall - 1.0
    busy = pooled if pooled else plain[0]
    metrics["mc.pool_busy_frac"] = busy.cpu / (workload.workers * busy.wall)
    print(f"serial plain op wall s: {' '.join(f'{op.wall:.3f}' for op in plain)}")
    print(f"serial traced op wall s: {' '.join(f'{op.wall:.3f}' for op in traced)}")
    if pooled:
        print(f"pooled op ({workload.workers} workers) wall s: {pooled.wall:.3f}, "
              f"cpu s: {pooled.cpu:.3f}, speed-up over serial: {plain_wall / pooled.wall:.3f}")
    return metrics


def declared(trace: int):
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC}: {exc}") from None
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    # SIGTERM unwinds like an exception, so running children are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if not (SRC / "specband" / "__init__.py").is_file():
            raise BenchError(f"no specband package under {SRC}; run from the repository root")
        wanted = declared(args.trace)
        workload = WORKLOADS[args.workload]
        work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        runner = Runner(workload, args.seed, SIZES[args.size], work, deadline)
        try:
            run = traced_run if args.trace else measured_run
            metrics = run(runner, args.seconds)
            print("env: " + json.dumps(environment(workload), sort_keys=True))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"declared metrics not measured: {missing}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    error_rate = runner.failed / runner.attempted
    print(f"error_rate: {error_rate:.4f} frac ({runner.failed} failed of {runner.attempted})")
    for m in wanted:
        print(f"{m['name']}: {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
