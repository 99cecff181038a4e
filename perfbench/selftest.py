#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

1. A tiny-size run of every workload, in both trace modes, must end with a
   correct result that carries exactly the metrics BENCHMARK.json declares.
2. The estimate reference check must accept ``specband estimate`` output and
   reject it after one entry is perturbed by a relative 1e-9.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = HERE / ".work" / f"selftest-{os.getpid()}"


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_smoke(spec: dict) -> list:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            where = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{where}: no JSON result (exit {proc.returncode})")
                continue
            units = {m["name"]: m["unit"] for m in spec[key]}
            got = result.get("metrics", {})
            if proc.returncode != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: exit {proc.returncode}, keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{where}: not correct: {proc.stdout[-2000:]}")
            if set(got) != set(units):
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(units))} differ")
            for name, entry in got.items():
                if entry.get("unit") != units.get(name) or not math.isfinite(entry["value"]):
                    problems.append(f"{where}: bad entry {name}: {entry}")
            print(f"ok   {where}" if not problems else f"...  {where}", flush=True)
    return problems


def check_perturbation() -> list:
    sys.path.insert(0, str(ROOT / "src"))
    from specband import parse_model, simulate

    import reference as ref

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    csv_path, out_path = WORK / "x.csv", WORK / "estimate.json"
    for args in (
        ["simulate", "--model", "white:dim=2", "--t-len", "3000", "--seed", "9",
         "--out", str(csv_path), "--meta", str(WORK / "meta.json")],
        ["estimate", "--input", str(csv_path), "--output", str(out_path)],
    ):
        subprocess.run([sys.executable, "-m", "specband.cli", *args], env=env,
                       check=True, timeout=120, capture_output=True)
    values = simulate(parse_model("white:dim=2"), 3000, 9).values
    b_val, freqs, estimate = ref.estimate_from_values(values, "bartlett", 0.4, 1.0)
    payload = json.loads(out_path.read_text())
    problems = []
    err = ref.estimate_json_error(payload, b_val, freqs, estimate)
    if not err <= ref.REL_TOL:
        problems.append(f"unperturbed estimate rejected: rel {err:.3g}")
    payload["matrices"][1][0][0][0] *= 1.0 + 1e-9
    err = ref.estimate_json_error(payload, b_val, freqs, estimate)
    if err <= ref.REL_TOL:
        problems.append(f"perturbed estimate accepted: rel {err:.3g}")
    print("ok   perturbed estimate trips the reference check" if not problems else "FAIL perturbation")
    return problems


def check_bare_directory() -> list:
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench("mc-wideband", 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    print("ok   bare directory exits non-zero without a result")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        problems = check_smoke(spec) + check_perturbation() + check_bare_directory()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
