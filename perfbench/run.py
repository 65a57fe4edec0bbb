#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

Builds perfbench/perfbench.cpp against the tree's own library, runs one
workload in a child process of its own, and prints that process's result as
the last line of stdout:

    python3 perfbench/run.py --workload optical_backlog --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

--trace 0 prints the end-to-end metrics, --trace 1 the per-module split.
The metric names and units are checked against BENCHMARK.json at the root
of the checkout.  The build goes to $CARGO_TARGET_DIR (relative paths are
taken from the checkout root), default .bench_build.  Exit status is 0 only
when the build succeeded, every correctness gate held and the metrics match
BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150
# Set-up time differs more between processes than within one, so it is the
# median over this many short set-up-only processes.
SETUP_PROCESSES = 9


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(targets):
    """Configure (once) and build `targets`; returns the build directory."""
    if not (ROOT / "src" / "runtime" / "runtime.hpp").is_file():
        raise SystemExit(
            "perfbench: the library sources (src/) are missing; run from the "
            "root of a full checkout")
    out = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, **quiet)
    subprocess.run(["cmake", "--build", str(out), "-j", "4", "--target",
                    *targets], check=True, **quiet)
    return out


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_child(out, workload, seed, seconds, mode, jobs=0):
    """Runs the benchmark program once; returns (exit code, result or None)."""
    cmd = [str(out / "perfbench"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}", f"--mode={mode}",
           f"--jobs={jobs}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode < 0 or result is None:
        log(f"{workload} ended with status {proc.returncode} and no result")
        return proc.returncode or 1, None
    return proc.returncode, result


def metric_mismatch(result, trace):
    """Describes how the result's metrics differ from BENCHMARK.json."""
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got == want:
        return None
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
    return f"missing {missing}, unexpected {extra}, wrong units {units}"


def run_workload(out, workload, seed, seconds, trace, jobs=0):
    """One benchmark run; --trace 0 adds setup_s from set-up processes."""
    setups = []
    if not trace:
        for _ in range(SETUP_PROCESSES):
            code, result = run_child(out, workload, seed, 1, "setup", jobs)
            if result is None:
                return code, None
            setups.append(result["metrics"]["setup_s"]["value"])
    code, result = run_child(out, workload, seed, seconds,
                             "traced" if trace else "e2e", jobs)
    if result is not None and setups:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **result["metrics"]}
    return code, result


def measure(args):
    out = build(["perfbench"])
    code, result = run_workload(out, args.workload, args.seed, args.seconds,
                                args.trace)
    if result is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    problem = metric_mismatch(result, args.trace)
    if problem:
        log(f"metrics do not match BENCHMARK.json: {problem}")
        result["correct"] = False
        code = code or 1
    print(json.dumps(result))
    return code


def self_test():
    """Tiny-stream run of every workload in both modes, plus lint checks."""
    out = build(["perfbench", "json_check", "simlint"])
    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    failures = []
    for workload in workloads:
        for trace in (0, 1):
            code, result = run_workload(out, workload, 3, 1, trace, jobs=40)
            label = f"{workload} trace={trace}"
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{label}: failed (status {code})")
                continue
            problem = metric_mismatch(result, trace)
            if problem:
                failures.append(f"{label}: {problem}")
            artifact = out / f"selftest_{workload}_{trace}.json"
            artifact.write_text(json.dumps(result) + "\n")
            if subprocess.run([str(out / "tools" / "json_check"),
                               str(artifact)], stdout=subprocess.DEVNULL,
                              stderr=sys.stderr).returncode != 0:
                failures.append(f"{label}: json_check rejected the output")
        # A fixed seed repeats every simulated outcome exactly.
        runs = [run_child(out, workload, 3, 1, "e2e", jobs=40)[1]
                for _ in range(2)]
        sims = [{k: v for k, v in (r or {}).get("metrics", {}).items()
                 if k.startswith("sim_")} for r in runs]
        if not sims[0] or sims[0] != sims[1]:
            failures.append(f"{workload}: sim_* metrics differ across runs")
    if run_child(out, "no_such_workload", 1, 1, "e2e")[0] == 0:
        failures.append("an unknown workload was accepted")
    lint = subprocess.run([str(out / "tools" / "simlint"), f"--root={ROOT}",
                           "perfbench"], stdout=sys.stderr, stderr=sys.stderr)
    if lint.returncode != 0:
        failures.append("simlint found problems in perfbench/")
    for failure in failures:
        log(f"self-test: {failure}")
    log(f"self-test: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload on a tiny stream and check "
                             "the output, then exit")
    parser.add_argument("--workload",
                        choices=["optical_backlog", "hybrid_overflow",
                                 "routed_chaos"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        return self_test() if args.self_test else measure(args)
    except subprocess.CalledProcessError as err:
        log(f"build failed: {' '.join(err.cmd)}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
