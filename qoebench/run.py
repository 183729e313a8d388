#!/usr/bin/env python3
"""QoE-monitor benchmark entry point.

Builds the vcaqoe libraries and the `qoebench` binary from source (CMake,
Release) under the build directory, runs one workload, checks that the
binary's result names every metric of BENCHMARK.json with its unit, and
prints that result as the last line of standard output.

    python3 qoebench/run.py --workload lab_replay --seed 1 --seconds 35 --trace 0
    python3 qoebench/run.py --self-test

Run it from the root of a checkout. Everything it builds or writes goes to
$CARGO_TARGET_DIR (default .bench_build) inside the checkout. It exits
non-zero, without printing a result, when the sources cannot be built or
the result does not match BENCHMARK.json. See qoebench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "qoebench"
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "qoebench"


def child_env(build):
    # Compilers and the binary put temporaries under TMPDIR: keep them in
    # the build directory.
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    return env


def run_checked(cmd, env, timeout, cwd=ROOT):
    """Runs cmd with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out: {' '.join(map(str, cmd))}", file=sys.stderr)
        return 1


def build_targets(targets):
    build = build_dir()
    env = child_env(build)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(build),
                    "-DCMAKE_BUILD_TYPE=Release"], env, BUILD_TIMEOUT_S):
        print("run.py: cmake configure failed", file=sys.stderr)
        return None
    for target in targets:
        if run_checked(["cmake", "--build", str(build), "--target", target,
                        "-j", jobs], env, BUILD_TIMEOUT_S):
            print(f"run.py: building {target} failed", file=sys.stderr)
            return None
    return build


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def check_result(result, spec, trace):
    """Returns a list of ways `result` breaks the output contract."""
    errors = []
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys are {sorted(result)}")
        return errors
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted is below 1")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return errors + ["metrics is not an object"]
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            errors.append(f"metric {name} is missing")
            continue
        if set(got) != {"value", "unit"}:
            errors.append(f"metric {name} has keys {sorted(got)}")
        elif got["unit"] != unit:
            errors.append(f"metric {name} has unit {got['unit']}, not {unit}")
        elif not isinstance(got["value"], (int, float)) or isinstance(
                got["value"], bool):
            errors.append(f"metric {name} has a non-numeric value")
    for name in metrics:
        if name not in expected:
            errors.append(f"metric {name} is not in BENCHMARK.json")
    return errors


def run_binary(build, args, extra=()):
    """Runs the binary; returns (exit code, stdout lines)."""
    cmd = [str(build / "qoebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(build / "work"),
           *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(build),
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the binary timed out", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def bench(args):
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        print(f"run.py: no vcaqoe sources under {ROOT}", file=sys.stderr)
        return 1
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"run.py: workload {args.workload} is not one of {names}",
              file=sys.stderr)
        return 2
    build = build_targets(["qoebench"])
    if build is None:
        return 1
    code, lines = run_binary(build, args)
    if not lines:
        print("run.py: the binary printed nothing", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"run.py: last line is not JSON: {lines[-1]}", file=sys.stderr)
        return 1
    errors = check_result(result, spec, args.trace)
    if errors:
        for error in errors:
            print(f"run.py: {error}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return code


def self_test():
    """Builds and runs the harness tests, then checks that a short run of
    every workload, traced and untraced, names every metric of
    BENCHMARK.json with its unit."""
    build = build_targets(["qoebench", "qoebench_tests"])
    if build is None:
        return 1
    if run_checked([str(build / "qoebench_tests")], child_env(build),
                   RUN_TIMEOUT_S):
        return 1
    spec = load_spec()
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload["name"], seed=1,
                                      seconds=0.5, trace=trace)
            code, lines = run_binary(build, args, ["--scale", "0.05"])
            errors = [f"exit code {code}"] if code != 0 else []
            if lines:
                try:
                    errors += check_result(json.loads(lines[-1]), spec, trace)
                except json.JSONDecodeError:
                    errors.append("last line is not JSON")
            else:
                errors.append("no output")
            status = "ok" if not errors else "FAILED: " + "; ".join(errors)
            print(f"output check {workload['name']} trace={trace}: {status}",
                  file=sys.stderr)
            failures += bool(errors)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
