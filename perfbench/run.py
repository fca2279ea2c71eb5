#!/usr/bin/env python3
"""Request-path benchmark: build the program from this repository's sources,
run one workload, check its outputs and print every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The build lives in .bench_build/ (or
$CARGO_TARGET_DIR when set). The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
named in BENCHMARK.json with --trace 0, the per-layer ones with --trace 1
(a per-layer metric of a layer the workload does not pass through reads 0).
--self-test builds and runs the tests of the benchmark's own correctness
checks. Exits non-zero, without a result, when the program cannot be built
or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("http-tenants-open", "binary-pipelined-closed", "sched-skewed-durable")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures once, then builds (a no-op when nothing changed)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "front_door.cc")):
        log("perfbench: the program's sources (src/) are not here; nothing to build")
        return False
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", out, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def declared_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not build():
        log("perfbench: build failed")
        return 1

    if args.self_test:
        return subprocess.run([os.path.join(build_dir(), "perfbench_checks_test")]).returncode

    command = [os.path.join(build_dir(), "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    # sched-skewed-durable keeps its WAL in .bench_build/sched-wal-<pid>.
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    run = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        run.kill()
        run.communicate()
        log("perfbench: run timed out")
        return 1
    finally:
        # A run that dies early cannot remove its WAL directory itself.
        shutil.rmtree(os.path.join(ROOT, ".bench_build", "sched-wal-%d" % run.pid),
                      ignore_errors=True)
    lines = stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log("perfbench: run failed with exit code %d" % run.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    reported = result["metrics"]
    metrics = {}
    for name, unit in declared_metrics(args.trace):
        if name in reported:
            metrics[name] = reported[name]
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            log("perfbench: end-to-end metric %s missing" % name)
            result["correct"] = False
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
