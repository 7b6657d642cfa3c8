#!/usr/bin/env python3
"""Build and run the MARS benchmark program (perfbench/mars_bench.cpp).

One workload, as BENCHMARK.json's command runs it:

    python3 perfbench/run.py --workload map-paper --seed 1 --seconds 25 --trace 0

Every workload, untraced and traced, with one summary table at the end
(add --write-manifest to regenerate BENCHMARK.json from mars_bench's
metric tables):

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--write-manifest]

mars_bench is compiled, together with the library sources under src/, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use.
Build output goes to stderr; mars_bench's report goes to stdout and ends
with one JSON line.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_SECONDS = 25
RUN_TIMEOUT_S = 170
WORKLOADS = ["map-paper", "serve-overload", "serve-fleet"]


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure (once) and build mars_bench; return its path."""
    if not (ROOT / "src" / "mars").is_dir():
        sys.exit("run.py: no MARS sources at src/mars; run from a full checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.exit(f"run.py: build step failed: {' '.join(step)}")
    return out / "mars_bench"


def run_bench(binary, workload, seed, seconds, trace):
    """Run one workload; return (exit code, stdout)."""
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_out = traces / f"{workload}-seed{seed}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", str(trace_out)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.exit("run.py: mars_bench printed no result line")
    return result


def manifest(binary):
    tables = json.loads(subprocess.run(
        [str(binary), "--manifest"], stdout=subprocess.PIPE, text=True,
        check=True).stdout)
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": tables["workloads"],
        "end_to_end": tables["end_to_end"],
        "per_layer": tables["per_layer"],
    }


def run_all(binary, seed, seconds, write_manifest):
    results = {}
    failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, stdout = run_bench(binary, workload, seed, seconds, trace)
            sys.stdout.write(stdout)
            if code != 0:
                sys.exit(f"run.py: {workload} exited with code {code}")
            result = result_of(stdout)
            failed += result["failed"]
            results.setdefault(workload, {}).update(result["metrics"])
    names = list(results[WORKLOADS[0]])
    width = max(len(n) for n in names)
    print("\n" + "metric".ljust(width) + "  unit   " +
          "".join(w.rjust(16) for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]][name]["unit"]
        row = "".join(f"{results[w][name]['value']:16.6g}" for w in WORKLOADS)
        print(f"{name.ljust(width)}  {unit.ljust(6)} {row}")
    print(f"\nfailed operations: {failed}")
    if write_manifest:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(manifest(binary), indent=2) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0 if failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--write-manifest", action="store_true",
                        help="with --all: regenerate BENCHMARK.json")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")

    binary = build()
    if args.all:
        return run_all(binary, args.seed, args.seconds, args.write_manifest)
    code, stdout = run_bench(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    sys.stdout.write(stdout)
    if code == 0:
        result_of(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
