#!/usr/bin/env python3
"""Build and run the kav benchmark.

Run from the repository root:

  python3 kavbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
  python3 kavbench/run.py --selftest

The first call configures and builds kavbench/ (which compiles the
library from src/) in Release mode into $CARGO_TARGET_DIR, or
.bench_build when it is unset; later calls rebuild only what changed.
Build output goes to stderr. The benchmark prints the environment
record, a table per workload, and as its last line one JSON object with
the keys correct, attempted, failed and metrics; it exits 1 when a
verdict or finding differs from the answer key. Result records and the
traced run's chrome://tracing span file are written to <build>/out/.

--workload all runs every workload of BENCHMARK.json, each in its own
process, then prints one row per workload and one JSON object whose
metrics are named workload.metric.

--selftest runs the benchmark's own tests at tiny sizes: the generator's
answer key, then every workload in both modes, checking the printed
metrics against BENCHMARK.json.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "kavbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"kavbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    if not (ROOT / "src" / "kav.h").is_file():
        fail(f"kav sources not found under {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def git_sha():
    """The checked-out commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_bench(out, args, capture=False):
    work = out / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(out / "kavbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--work-dir", str(work), "--out-dir", str(out / "out"),
           "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"kavbench/run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        sys.exit(1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(out, args):
    """Every workload in its own process; one summary row per workload."""
    results = {}
    status = 0
    for workload in [w["name"] for w in spec()["workloads"]]:
        proc = run_bench(out, argparse.Namespace(**{**vars(args), "workload": workload}),
                         capture=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            fail(f"{workload}: no result line (exit code {proc.returncode})")
    names = list(next(iter(results.values()))["metrics"])
    units = next(iter(results.values()))["metrics"]
    print("\n" + f"{'workload':16s}" + "".join(
        f" {n + ' [' + units[n]['unit'] + ']':>22s}" for n in names) + f" {'failed_frac':>12s}")
    for workload, r in results.items():
        print(f"{workload:16s}" + "".join(f" {r['metrics'][n]['value']:22.6g}" for n in names)
              + f" {r['failed'] / r['attempted']:12.6g}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }), flush=True)
    return status


def selftest(out):
    problems = []
    if subprocess.run([str(out / "kavbench_selftest")]).returncode != 0:
        problems.append("kavbench_selftest failed")
    for workload in [w["name"] for w in spec()["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=workload, seed=3, seconds=0.2,
                                      trace=trace, size="tiny")
            proc = run_bench(out, args, capture=True)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}")
                sys.stderr.write(proc.stdout)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {result}")
            want = {m["name"]: m["unit"] for m in spec()[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if want != got:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[n for n in want if n in got and want[n] != got[n]]}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{where}: {name} is not a finite number")
                elif trace == 0 and m["value"] <= 0:
                    problems.append(f"{where}: end-to-end metric {name} is {m['value']}")
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    try:
        build(out)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")
    if args.selftest:
        return selftest(out)
    if args.workload == "all":
        return run_all(out, args)
    return run_bench(out, args).returncode


if __name__ == "__main__":
    sys.exit(main())
