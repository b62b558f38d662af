#!/usr/bin/env python3
"""Build and run the locktune benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Builds perfbench/ (first use only; later calls are a no-op rebuild)
      and runs one workload. The last stdout line is the result JSON.

  python3 perfbench/run.py --repeat N --workload NAME [--seed N]
                           [--seconds S] [--trace 0|1]
      Runs the workload N times at seeds seed..seed+N-1 and prints, per
      metric, the median, the quartiles and the spread (Q3-Q1)/median,
      plus the provenance of the numbers: commit, compiler, build type,
      nproc and CPU model.

  python3 perfbench/run.py --smoke
      Runs every workload once timed and once traced at the shortest
      length (one round), proving that every workload's checks run.

The build goes to $CARGO_TARGET_DIR/perfbench when that is set, else to
.bench_build/perfbench; build output goes to stderr.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ramp_oltp", "ramp_oltp_t4", "dss_injection", "idle_crowd"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"], stdout=sys.stderr,
                   check=True)
    return os.path.join(bdir, "locktune_perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary once; returns its result JSON (or None) and exit code."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return result, proc.returncode


def provenance(binary):
    cache = {}
    with open(os.path.join(os.path.dirname(binary), "CMakeCache.txt")) as f:
        for line in f:
            key, sep, value = line.strip().partition("=")
            if sep and not line.startswith(("#", "//")):
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             text=True).stdout.splitlines()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "commit": commit.stdout.strip() if commit.returncode == 0
        else "unknown (not a git checkout)",
        "compiler": version[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def repeat(binary, workload, first_seed, n, seconds, trace):
    values = {}
    units = {}
    failed_share = set()
    for seed in range(first_seed, first_seed + n):
        result, code = run_once(binary, workload, seed, seconds, trace)
        if code != 0 or result is None or not result["correct"]:
            print(f"{workload} seed {seed}: run failed (exit {code})",
                  file=sys.stderr)
            return 1
        failed_share.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    summary = {}
    print(f"{workload}: {n} runs, seeds {first_seed}..{first_seed + n - 1}, "
          f"--seconds {seconds} --trace {trace}")
    print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "unit": units[name]}
        print(f"  {name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.3f}  {units[name]}")
    prov = provenance(binary)
    print("  provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    print(json.dumps({"workload": workload, "runs": n, "seconds": seconds,
                      "trace": trace, "failed_share": sorted(failed_share),
                      "provenance": prov, "metrics": summary}))
    return 0


def smoke(binary):
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, code = run_once(binary, workload, 1, 1, trace)
            ok = code == 0 and result is not None and result["correct"]
            print(f"{workload} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'} attempted="
                  f"{result and result['attempted']} failed="
                  f"{result and result['failed']}")
            if not ok:
                return 1
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, metavar="N")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(binary)
    if args.repeat:
        return repeat(binary, args.workload, args.seed, args.repeat,
                      args.seconds, args.trace)
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds",
                      str(args.seconds), "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
