#!/usr/bin/env python3
"""End-to-end benchmark of the NASSC transpiler and its serving daemon.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check

The first form builds perfbench/ (and through it libnassc) in
$CARGO_TARGET_DIR, default .bench_build, then runs one workload in its
own process and prints its metrics; the last line of standard output is
one JSON object.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones.  The second form runs
every workload at minimum size, traced and untraced, and fails if a
metric named in BENCHMARK.json is missing.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure once, then build the perfbench target; return its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def run_workload(binary, workload, seed, seconds, trace, quick=False):
    """Run one workload in its own process; return (lines, result).

    A run whose checks fail still returns its result, with "correct"
    false; a run that crashes or prints no result raises RuntimeError.
    """
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    # The build directory is the working directory so that the serving
    # workload's unix socket gets a short relative path.
    proc = subprocess.run(cmd, cwd=build_dir(), stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or (proc.returncode != 0
                                        and result.get("correct")):
        raise RuntimeError(f"{workload} exited with {proc.returncode}:\n"
                           + proc.stdout)
    return lines[:-1], result


def missing_metrics(spec, result, trace):
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = result.get("metrics", {})
    return [n for n in wanted if n not in got] + \
           [n for n in got if n not in wanted]


def self_check(spec, binary):
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            try:
                _, result = run_workload(binary, w["name"], 1, 1, trace,
                                         quick=True)
            except (RuntimeError, subprocess.TimeoutExpired) as e:
                log(f"self-check {w['name']} trace={trace}: {e}")
                bad += 1
                continue
            wrong = missing_metrics(spec, result, trace)
            status = "ok" if not wrong and result["correct"] else "FAILED"
            print(f"{w['name']:18s} trace={trace}: {status}"
                  + (f" (missing or extra: {', '.join(wrong)})"
                     if wrong else ""))
            bad += status != "ok"
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    try:
        spec = load_spec()
        binary = build()
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    if args.self_check:
        return self_check(spec, binary)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"--workload must be one of {', '.join(names)}")
        return 2
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    try:
        lines, result = run_workload(binary, args.workload, args.seed,
                                     seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1
    wrong = missing_metrics(spec, result, args.trace)
    if wrong:
        log(f"metrics missing or not in BENCHMARK.json: {', '.join(wrong)}")
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
