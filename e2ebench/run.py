#!/usr/bin/env python3
"""Builds and runs the end-to-end broker benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

The first call configures and builds e2ebench/ (the repository's src/ tree
plus the benchmark) in an optimized build under $CARGO_TARGET_DIR
(default .bench_build) and reuses that build afterwards. Build output goes
to stderr; stdout carries the benchmark's provenance line and, last, its
result line. The exit code is the benchmark's: 0 only for a correct run.

--selftest runs the harness self-test, then shows that a run with an
injected missing, duplicate or spurious delivery is rejected and that a
clean run is accepted.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pair-tcp-fanout", "line3-churn")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(src):
        fail(f"no program sources at {src}; run from a full checkout")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return out


def git_commit():
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10, env=env)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_bench(out, args, capture):
    cmd = [os.path.join(out, "e2e_bench")] + args + ["--git-commit", git_commit()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", code=3)


def selftest(out):
    ok = subprocess.run([os.path.join(out, "harness_selftest")]).returncode == 0
    base = ["--workload", "pair-tcp-fanout", "--seed", "1", "--seconds", "2", "--trace", "0"]
    for kind in ("missing", "duplicate", "spurious", None):
        extra = ["--inject", kind] if kind else []
        r = run_bench(out, base + extra, capture=True)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        rejected = r.returncode != 0 and not result["correct"] and result["failed"] >= 1
        expect_rejected = kind is not None
        verdict = rejected == expect_rejected
        ok = ok and verdict
        label = f"inject {kind}" if kind else "clean run"
        print(f"selftest: {label:18s} exit={r.returncode} correct={result['correct']} "
              f"failed={result['failed']} -> {'ok' if verdict else 'WRONG'}")
    print("selftest: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if not opts.selftest and (opts.workload is None or opts.seconds is None):
        parser.error("--workload and --seconds are required")
    out = build()
    if opts.selftest:
        return selftest(out)
    r = run_bench(out, ["--workload", opts.workload, "--seed", str(opts.seed),
                        "--seconds", str(opts.seconds), "--trace", opts.trace], capture=False)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
