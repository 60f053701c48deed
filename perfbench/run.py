#!/usr/bin/env python3
"""Builds the igc benchmark from source and runs one workload.

    python3 perfbench/run.py --workload zoo_jit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run it from anywhere inside a checkout of the repository. The first call
configures and builds the library and the benchmark program into
.bench_build/perfbench (later calls rebuild only what changed). Each run gets
a private scratch directory under .bench_build, used for the JIT kernel caches
and the host compiler's temporary files, and removes it when it ends. The program's
standard output passes through unchanged: progress lines starting with '#',
then one JSON result line (see README.md).
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
EXE = BUILD / "igc_perfbench"
WORKLOADS = ("zoo_jit", "serve_paced", "serve_host")
# Stops a hung run; a normal run ends well within it.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(env):
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = OUT / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="only run the output checkers' self-test")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no igc sources at {ROOT / 'src'}; run from a full checkout", 2)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    env = dict(os.environ, TMPDIR=str(workdir))
    try:
        build(env)
        if args.selftest:
            cmd = [str(EXE), "--selftest"]
        else:
            cmd = [str(EXE), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--workdir", str(workdir)]
        sys.stdout.flush()
        # Own process group, so a timeout also ends the host compilers the
        # JIT backend starts.
        proc = subprocess.Popen(cmd, env=env, start_new_session=True)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code is None:
            fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        if code != 0:
            fail(f"benchmark exited with code {code}", code if code > 0 else 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
