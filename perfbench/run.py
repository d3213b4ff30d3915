#!/usr/bin/env python3
"""Served wall-time benchmark of the cortex serving stack.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the cortex
library from this checkout's sources) and runs one workload:

    python3 perfbench/run.py --workload treelstm-sst-light --seed 1 \\
        --seconds 45 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run (and writes a Chrome trace). The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.
`--workload all` runs every workload in turn (untraced) and prints a
table of the seven end-to-end metrics;
`--selftest` runs the benchmark's own checks.

Everything the benchmark builds or writes stays under .bench_build/ in the
checkout (or $CARGO_TARGET_DIR when set).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["treelstm-sst-light", "seqlstm-window64", "dagrnn-grid-offline"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_root():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def child_env():
    """The caller's environment, with temporary files kept in the build tree."""
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(cmd, timeout, stdout=None):
    """Runs cmd to completion; kills and reaps it on timeout or interrupt."""
    proc = subprocess.Popen(cmd, env=child_env(), stdout=stdout, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    out = build_root() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs],
    ):
        # Build chatter goes to stderr: stdout ends with the result line.
        code, _ = run_child(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    return out / "perfbench"


def stamp_args():
    """Git commit (when the checkout is a repository) and a digest of the
    sources the benchmark builds, so results of different code are never
    mixed up."""
    commit = "none"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in (ROOT / "src", HERE / "src"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    files.append(HERE / "CMakeLists.txt")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return ["--commit", commit, "--source-digest", h.hexdigest()[:16]]


def run_workload(binary, workload, seed, seconds, trace, capture=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(build_root() / "perfbench-out")] + stamp_args()
    return run_child(cmd, RUN_TIMEOUT_S,
                     stdout=subprocess.PIPE if capture else None)


PRINTED = ["latency_p50_ms", "latency_p99_ms", "structs_per_s",
           "slo_attainment", "fail_fraction", "setup_s", "peak_rss_mb"]


def run_all(binary, seed, seconds):
    """Every workload in turn, untraced; prints the seven end-to-end
    metrics of each (p99 and fail_fraction from the report lines, the
    rest as in the result) and a combined result line."""
    results, printed = {}, {}
    for w in WORKLOADS:
        code, out = run_workload(binary, w, seed, seconds, 0, capture=True)
        sys.stderr.write(out)
        if code != 0:
            return code
        results[w] = json.loads(out.strip().splitlines()[-1])
        printed[w] = {}
        for line in out.splitlines():
            f = line.split()
            if len(f) == 3 and f[0] in PRINTED:
                printed[w][f[0]] = (float(f[1]), f[2])
    print(f"{'metric':28s}" + "".join(f"{w:>22s}" for w in WORKLOADS))
    for n in PRINTED:
        unit = printed[WORKLOADS[0]][n][1]
        print(f"{n + ' (' + unit + ')':28s}" + "".join(
            f"{printed[w][n][0]:22.6g}" for w in WORKLOADS))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{n}": m for w, r in results.items()
                    for n, m in r["metrics"].items()},
    }))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload or --selftest is required")
    if args.workload == "all" and args.trace:
        ap.error("--workload all runs untraced")
    binary = build()
    if args.selftest:
        code, _ = run_child([str(binary), "--selftest", "--out",
                             str(build_root() / "perfbench-out")],
                            RUN_TIMEOUT_S)
        return code
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    code, _ = run_workload(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
