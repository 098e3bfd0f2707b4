#!/usr/bin/env python3
"""Build the benchmark harness from source, then run one workload.

    python3 perfbench/run.py --workload sfi-fixed --seed 1 --seconds 10 --trace 0

Run from the repository root. The harness (perfbench/src) and the
library it measures (src/) are compiled into .bench_build/perfbench as a
Release build with the computed-goto dispatcher; scratch files (trial
stores, sidecars, traces, recorded counters, results) go to
.bench_build/perfbench-work. The harness's stdout is passed through; its
last line is the JSON result. Each result is also saved with its
provenance under .bench_build/perfbench-work/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
WORKLOADS = ("sfi-fixed", "sfi-served", "config-sweep")
BUILD_JOBS = "3"


def source_digest():
    """Digest of every file the harness is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:12]


def revision():
    """Git revision when there is one, plus the source digest, which
    also tells uncommitted or non-git sources apart."""
    digest = source_digest()
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip() + "-src-" + digest
    return "src-" + digest


def build(rev):
    if not (ROOT / "src" / "fault" / "injector.h").is_file():
        sys.exit("perfbench: library sources not found under "
                 f"{ROOT / 'src'}; run from a full checkout")
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release", f"-DPERFBENCH_REVISION={rev}"]
    if shutil.which("ninja") and not (BUILD / "Makefile").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", str(BUILD), "-j", BUILD_JOBS]):
        # Build chatter goes to stderr: stdout is reserved for results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    rev = revision()
    build(rev)
    WORK.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [str(BUILD / "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--work-dir", str(WORK)],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()

    lines = proc.stdout.splitlines()
    provenance = next((json.loads(line.split(":", 1)[1]) for line in lines
                       if line.startswith("provenance:")), None)
    if lines and lines[-1].startswith("{") and provenance is not None:
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        record = {"provenance": provenance, "result": json.loads(lines[-1])}
        (results / name).write_text(json.dumps(record, indent=1) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
