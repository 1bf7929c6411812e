#!/usr/bin/env python3
"""Builds and runs the geomcast benchmark driver (perfbench/main.cpp).

Usage, from the repository root:

  python3 perfbench/run.py --workload fanout-1k --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --self-test

The driver is configured with CMake from perfbench/CMakeLists.txt, which
builds the repository's library from source, into $CARGO_TARGET_DIR
(default .bench_build) under the repository root. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes the span file to <build dir>/traces/.

--self-test runs every workload at reduced size twice per trace mode with
one seed and checks that each metric BENCHMARK.json names is printed with
its unit, that the deterministic metrics and the delivered digest are
identical across the two runs, and that tracing leaves the digest unchanged.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BINARY = "geomcast_perfbench"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configures (once) and builds the driver; returns the binary's path."""
    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            raise RuntimeError(f"source tree incomplete: {ROOT / needed} is missing")
    out = build_dir()
    env = dict(os.environ, CCACHE_DISABLE="1", CCACHE_DIR=str(out / "ccache"))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", BINARY, "--parallel", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return out / BINARY


def source_id():
    """The git commit when the tree is a git checkout, else a hash of the
    files a build reads (the benchmark checkout is a plain file tree)."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True).stdout.strip()
            return f"git:{sha}"
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return f"tree:{digest.hexdigest()[:16]}"


def run_driver(binary, workload, seed, seconds, trace, small=False, source="unknown"):
    """Runs one workload; returns (returncode, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--source-id", source]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        suffix = "-small" if small else ""
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}{suffix}.json")]
    if small:
        cmd.append("--small")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def self_test(binary, seed):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace in (0, 1):
            runs = []
            for _ in range(2):
                code, lines = run_driver(binary, workload, seed, 0.01, trace, small=True)
                if code != 0 or len(lines) < 2:
                    problems.append(f"{workload} trace={trace}: exit {code}")
                    break
                detail, result = json.loads(lines[-2]), json.loads(lines[-1])
                runs.append((detail, result))
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
                if result["correct"] is not True or result["failed"] != 0:
                    problems.append(f"{workload} trace={trace}: checks failed "
                                    f"{detail['violations']}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace]).symmetric_difference(got))
                    wrong = sorted(k for k in got if k in expected[trace]
                                   and got[k] != expected[trace][k])
                    problems.append(f"{workload} trace={trace}: metric set differs "
                                    f"(missing/extra {missing}, wrong unit {wrong})")
            if len(runs) == 2:
                (a, _), (b, _) = runs
                for key in ("digest", "deterministic", "scheduled_ops", "failed_ops",
                            "deliveries"):
                    if a[key] != b[key]:
                        problems.append(f"{workload} trace={trace}: {key} differs "
                                        "between two same-seed runs")
                digests[trace] = a["digest"]
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append(f"{workload}: traced digest {digests[1]} != untraced {digests[0]}")
        log(f"self-test {workload}: {'ok' if not problems else 'see below'}")
    for p in problems:
        log(f"self-test FAILED: {p}")
    print(json.dumps({"self_test": "fail" if problems else "pass", "problems": problems}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    try:
        started = time.monotonic()
        binary = build()
        log(f"build ready in {time.monotonic() - started:.1f}s")
        if args.self_test:
            return self_test(binary, args.seed)
        code, lines = run_driver(binary, args.workload, args.seed, args.seconds, args.trace,
                                 source=source_id())
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        log(f"error: {error}")
        return 2
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
