#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt: the repository library, the
plan server and the perfbench binary) in .bench_build/perfbench; later
runs only re-check the build. The binary's result is the last stdout line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--self-check runs every workload at minimum length, untraced twice with one
seed and traced once, and asserts that every metric named in BENCHMARK.json
is present with its unit and that the simulated counts and the response
digest repeat exactly across the two untraced runs.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("plan-cold", "plan-warm", "serve-mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the perfbench binary and the plan server."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        log(f"no repository sources at {ROOT}; nothing to build")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    exe = BUILD / "perfbench"
    server = BUILD / "cms" / "example_plan_server"
    if not exe.is_file() or not server.is_file():
        log("build produced no perfbench or example_plan_server binary")
        return None
    return exe, server


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_once(binaries, workload, seed, seconds, trace):
    """Run the perfbench binary; returns (exit code, stdout lines)."""
    exe, server = binaries
    work = BUILD / "work"
    spans = BUILD / "spans"
    work.mkdir(parents=True, exist_ok=True)
    spans.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server", str(server), "--work-dir", str(work),
           "--spans-out", str(spans / f"{workload}-seed{seed}-trace{trace}.json"),
           "--git-sha", git_sha()]
    # A session of its own, so a timeout also stops the plan server the
    # binary spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{workload} timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    finally:
        # Nothing the binary started may outlive it, even if it crashed.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return res if isinstance(res, dict) and set(res) == keys else None


def provenance(lines):
    for line in lines:
        if line.startswith('{"provenance"'):
            return json.loads(line)["provenance"]
    return {}


def self_check(binaries):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        runs = []
        for trace in (0, 0, 1):
            code, lines = run_once(binaries, workload, 1, 1, trace)
            res = parse_result(lines)
            if code != 0 or res is None or not res["correct"]:
                problems.append(f"{workload} trace={trace}: exit {code}, "
                                f"result {lines[-2:] if lines else None}")
                continue
            for name, unit in wanted[trace].items():
                got = res["metrics"].get(name)
                if got is None or got.get("unit") != unit:
                    problems.append(f"{workload} trace={trace}: metric {name} "
                                    f"missing or not in {unit}: {got}")
            extra = set(res["metrics"]) - set(wanted[trace])
            if extra:
                problems.append(f"{workload} trace={trace}: unlisted {extra}")
            runs.append((trace, provenance(lines), res))
        untraced = [p for t, p, _ in runs if t == 0]
        if len(untraced) == 2:
            a, b = untraced
            repeat = [k for k in a if k == "plan_digest" or k.startswith("misses.")]
            if not repeat:
                problems.append(f"{workload}: no digest to compare")
            for k in repeat:
                if a.get(k) != b.get(k):
                    problems.append(f"{workload}: {k} differs: {a.get(k)} vs "
                                    f"{b.get(k)}")
        for t, p, res in runs:
            if t == 1 and workload == "plan-cold":
                m = res["metrics"]
                for app in ("app1", "app2"):
                    if m[f"mem.{app}.part_l2_misses"]["value"] <= 0:
                        problems.append(f"plan-cold: no {app} miss counts")
        log(f"self-check {workload}: {len(runs)} runs done")
    for p in problems:
        log(f"SELF-CHECK FAILED: {p}")
    if not problems:
        log("self-check passed")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and None in (args.workload, args.seed,
                                        args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    binaries = build()
    if binaries is None:
        return 2
    if args.self_check:
        return self_check(binaries)

    code, lines = run_once(binaries, args.workload, args.seed, args.seconds,
                           args.trace)
    res = parse_result(lines)
    if res is None:
        log("perfbench printed no result")
        for line in lines[-5:]:
            log(line)
        return code or 1
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
