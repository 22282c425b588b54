#!/usr/bin/env python3
"""Host-cost benchmark of wst: build the binary, run one workload, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (a CMake package that compiles ../src in Release) into
$CARGO_TARGET_DIR/perfbench-release (default .bench_build/), runs the binary
for one workload and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, which are also written with the run's provenance to
<build>/perfbench-results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stress_p4096", "wildcard_p2048", "serve_fuzz4096",
             "spec_hybrid_p1024")
BINARY_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "calls_per_s": "1/s",
    "sessions_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "virtual_slowdown": "ratio",
}

PER_LAYER_UNITS = {
    "mpi.reference_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "must.run_s": "s",
    "waitstate.transitions": "count",
    "waitstate.max_window": "count",
    "waitstate.consumed_evictions": "count",
    "waitstate.consumed_pinned": "count",
    "tbon.messages": "count",
    "tbon.channel_messages": "count",
    "tbon.msgs_per_call": "ratio",
    "tbon.max_queue_depth": "count",
    "wfg.arcs": "count",
    "wfg.build_s": "s",
    "wfg.check_s": "s",
    "wfg.output_s": "s",
    "match.profile_s": "s",
    "analysis.classify_s": "s",
    "analysis.certified_frac": "ratio",
    "fuzz.generate_s": "s",
    "serve.rounds": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench-release"


def build():
    """Configure once, then build incrementally. Output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: program sources (src/) not found next to perfbench/")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    binary = out / "wst_perfbench"
    return binary if binary.is_file() else None


def source_digest():
    """sha256 over the program and benchmark sources (the checkout need not
    be a git repository, so this identifies the code either way)."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                files.append(p)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_binary(binary, argv):
    proc = subprocess.run([str(binary)] + argv, capture_output=True,
                          text=True, timeout=BINARY_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc


def end_to_end(doc):
    rounds = [r for r in doc["rounds"] if not r["traced"]]
    return {
        "wall_s": median([r["wall_s"] for r in rounds]),
        "setup_s": median(doc["setup_samples"]),
        "calls_per_s": median([r["calls"] / r["wall_s"] for r in rounds]),
        "sessions_per_s": median([r["ops"] / r["wall_s"] for r in rounds]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "virtual_slowdown": doc["virtual_slowdown"],
    }


def per_layer(doc):
    traced = [r for r in doc["rounds"] if r["traced"]]
    plain = [r for r in doc["rounds"] if not r["traced"]]
    names = set()
    for r in traced:
        names.update(r["layers"])
    values = {n: median([r["layers"].get(n, 0.0) for r in traced])
              for n in names}
    run_s = values.get("must.run_s", 0.0)
    calls = median([r["calls"] for r in traced])
    values["mpi.reference_s"] = doc["reference_s"]
    values["sim.events_per_s"] = (values.get("sim.events", 0.0) / run_s
                                  if run_s > 0 else 0.0)
    values["tbon.msgs_per_call"] = (values.get("tbon.messages", 0.0) / calls
                                    if calls > 0 else 0.0)
    traced_wall = median([r["wall_s"] for r in traced])
    plain_wall = median([r["wall_s"] for r in plain])
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = plain_wall
    values["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0
                                     if plain_wall > 0 else 0.0)
    return {n: values.get(n, 0.0) for n in PER_LAYER_UNITS}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that every correctness check rejects a wrong "
                         "result, then exit")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    t0 = time.monotonic()
    binary = build()
    if binary is None:
        return 2
    log(f"perfbench: build ready in {time.monotonic() - t0:.1f} s")

    if args.self_test:
        proc = run_binary(binary, ["--self-test"])
        sys.stdout.write(proc.stdout)
        return proc.returncode

    proc = run_binary(binary, ["--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
    if proc.returncode != 0:
        log(f"perfbench: wst_perfbench exited with {proc.returncode}")
        return 3
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    for err in doc["errors"]:
        log("perfbench: check failed: " + err)

    provenance = dict(doc["provenance"])
    provenance["git_sha"] = git_sha()
    provenance["source_digest"] = source_digest()
    if args.trace:
        metrics, units = per_layer(doc), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(doc), END_TO_END_UNITS
    result = {
        "correct": doc["failed"] == 0 and not doc["errors"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }

    ledger = build_dir().parent / "perfbench-results"
    ledger.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(ledger / name, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "provenance": provenance, "result": result,
                   "rounds": doc["rounds"],
                   "setup_samples": doc["setup_samples"]}, f, indent=1)

    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
