#!/usr/bin/env python3
"""The vmsim benchmark: one command per workload, seed and run length.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run builds the benchmark binary
vmbench (perfbench/CMakeLists.txt, which compiles ../src) into the directory
named by CARGO_TARGET_DIR, or .bench_build when it is unset.

--trace 0 repeats the workload's sweep, one process per repetition,
until --seconds have passed (at least three times) and reports the
end-to-end metrics as medians over the repetitions. --trace 1 makes one
traced run and reports the per-layer metrics and the ledger. Both check
the simulated output: the SHA-256 of the sweep CSV and of every cell's
serialized Results must match the committed reference at the default
seed and be identical on every repetition, and every cell must pass the
invariant audit. A vmbench process still running RUN_LIMIT_S seconds
after the build is killed, and its cells count as failed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit status is 0 when the
output is correct, 1 when it is not, 2 on a usage error and 3 when
vmbench cannot be built. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figures", "multicore-pressure", "observed-audit")
DEFAULT_SEED = 1
MIN_REPS = 3
DIGESTS = os.path.join(HERE, "digests.json")
# Seconds a run may spend after the build; a vmbench process still
# running then is killed and its repetition counts as failed.
RUN_LIMIT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure and build vmbench; returns the binary's path."""
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
        steps.append(["cmake", "--build", bdir, "-j", jobs])
        for cmd in steps:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if p.returncode != 0:
                log(p.stdout[-4000:])
                log("run.py: build failed:", " ".join(cmd))
                sys.exit(3)
    return os.path.join(bdir, "vmbench")


def provenance(args, build_info, reps):
    def git_rev():
        if not os.path.exists(os.path.join(ROOT, ".git")):
            return "none (not a git checkout)"
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        return p.stdout.strip() or "unknown"

    def source_digest():
        h = hashlib.sha256()
        for top in ("src", "perfbench"):
            for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
                dirnames.sort()
                for f in sorted(files):
                    path = os.path.join(dirpath, f)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
        return h.hexdigest()[:16]

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_revision": git_rev(),
        "source_sha256_16": source_digest(),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "repetitions": reps,
    }


def reference_digest(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS) as f:
        return json.load(f)[workload]


def output_digest(out_dir):
    """SHA-256 of the sweep CSV and of every cell's serialized Results."""
    digest = {}
    for key, name in (("csv", "sweep.csv"), ("results", "results.jsonl")):
        with open(os.path.join(out_dir, name), "rb") as f:
            digest[key] = hashlib.sha256(f.read()).hexdigest()
    return digest


def run_child(cmd, deadline):
    """Run one vmbench process, killed at time.monotonic() @p deadline;
    returns (exit code, parsed JSON or None)."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("run.py: %s killed after the %d s run limit" % (cmd[1],
                                                            RUN_LIMIT_S))
        return "timeout", None
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return p.returncode, None


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(binary, args, out_dir, ref):
    """Repeat the untraced sweep until args.seconds have passed.

    Returns (metrics, attempted, failed, repetitions, first repetition).
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reps, digests = [], []
    attempted = failed = 0
    cells_known = 1
    while ((len(reps) < MIN_REPS or time.monotonic() - start < args.seconds)
           and time.monotonic() < deadline):
        t0 = time.monotonic_ns()
        code, rep = run_child([binary, "sweep", "--workload", args.workload,
                               "--seed", str(args.seed), "--out", out_dir,
                               "--t0-ns", str(t0)], deadline)
        if rep is None:
            log("run.py: repetition %d crashed (exit %s)"
                % (len(reps), code))
            attempted += cells_known
            failed += cells_known
            reps.append(None)
            continue
        cells_known = rep["cells"]
        digest = output_digest(out_dir)
        bad = rep["failed"] + rep["audit_failed"]
        if (ref is not None and digest != ref) or (digests and
                                                  digest != digests[0]):
            log("run.py: sweep CSV digest mismatch on repetition %d: %s"
                % (len(reps), digest))
            bad = rep["cells"]
        digests.append(digest)
        attempted += rep["cells"]
        failed += bad
        reps.append(rep)
    ok = [r for r in reps if r is not None]
    if not ok:
        return {}, attempted, failed, reps, {}
    cells = [c for r in ok for c in r["cell_ms"]]
    walls = [r["wall_s"] for r in ok]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "sim_minstr_per_s": (statistics.median(
            r["sim_instrs"] / r["wall_s"] / 1e6 for r in ok), "Minstr/s"),
        "cell_p50_ms": (statistics.median(cells), "ms"),
        "cell_p90_ms": (quantile(cells, 90), "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in ok), "s"),
        "peak_rss_mb": (statistics.median(
            r["peak_rss_kb"] / 1024 for r in ok), "MB"),
        "cells_ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    log("run.py: %d repetitions, %d cells timed (%d beyond p90), "
        "wall_s spread %.4f..%.4f" % (len(ok), len(cells),
                                      sum(c > metrics["cell_p90_ms"][0]
                                          for c in cells),
                                      min(walls), max(walls)))
    return metrics, attempted, failed, reps, ok[0]


def traced(binary, args, out_dir, ref):
    """One traced run; returns (metrics, attempted, failed, raw).

    The traced run executes the sweep four times (parallel, serial twice,
    re-enacted); all four must produce the same output.
    """
    code, res = run_child([binary, "trace", "--workload", args.workload,
                           "--seed", str(args.seed), "--out", out_dir],
                          time.monotonic() + RUN_LIMIT_S)
    if res is None:
        log("run.py: traced run crashed (exit %s)" % code)
        return {}, 1, 1, {}
    cells = res["cells"]
    failed = res["failed"] + res["audit_failed"]
    digest = output_digest(out_dir)
    if not res["outputs_equal"] or (ref is not None and digest != ref):
        log("run.py: sweep CSV digest mismatch: %s" % digest)
        failed = cells
    metrics = {k: (v["value"], v["unit"]) for k, v in res["metrics"].items()}
    print("%-34s %14s  %-8s %s" % ("per-layer metric", "value", "unit",
                                    "base / source"))
    for name, v in res["metrics"].items():
        print("%-34s %14.6g  %-8s %s" % (name, v["value"], v["unit"],
                                          v.get("note", "")))
    wall = res["wall_traced_s"]
    print("\nledger of the traced sweep (%.4f s traced, %.4f s untraced)"
          % (wall, res["wall_untraced_s"]))
    for name, s in res["ledger"]:
        print("  %-30s %9.4f s  %6.1f%%" % (name, s, 100 * s / wall))
    cov = res["metrics"]["ledger.coverage"]["value"]
    print("  %-30s %9.4f s  %6.1f%%" % ("unexplained", wall * (1 - cov),
                                       100 * (1 - cov)))
    if abs(1 - cov) > 0.10:
        print("WARNING: the layers %s %.1f%% of the traced wall time"
              % ("leave unexplained" if cov < 1 else "over-explain by",
                 100 * abs(1 - cov)))
    print("span log:", os.path.join(out_dir, "spans.json"))
    return metrics, cells * 4, failed, res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r (one of %s)"
                 % (args.workload, ", ".join(WORKLOADS)))
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    bdir = build_dir()
    binary = build(bdir)
    out_dir = os.path.join(bdir, "out", "%s-seed%d-trace%d"
                           % (args.workload, args.seed, args.trace))
    ref = reference_digest(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed, raw = traced(binary, args, out_dir, ref)
        reps = 1
    else:
        metrics, attempted, failed, rows, raw = measure(binary, args,
                                                        out_dir, ref)
        reps = len(rows)
        print("%-20s %14s  %s" % ("end-to-end metric", "median", "unit"))
        for name, (value, unit) in metrics.items():
            print("%-20s %14.6g  %s" % (name, value, unit))
    prov = provenance(args, raw, reps)
    print("provenance:", json.dumps(prov, sort_keys=True))
    correct = failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    with open(os.path.join(bdir, "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump(dict(result, provenance=prov), f, indent=2)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
