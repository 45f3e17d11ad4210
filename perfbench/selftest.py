#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  1. a one-second run of every workload, untraced and traced, is correct
     and prints every metric BENCHMARK.json names, with its unit;
  2. a run against a deliberately altered reference digest fails its
     output check (every cell counts as failed);
  3. a run at a seed other than the default passes the invariant audit
     and the cross-repetition digest equality;
  4. in a directory holding only BENCHMARK.json and the benchmark, the
     command exits non-zero without printing a result.

Exit status 0 when every check passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark itself: its build dir and seed)

FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def bench(args, cwd=ROOT, env=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = subprocess.run(spec["command"] + args, cwd=cwd, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    last = p.stdout.strip().splitlines()[-1:] or [""]
    try:
        result = json.loads(last[0])
    except ValueError:
        result = None
    return p.returncode, result, p.stderr


def names_units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = names_units(spec["end_to_end"])
    layers = names_units(spec["per_layer"])
    seed = str(run.DEFAULT_SEED)

    for w in spec["workloads"]:
        for trace, want in (("0", e2e), ("1", layers)):
            code, res, err = bench(["--workload", w["name"], "--seed", seed,
                                    "--seconds", "1", "--trace", trace])
            what = "%s --trace %s" % (w["name"], trace)
            check(code == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and res["attempted"] > 0,
                  what + ": correct" + ("" if code == 0 else "\n" + err))
            got = {k: v["unit"] for k, v in (res or {}).get(
                "metrics", {}).items()}
            check(got == want, what + ": prints every metric with its unit")

    # An altered reference digest must fail the output check.
    name = spec["workloads"][0]["name"]
    binary = run.build(run.build_dir())
    altered = dict(run.reference_digest(name, run.DEFAULT_SEED),
                   csv="0" * 64)
    _, attempted, failed, _, _ = run.measure(
        binary, argparse.Namespace(workload=name, seed=run.DEFAULT_SEED,
                                   seconds=1),
        os.path.join(run.build_dir(), "out", "selftest-altered"), altered)
    check(failed > 0 and failed == attempted,
          "altered digest fails the output check")

    # A held-out seed: no reference digest, so correctness rests on the
    # invariant audit and on identical output across repetitions.
    for trace in ("0", "1"):
        code, res, _ = bench(["--workload", name, "--seed", "7919",
                              "--seconds", "1", "--trace", trace])
        check(code == 0 and res is not None and res["correct"],
              "held-out seed 7919 --trace %s passes its checks" % trace)

    # Without the repository's sources the benchmark cannot build.
    bare = os.path.join(run.build_dir(), "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    code, res, _ = bench(["--workload", name, "--seed", seed, "--seconds",
                          "1", "--trace", "0"], cwd=bare, env=env)
    check(code != 0 and res is None,
          "without src/ the command fails and prints no result")
    shutil.rmtree(bare)

    print("%d check(s) failed" % len(FAILURES) if FAILURES
          else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
