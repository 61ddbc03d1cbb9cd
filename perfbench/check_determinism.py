#!/usr/bin/env python3
"""Determinism self-check for perfbench.

Runs every workload twice with one seed and once with the next seed, from
the repository root:

    python3 perfbench/check_determinism.py [--seed N] [--seconds S]

Two runs with the same seed must generate byte-identical sources (the
`corpus_digest` of the host line) and report identical counts: `code_instrs`
untraced, and `mono.method_instances`, `fuse.instrs_out`, `tier.ups`,
`gc.minor` and `gc.major` traced. The next seed must change the sources.
Exits 1 on the first difference.
"""

import argparse
import json
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--"]
WORKLOADS = ["cold_build", "edit_serve", "run_tiered"]
TRACED_COUNTS = ["mono.method_instances", "fuse.instrs_out", "tier.ups",
                 "gc.minor", "gc.major"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    host, result = out.stdout.strip().splitlines()[-2:]
    result = json.loads(result)
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: incorrect run")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return json.loads(host)["host"]["corpus_digest"], metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    for w in WORKLOADS:
        checks = [(0, ["code_instrs"]), (1, TRACED_COUNTS)]
        digests = set()
        for trace, names in checks:
            (d1, m1), (d2, m2) = (run(w, args.seed, args.seconds, trace) for _ in range(2))
            digests |= {d1, d2}
            for name in names:
                if m1[name] != m2[name]:
                    sys.exit(f"{w}: {name} differs between runs: {m1[name]} vs {m2[name]}")
                print(f"{w}: {name} = {m1[name]} in both runs")
        if len(digests) != 1:
            sys.exit(f"{w}: the same seed gave different sources: {sorted(digests)}")
        other, _ = run(w, args.seed + 1, args.seconds, 0)
        if other in digests:
            sys.exit(f"{w}: seeds {args.seed} and {args.seed + 1} gave the same sources")
        print(f"{w}: sources {digests.pop()} repeat; seed {args.seed + 1} gives {other}")


if __name__ == "__main__":
    main()
