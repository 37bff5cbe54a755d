"""Write a BENCH_<pr>.json from alternating runs of the benchmark on two trees.

    python3 tools/bench_pairs.py PARENT CHANGE OUT.json \
        --pairs configs=10 claims=3 solve=3 [configs@1=4] [--seconds 40] [--traced]

PARENT and CHANGE are checkouts of the two commits (for example `git
archive` copies), each with its own `perfbench/run.py`, which must be the
same file. Neither may hold a bytecode cache (a `__pycache__` under
`src/`): `setup_s` times the source compilation of fresh imports, which a
cache skips, so one stray cache makes the other tree read several times
slower. The script refuses such trees with one line, and runs every child
with PYTHONDONTWRITEBYTECODE=1 so that it leaves none. A pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in one tree and then in the other, one run at a time, never two at once:
pair i runs the parent first when i is even. `W=N` asks for N pairs of
workload W at seed 0, stored under the key W; `W@S=N` asks for N pairs at
seed S, stored under `W_seedS`. `--traced` adds one `--trace 1` pair per
workload at its first seed, parent first.

The file holds the environment record of the first run, then per workload
`runs` (each pair's result lines as printed, and the raw medians from the
line before each) and `summary`: per end-to-end metric of
`BENCHMARK.json`, each side's median and quartiles (inclusive linear
interpolation), the pairs the change won (strictly better, as the metric's
`better` says; ties count for neither), the change's median relative to
the parent's, and the parent's interquartile range. `traced` holds each
traced pair's per-layer values side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(tree, workload, seed, seconds, trace=0):
    """One benchmark run in `tree`: (environment line, result line), as dicts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n{out.stderr}")
    env, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(env), json.loads(result)


def bytecode_caches(trees):
    """The `__pycache__` directories under each tree's `src/`, in order."""
    return [path for tree in trees for path in sorted(Path(tree, "src").rglob("__pycache__"))]


def run_pairs(trees, workload, seed, seconds, pairs):
    """`pairs` alternating pairs; returns (runs, environment of the first run)."""
    runs, first_env = [], None
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        entry = {"pair": i, "first": order[0], "raw_medians": {}}
        for side in order:
            env, result = run_once(trees[side], workload, seed, seconds)
            first_env = first_env or env["environment"]
            entry[side] = result
            entry["raw_medians"][side] = env["raw_medians"]
        runs.append(entry)
    return runs, first_env


def summarize(runs, better):
    """Per-metric summary of alternating pairs. `better` maps each metric
    name to "lower" or "higher"."""
    summary = {}
    for name, direction in better.items():
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in SIDES}
        quartiles = {side: np.percentile(values[side], [25, 50, 75]) for side in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = quartiles["parent"][1], quartiles["change"][1]
        summary[name] = {
            "unit": runs[0]["parent"]["metrics"][name]["unit"],
            **{side: {"median": float(q[1]), "q1": float(q[0]), "q3": float(q[2])}
               for side, q in quartiles.items()},
            "change_wins": int(wins),
            "pairs": len(runs),
            "median_change_rel": float((change - parent) / parent) if parent else 0.0,
            "parent_iqr": float(quartiles["parent"][2] - quartiles["parent"][0]),
        }
    return summary


def traced_pair(trees, workload, seed, seconds):
    """One `--trace 1` run per side, parent first: {metric: {parent, change, unit}}."""
    results = {side: run_once(trees[side], workload, seed, seconds, trace=1)[1]["metrics"]
               for side in SIDES}
    return {name: {"parent": metric["value"], "change": results["change"][name]["value"],
                   "unit": metric["unit"]}
            for name, metric in sorted(results["parent"].items())}


def parse_pairs(specs):
    """`W=N` or `W@S=N` -> [(key, workload, seed, N)]."""
    parsed = []
    for spec in specs:
        target, count = spec.split("=")
        workload, _, seed = target.partition("@")
        seed = int(seed or 0)
        parsed.append((workload if seed == 0 else f"{workload}_seed{seed}",
                       workload, seed, int(count)))
    return parsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--pairs", nargs="+", required=True, metavar="W[@S]=N")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    cached = bytecode_caches(trees.values())
    if cached:
        print(f"error: {cached[0]} is a bytecode cache, which skips the source compilation "
              f"that setup_s times; remove every __pycache__ under src/ of both trees",
              file=sys.stderr)
        return 2
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    doc = {"description": (
        f"Parent tree `{trees['parent'].name}` against change tree `{trees['change'].name}`, "
        "alternating pairs "
        f"per workload, each run `python3 perfbench/run.py --workload <w> --seed <s> "
        f"--seconds {args.seconds:g} --trace 0` in its own tree; pair i runs the parent "
        "first when i is even. `runs` holds each result line as printed, and `raw_medians` "
        "the line before it. Quartiles are inclusive linear-interpolation percentiles. "
        "End-to-end times are at the harness's reference speed; traced span times are raw."),
        "environment": None, "workloads": {}}
    pairs = parse_pairs(args.pairs)
    for key, workload, seed, count in pairs:
        runs, env = run_pairs(trees, workload, seed, args.seconds, count)
        doc["environment"] = doc["environment"] or env
        doc["workloads"][key] = {"summary": summarize(runs, better), "runs": runs}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if args.traced:
        doc["traced"] = {}
        first_seed = {}
        for _, workload, seed, _ in pairs:
            first_seed.setdefault(workload, seed)
        for workload, seed in first_seed.items():
            doc["traced"][f"{workload}_seed{seed}"] = traced_pair(trees, workload, seed,
                                                                  args.seconds)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
