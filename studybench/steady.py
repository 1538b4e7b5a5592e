#!/usr/bin/env python3
"""Steadiness check for the study-grid benchmark.

    python3 studybench/steady.py run --workload grid_pruned --runs 10 \
        --first-seed 1 --out set-a.json
    python3 studybench/steady.py compare set-a.json set-b.json

`run` executes the command of BENCHMARK.json (or, with --bin, an already
built studybench executable, e.g. one per commit under comparison) once
per seed, seeds first-seed .. first-seed+runs-1, with the file's
run_seconds, from the repository root, discarding standard error. It
prints each run's end-to-end metrics, then the median, quartiles and
quartile spread (q3 - q1) / median of every metric against its bound, and
saves the set.

`compare` checks two saved sets of one workload against the bounds: each
metric's spread within its bound in both sets, the two medians within the
bound of each other in either direction, and the same share of failed
cells. With --regression the first set is the parent and the second the
change, and only a second median worse than the first by more than the
bound fails. It exits 1 when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(runs, metrics):
    rows = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, q2, q3 = quartiles(values)
        rows[m["name"]] = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}
    return rows


def print_summary(rows, metrics):
    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for m in metrics:
        r = rows[m["name"]]
        print(
            f"{m['name']:16s} {r['median']:12.6g} {r['q1']:12.6g} {r['q3']:12.6g} "
            f"{r['spread']:8.4f} {m['bound']:6.3f}"
        )


def run(args):
    spec = bench()
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = ([args.bin] if args.bin else spec["command"]) + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(lines[-1])
        result["seed"] = seed
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
    print_summary(summary(runs, spec["end_to_end"]), spec["end_to_end"])
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs}, indent=1))


def compare(args):
    spec = bench()
    metrics = spec["end_to_end"]
    sets = [json.loads(Path(p).read_text()) for p in (args.first, args.second)]
    if sets[0]["workload"] != sets[1]["workload"]:
        sys.exit("the two sets ran different workloads")
    rows = [summary(s["runs"], metrics) for s in sets]
    ok = True
    for label, r in zip(("first", "second"), rows):
        print(f"{label} set ({sets[0]['workload']}):")
        print_summary(r, metrics)
    for m in metrics:
        name, bound = m["name"], m["bound"]
        for label, r in zip(("first", "second"), rows):
            if r[name]["spread"] > bound:
                print(f"FAIL {name}: {label} set spreads {r[name]['spread']:.4f} > {bound}")
                ok = False
        a, b = rows[0][name]["median"], rows[1][name]["median"]
        if args.regression:
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            if worse > bound:
                print(f"FAIL {name}: second median is {worse:.4f} worse than the first "
                      f"(bound {bound})")
                ok = False
        elif abs(b - a) / a > bound:
            print(f"FAIL {name}: the medians differ by {abs(b - a) / a:.4f} (bound {bound})")
            ok = False
    shares = [
        sum(r["failed"] for r in s["runs"]) / sum(r["attempted"] for r in s["runs"]) for s in sets
    ]
    if shares[0] != shares[1]:
        print(f"FAIL failed share differs: {shares[0]} vs {shares[1]}")
        ok = False
    print("steady" if ok else "not steady")
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run one workload once per seed")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--out")
    r.add_argument("--bin", help="run this built executable instead of the cargo command")
    c = sub.add_parser("compare", help="compare two saved sets against the bounds")
    c.add_argument("first")
    c.add_argument("second")
    c.add_argument("--regression", action="store_true",
                   help="first set is the parent: fail only where the second is worse")
    args = parser.parse_args()
    if args.cmd == "run":
        run(args)
    else:
        compare(args)


if __name__ == "__main__":
    main()
