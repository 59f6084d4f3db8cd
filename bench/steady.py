"""Steadiness of the end-to-end metrics across seeds.

    python3 bench/steady.py --runs 10 [--workloads certify,float] [--compare FILE]

Runs bench/run.py once per seed (seeds first-seed .. first-seed+runs-1),
one process after another, and prints for every end-to-end metric its
median, quartiles and spread, the distance between the quartiles as a
share of the median, next to the bound in BENCHMARK.json.  A spread
below a third of its bound is marked steady.  The runs are saved to
bench/out/steady-<workload>.json; --compare takes such a file (with
{workload} in its name standing for each workload) and prints how far
this set's medians moved from it, in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--compare", help="earlier steady-{workload}.json to compare medians with")
    args = parser.parse_args()

    metrics = spec["end_to_end"]
    (HERE / "out").mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, 0)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        (HERE / "out" / f"steady-{workload}.json").write_text(json.dumps(results) + "\n")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {args.runs} runs, failed share {sorted(shares)}, "
              f"all correct {all(r['correct'] for r in results)}")
        earlier = None
        if args.compare:
            path = Path(args.compare.format(workload=workload))
            earlier = json.loads(path.read_text(encoding="utf-8"))
        for m in metrics:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, spread = summary(values)
            mark = "steady" if spread < m["bound"] / 3 else "WIDE"
            line = (f"  {name:12s} median {med:10.4f} {m['unit']:5s} q1 {q1:10.4f} "
                    f"q3 {q3:10.4f} spread {100 * spread:5.2f}% "
                    f"bound {100 * m['bound']:.0f}% {mark}")
            if earlier is not None:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier)
                worse = (before - med) / before if m["better"] == "higher" else (med - before) / before
                line += f"  worse by {100 * worse:+.2f}% vs earlier"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
