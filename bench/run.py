"""Run one workload of the padicdyn benchmark and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the library is imported from ./src.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
each metric by name with its unit.

With ``--trace 0`` the metrics are the end-to-end ones: operations per
second of timed wall time, the median operation time, the set-up time
(import, input generation and one warm-up operation; median of five
set-ups, three before the timed rounds and two after them) and the
process's peak resident memory over the timed rounds.

With ``--trace 1`` untraced and traced rounds alternate; the metrics are
the per-layer ones, as means per traced round, plus the tracing
overhead.  The spans are written to bench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "padicdyn"
# set-ups before and after the timed rounds; setup_s is their median, so
# it samples the machine at both ends of the run
SETUPS_BEFORE, SETUPS_AFTER = 3, 2

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

END_TO_END_UNITS = {"ops_per_s": "op/s", "op_p50_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def fresh_import():
    """Import the library from source as a first import would."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lib = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return lib


class Runner:
    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.rejected = []
        self.times_ns = []
        self.by_op = {}

    def run_op(self, op):
        """One timed operation; garbage is collected before the clock
        starts and the check runs after it stops."""
        gc.collect()
        self.attempted += 1
        t0 = perf_counter_ns()
        try:
            result = op.run()
        except Exception:  # noqa: BLE001 - a raising operation is a counted failure
            t1 = perf_counter_ns()
            self.failed += 1
            if self.failed <= 3:
                print(f"operation {op.cls} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            self.times_ns.append(t1 - t0)
            return
        t1 = perf_counter_ns()
        self.times_ns.append(t1 - t0)
        self.by_op.setdefault(id(op), (op.cls, []))[1].append(t1 - t0)
        reason = op.check(result)
        if reason is not None:
            self.failed += 1
            self.rejected.append(f"{op.cls}: {reason}")
            if len(self.rejected) <= 3:
                print(f"check rejected {op.cls}: {reason}", file=sys.stderr)

    def op_p50_ns(self):
        """Median over the round's operations of each one's median time
        across rounds.  Each operation repeats its inputs every round, so
        its own median is steady, and the median over operations then
        does not jump between classes of different length."""
        return statistics.median(statistics.median(times) for _, times in self.by_op.values())

    def run_round(self):
        """All operations of the round; returns its timed nanoseconds."""
        before = len(self.times_ns)
        for op in self.ops:
            self.run_op(op)
        return sum(self.times_ns[before:])


def set_up(name, seed):
    """Import, build the inputs and run one warm-up operation; returns
    (seconds, lib, ops).  The warm-up result is checked like any other."""
    t0 = perf_counter_ns()
    lib = fresh_import()
    ops = workloads.WORKLOADS[name](lib, seed, str(OUT))
    warm = Runner(ops)
    warm.run_op(ops[0])
    seconds = (perf_counter_ns() - t0) / 1e9
    if warm.failed:
        raise RuntimeError(f"warm-up operation failed: {warm.rejected}")
    return seconds, lib, ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no library source at {SRC / PACKAGE}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    setups = []
    for _ in range(SETUPS_BEFORE):
        seconds, lib, ops = set_up(args.workload, args.seed)
        setups.append(seconds)

    runner = Runner(ops)
    budget_ns = args.seconds * 1e9
    if args.trace:
        metrics = traced(runner, lib, budget_ns, args)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        spent = 0
        while spent < budget_ns:
            spent += runner.run_round()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups += [set_up(args.workload, args.seed)[0] for _ in range(SETUPS_AFTER)]
        metrics = {
            "ops_per_s": len(runner.times_ns) / (sum(runner.times_ns) / 1e9),
            "op_p50_ms": runner.op_p50_ns() / 1e6,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    for path in OUT.glob(f"*-{os.getpid()}.json"):
        path.unlink()

    report = {}
    for name, unit in units.items():
        value = metrics.get(name, 0.0)
        report[name] = {"value": value, "unit": unit}
        print(f"{args.workload:8s} {name:40s} {value:14.4f} {unit}")
    by_class = {}
    for cls, times in runner.by_op.values():
        by_class.setdefault(cls, []).extend(times)
    for cls, times in by_class.items():
        print(f"{args.workload:8s} class {cls:34s} {statistics.median(times) / 1e6:14.4f} ms "
              f"median of {len(times)}")
    print(f"{args.workload:8s} attempted {runner.attempted}  failed {runner.failed}")
    print(json.dumps({"correct": not runner.rejected, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": report}))
    return 0


def traced(runner, lib, budget_ns, args):
    """Alternate untraced and traced rounds; per-layer means per traced
    round plus the overhead of tracing."""
    tracer = Tracer(lib)
    plain_ns = traced_ns = 0
    rounds = 0
    while plain_ns + traced_ns < budget_ns:
        plain_ns += runner.run_round()
        tracer.install()
        try:
            traced_ns += runner.run_round()
        finally:
            tracer.remove()
        rounds += 1
    metrics = tracer.layer_metrics(rounds)
    metrics["trace.overhead_pct"] = 100.0 * (traced_ns / plain_ns - 1.0)
    metrics["src.lines"] = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (SRC / PACKAGE).rglob("*.py"))
    tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                 "plain_ms": plain_ns / 1e6, "traced_ms": traced_ns / 1e6})
    return metrics


if __name__ == "__main__":
    sys.exit(main())
