#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload <name> --seeds 1,2,3,4,5 [--trace 1]

Runs perfbench/run.py once per seed with BENCHMARK.json's run_seconds, checks
each result line against BENCHMARK.json (every metric present with its unit,
correct, no failed operation), and prints for each metric the median, the
quartiles as statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median next to the metric's bound. A spread under a third of
the bound is steady. The median and tail operation times, which each record
holds but the result line does not gate, are listed after them. Exits 1
when a run fails or a spread exceeds its bound.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDED = ("op_ms_p50", "op_ms_tail")  # in the record, not gated


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or not {"--workload", "--seeds"} <= set(args) or \
            not set(args) <= {"--workload", "--seeds", "--trace"}:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = args.get("--trace", "0")
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    seeds = args["--seeds"].split(",")
    values = {m["name"]: [] for m in declared}
    recorded = {name: [] for name in RECORDED}
    ok = True
    for seed in seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", args["--workload"], "--seed", seed,
               "--seconds", str(spec["run_seconds"]), "--trace", trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"] != 0:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
            ok = False
        got = result["metrics"]
        if set(got) != set(values):
            print(f"seed {seed}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(got) ^ set(values))}")
            return 1
        for m in declared:
            if got[m["name"]]["unit"] != m["unit"]:
                print(f"seed {seed}: {m['name']} unit {got[m['name']]['unit']}")
                return 1
            values[m["name"]].append(got[m["name"]]["value"])
        record = json.loads((ROOT / ".bench_build" / "out" /
                             f"{args['--workload']}-seed{seed}-trace{trace}.json")
                            .read_text())
        for name in RECORDED:
            recorded[name].append(record[name])
        print(f"seed {seed}: " + " ".join(
            f"{m['name']}={got[m['name']]['value']:.6g}" for m in declared[:8]),
            flush=True)
    print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s} {'bound':>6s}")
    rows = [(m, values[m["name"]]) for m in declared] + \
        [({"name": name}, recorded[name]) for name in RECORDED]
    for m, v in rows:
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = m.get("bound")
        verdict = "not gated" if m["name"] in RECORDED else ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else (
                "within" if spread <= bound else "TOO WIDE")
            ok = ok and spread <= bound
        print(f"{m['name']:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
