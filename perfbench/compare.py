#!/usr/bin/env python3
"""Summarises or compares benchmark results; refuses unlike runs.

    python3 perfbench/compare.py RESULT.json ...
    python3 perfbench/compare.py BASE.json ... --against CHANGE.json ...

Result files are the ones run.py leaves under <build dir>/results/. With one
set, prints each metric's median and spread (quartile distance over median)
next to the metric's bound from BENCHMARK.json; the runs must share every
fingerprint field but the workload seed. With two sets, every base run is
paired with the change run of identical fingerprint, seed included, and each
end-to-end metric is judged on the median over pairs of change / base.
Run the pairs back to back, alternating which side goes first (base seed 1,
change seed 1, change seed 2, base seed 2, ...): a slow period of the host
then slows both runs of a pair and cancels in their ratio, where a median
of one set against a median of a set run at another time would read it as
a regression or a gain. Exit code: 0 fine,
1 a metric worsened beyond its bound, 2 refused (fingerprints differ).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    runs = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        runs.append((path, data["fingerprint"], data["result"]))
    return runs


def refuse(message):
    print(f"compare: refused: {message}", file=sys.stderr)
    sys.exit(2)


def without_seed(fingerprint):
    return {k: v for k, v in fingerprint.items() if k != "workload_seed"}


def check_alike(runs):
    first_path, first, _ = runs[0]
    for path, fingerprint, _ in runs[1:]:
        if without_seed(fingerprint) != without_seed(first):
            diff = sorted(k for k in set(first) | set(fingerprint)
                          if k != "workload_seed"
                          and first.get(k) != fingerprint.get(k))
            refuse(f"{path} and {first_path} differ in {diff}")


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def metric_table(runs):
    names = list(runs[0][2]["metrics"])
    return {n: [r[2]["metrics"][n]["value"] for r in runs] for n in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    args = parser.parse_args()

    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base = load(args.base)
    check_alike(base)
    base_values = metric_table(base)

    if not args.against:
        print(f"{len(base)} runs of {base[0][1]['workload']}")
        for name, values in base_values.items():
            median, width = spread(values)
            bound = bounds.get(name, {}).get("bound")
            verdict = ""
            if bound is not None:
                verdict = "within bound" if width <= bound else "WIDER THAN BOUND"
                verdict = f"bound {bound:.2f} {verdict}"
            print(f"{name:34s} median {median:14.6g} spread {width:7.4f} "
                  f"{verdict}")
        return 0

    change = load(args.against)
    check_alike(change)
    key = lambda fingerprint: json.dumps(fingerprint, sort_keys=True)
    by_fingerprint = {key(c[1]): c for c in change}
    if len(by_fingerprint) != len(change) or len(change) != len(base):
        refuse("each base run needs exactly one change run")
    pairs = []
    for path, fingerprint, result in base:
        if key(fingerprint) not in by_fingerprint:
            refuse(f"no change run with the fingerprint of {path}")
        pairs.append((result, by_fingerprint[key(fingerprint)][2]))

    worst = 0
    for name, values in base_values.items():
        base_median, base_width = spread(values)
        ratios = [c["metrics"][name]["value"] / b["metrics"][name]["value"]
                  for b, c in pairs if b["metrics"][name]["value"]]
        if not ratios:
            print(f"{name:34s} base {base_median:14.6g} (zero: not compared)")
            continue
        ratio = statistics.median(ratios)
        line = (f"{name:34s} base {base_median:14.6g} "
                f"paired change/base {ratio:8.4f}")
        metric = bounds.get(name)
        if metric is not None:
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            if worse > metric["bound"]:
                line += f"  WORSE by {worse:.3f} > bound {metric['bound']}"
                worst = 1
            elif base_width > metric["bound"]:
                line += "  unresolved: base spread wider than bound"
            else:
                line += "  within bound"
        print(line)
    return worst


if __name__ == "__main__":
    sys.exit(main())
