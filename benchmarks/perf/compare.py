"""Compare result files written by ``run.py --out``.

    python benchmarks/perf/compare.py A.json B.json [A2.json B2.json ...]

``A`` is the base (parent commit), ``B`` the change.  One row per workload
x end-to-end metric: both medians with their quartiles, the ratio B/A, and
a verdict against the bound ``BENCHMARK.json`` fixes for the metric:

* ``unresolved`` -- a calibration guard tripped, or the run-to-run spread
  is wider than the bound and the two sides' runs overlap;
* ``regressed``  -- the change's median is worse by more than the bound;
* ``improved``   -- better by more than the bound; with ten or more
  alternating pairs the rule is instead that the change wins nine tenths
  of the pairs and the medians differ by more than the base's own
  inter-quartile range;
* ``unchanged``  -- otherwise.

With one pair the samples are the timed reps inside each file; with
several pairs they are the files' medians.  Exit status is 1 on any
``regressed`` row or any rise in ``failed_frac``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json")


def _records(path: str) -> dict:
    """``workload -> untraced record`` of one result file."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    return {run["workload"]: run for run in runs if not run["trace"]}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, high


def verdict(base, change, better: str, bound: float, pairs) -> str:
    """Classify ``change`` against ``base`` (lists of samples)."""
    sign = 1.0 if better == "lower" else -1.0
    med_base, med_change = statistics.median(base), statistics.median(change)
    worse_by = sign * (med_change - med_base) / med_base
    (b_lo, b_hi), (c_lo, c_hi) = _quartiles(base), _quartiles(change)
    spread = max((b_hi - b_lo) / med_base, (c_hi - c_lo) / med_change)
    signed_base = [sign * v for v in base]
    signed_change = [sign * v for v in change]
    overlap = not (max(signed_change) < min(signed_base)
                   or min(signed_change) > max(signed_base))
    if spread > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if len(pairs) >= 10:
        wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
        gain = (wins >= 0.9 * len(pairs)
                and abs(med_change - med_base) > b_hi - b_lo)
    else:
        gain = worse_by < -bound
    return "improved" if gain else "unchanged"


def compare(pairs_of_paths, out=sys.stdout) -> int:
    with open(BENCHMARK_JSON) as handle:
        benchmark = json.load(handle)
    metrics = benchmark["end_to_end"]
    pairs = [(_records(a), _records(b)) for a, b in pairs_of_paths]
    status = 0
    print(f"{'workload':13s} {'metric':14s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B/A':>7s}  verdict", file=out)
    for workload in (w["name"] for w in benchmark["workloads"]):
        present = [(a[workload], b[workload]) for a, b in pairs
                   if workload in a and workload in b]
        if not present:
            continue
        # Pairs in which a calibration guard tripped carry no information.
        clean = [(a, b) for a, b in present
                 if not (a["noisy"] or b["noisy"])]
        for metric in metrics:
            name = metric["name"]
            rows = clean or present
            if len(rows) == 1:
                a, b = rows[0]
                base = a["samples"].get(name, [a["end_to_end"][name]["value"]])
                change = b["samples"].get(
                    name, [b["end_to_end"][name]["value"]])
                paired = []
            else:
                paired = [(a["end_to_end"][name]["value"],
                           b["end_to_end"][name]["value"]) for a, b in rows]
                base = [a for a, _ in paired]
                change = [b for _, b in paired]
            result = (verdict(base, change, metric["better"],
                              metric["bound"], paired)
                      if clean else "unresolved")
            if result == "regressed":
                status = 1
            med_a, med_b = statistics.median(base), statistics.median(change)
            (a_lo, a_hi), (b_lo, b_hi) = _quartiles(base), _quartiles(change)
            print(f"{workload:13s} {name:14s} "
                  f"{med_a:12.5g} [{a_lo:9.5g}, {a_hi:9.5g}] "
                  f"{med_b:12.5g} [{b_lo:9.5g}, {b_hi:9.5g}] "
                  f"{med_b / med_a:7.3f}  {result}"
                  f" ({metric['unit']}, base A, bound {metric['bound']})",
                  file=out)
        failed_a = statistics.mean(a["failed_frac"] for a, _ in present)
        failed_b = statistics.mean(b["failed_frac"] for _, b in present)
        rose = failed_b > failed_a
        if rose:
            status = 1
        print(f"{workload:13s} {'failed_frac':14s} {failed_a:34.6g} "
              f"{failed_b:34.6g} {'':7s}  "
              f"{'regressed' if rose else 'unchanged'} (fraction, bound 0)",
              file=out)
    return status


def main(argv=None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths or len(paths) % 2:
        sys.stderr.write(__doc__)
        return 2
    return compare(list(zip(paths[0::2], paths[1::2])))


if __name__ == "__main__":
    sys.exit(main())
