"""Compare two results files written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

For every workload and end-to-end metric it prints both medians, both
interquartile ranges and a verdict, with A as the baseline:

* ``unresolved``   A's own interquartile range is wider than the bound,
  so the runs cannot tell a change of that size from noise;
* ``worse``        B's median is worse than A's by more than the bound;
* ``better``       B's median is better than A's by more than the bound;
* ``within bound`` otherwise.

The exact values (output digest, ``me_rank_rho``, ``melreq_gain_pct``)
must be identical, and the per-layer metrics of the traced runs are
printed with their relative change.  Exits 1 if any verdict is
``worse``, any exact value differs or either file has a failed op.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def verdict(a: dict, b: dict) -> tuple[str, float]:
    """Verdict and signed change (positive = worse) of one metric."""
    bound = a["bound"]
    change = (b["median"] - a["median"]) / a["median"]
    if a["better"] == "higher":
        change = -change
    if (a["q3"] - a["q1"]) / a["median"] > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within bound", change


def _rel(a: float, b: float) -> str:
    if a == b:
        return "="
    if a == 0:
        return "new"
    return f"{(b - a) / abs(a):+.1%}"


def compare(a: dict, b: dict, out=sys.stdout) -> bool:
    """Print the comparison; True when nothing is worse, inexact or
    failed."""
    ok = True
    print(f"A: seed {a['seed']}, {a['runs']} runs x {a['seconds']} s, "
          f"python {a['python']}, {a['nproc']} CPUs", file=out)
    print(f"B: seed {b['seed']}, {b['runs']} runs x {b['seconds']} s, "
          f"python {b['python']}, {b['nproc']} CPUs", file=out)
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"\n{name}: missing from B", file=out)
            ok = False
            continue
        print(f"\n{name}  (error rate A {wa['error_rate']:.3g}, "
              f"B {wb['error_rate']:.3g})", file=out)
        ok = ok and wa["failed"] == 0 and wb["failed"] == 0
        print(f"  {'metric':<22} {'A median':>11} {'A q1..q3':>21} "
              f"{'B median':>11} {'B q1..q3':>21} {'change':>8} "
              f"{'bound':>6}  verdict", file=out)
        for metric, ma in wa["end_to_end"].items():
            mb = wb["end_to_end"][metric]
            v, change = verdict(ma, mb)
            ok = ok and v != "worse"
            print(f"  {metric:<22} {ma['median']:>11.4g} "
                  f"{ma['q1']:>10.4g}..{ma['q3']:<10.4g} {mb['median']:>11.4g} "
                  f"{mb['q1']:>10.4g}..{mb['q3']:<10.4g} {change:>+8.1%} "
                  f"{ma['bound']:>6.0%}  {v}", file=out)
        for key, va in wa["exact"].items():
            vb = wb["exact"].get(key)
            same = va == vb
            ok = ok and same
            print(f"  exact {key:<16} {'identical' if same else 'DIFFERS'}"
                  f"{'' if same else f': {va} -> {vb}'}", file=out)
        print("  per layer (traced run):", file=out)
        for metric, la in wa["per_layer"].items():
            lb = wb["per_layer"].get(metric, {}).get("value")
            if lb is None:
                continue
            print(f"    {metric:<30} {la['value']:>12.5g} {lb:>12.5g} "
                  f"{_rel(la['value'], lb):>8} {la['unit']}", file=out)
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    ap.add_argument("a", type=Path, help="baseline results file")
    ap.add_argument("b", type=Path, help="results file to judge")
    args = ap.parse_args(argv)
    a = json.loads(args.a.read_text())
    b = json.loads(args.b.read_text())
    return 0 if compare(a, b) else 1


if __name__ == "__main__":
    sys.exit(main())
