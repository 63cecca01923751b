#!/usr/bin/env python3
"""Compare two saved perfbench outputs metric by metric.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file is the standard output of one perfbench run. The comparison is
refused (exit 1) when the host fingerprints differ, or when the two runs
used different workloads or trace settings: numbers are only comparable
when measured the same way on the same host.
"""

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        objs = [json.loads(l) for l in f.read().splitlines() if l.startswith("{")]
    heads = [o for o in objs if "fingerprint" in o]
    if not heads or "metrics" not in objs[-1]:
        sys.exit(f"{path}: not a perfbench output")
    return heads[-1], objs[-1]


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    (head_a, res_a), (head_b, res_b) = load(argv[1]), load(argv[2])
    if head_a["fingerprint"] != head_b["fingerprint"]:
        print("refusing to compare: host fingerprints differ", file=sys.stderr)
        print(f"  {argv[1]}: {head_a['fingerprint']}", file=sys.stderr)
        print(f"  {argv[2]}: {head_b['fingerprint']}", file=sys.stderr)
        return 1
    for key in ("workload", "trace"):
        if head_a[key] != head_b[key]:
            print(f"refusing to compare: {key} differs", file=sys.stderr)
            return 1
    print(
        f"{head_a['workload']}: {head_a['commit']} seed {head_a['seed']}"
        f" -> {head_b['commit']} seed {head_b['seed']}"
    )
    for name, a in res_a["metrics"].items():
        b = res_b["metrics"].get(name)
        if b is None:
            print(f"{name:24} only in {argv[1]}")
            continue
        change = f"{b['value'] / a['value'] - 1:+.2%}" if a["value"] else "n/a"
        print(f"{name:24} {a['value']:>16.6g} {b['value']:>16.6g} {a['unit']:>9} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
