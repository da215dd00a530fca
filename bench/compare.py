"""Compare two result records written by ``run.py --save``.

    python3 bench/compare.py BASE.json NEW.json

Prints, per metric, both values and NEW/BASE.  A comparison across differing
machine info (nproc, CPU, Python, numpy) or across workloads is flagged on
its first lines, because such numbers are not comparable.
"""

from __future__ import annotations

import json
import sys


def compare(base: dict, new: dict) -> list[str]:
    lines = []
    for key in sorted(set(base["machine"]) | set(new["machine"])):
        a, b = base["machine"].get(key), new["machine"].get(key)
        if a != b:
            lines.append(f"WARNING: machine info differs: {key}: {a!r} vs {b!r}")
    for key in ("workload", "trace", "seconds"):
        if base[key] != new[key]:
            lines.append(f"WARNING: {key} differs: {base[key]!r} vs {new[key]!r}")
    lines.append(f"# {base['workload']}: seeds {base['seed']} -> {new['seed']}")
    both = {**base["metrics"], **base["extra"]}
    other = {**new["metrics"], **new["extra"]}
    for name, (value, unit) in both.items():
        if name in other:
            ratio = other[name][0] / value if value else float("nan")
            lines.append(f"{name:34s} {value:16.6f} {other[name][0]:16.6f} {unit:6s} x{ratio:.4f}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(path).read()) for path in argv)
    print("\n".join(compare(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
