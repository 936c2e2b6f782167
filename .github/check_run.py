"""Judge CLI runs from the CSV files they wrote, at full precision.

    python .github/check_run.py ks FILE...     every KS statistic below 1.95/sqrt(n)
    python .github/check_run.py ratio FILE...  coarse/fine max_norm and l2_norm in [3.5, 4.5]

`ks` reads an `equivariance` CSV, taking n from its `n` column; `ratio` reads
a `continuity` CSV by its `level` column. Each file's verdict is printed, and
the exit status is 1 if any file fails.
"""

import csv
import math
import sys


def ks(rows) -> tuple[bool, str]:
    worst = max(rows, key=lambda row: float(row["ks"]))
    passed = all(float(row["ks"]) < 1.95 / math.sqrt(int(row["n"])) for row in rows)
    return passed, f"max KS {worst['ks']} at n = {worst['n']}, noise level 1.95/sqrt(n)"


def ratio(rows) -> tuple[bool, str]:
    levels = {row["level"]: row for row in rows}
    ratios = {
        key: float(levels["coarse"][key]) / float(levels["fine"][key])
        for key in ("max_norm", "l2_norm")
    }
    passed = all(3.5 <= value <= 4.5 for value in ratios.values())
    return passed, ", ".join(f"{key} ratio {value!r}" for key, value in ratios.items())


def main(argv) -> int:
    rules = {"ks": ks, "ratio": ratio}
    if len(argv) < 2 or argv[0] not in rules:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        with open(path, newline="") as handle:
            passed, verdict = rules[argv[0]](list(csv.DictReader(handle)))
        print(f"{path}: {verdict}: {'ok' if passed else 'FAILED'}")
        failed |= not passed
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
