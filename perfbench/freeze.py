"""Write expected.json from the program as it is now.

    python3 perfbench/freeze.py

Run from the root of a checkout. The frozen values are the reference every
later benchmark run is checked against, so re-freeze only when a change of
output is intended and explained; the maximum ranges must stay at the
values the test suite freezes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import checks
from workloads import MonteCarloValidate, RangeLimit, RateFigures


def main() -> None:
    scratch = Path.cwd() / ".bench_run"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="freeze-", dir=scratch) as out_dir:
        tables = RateFigures().run_pass(out_dir, 0, 0)
        distances, ratios = RangeLimit().run_pass(out_dir, 0, 0)
        report = MonteCarloValidate().run_pass(out_dir, 0, 0)
    # the theoretical std of each (distance, estimator), from the report
    theory = {checks.mc_key(d, estimator): float(expected)
              for check, d, estimator, _, expected, *_ in report
              if check == "std_ratio"}
    expected = {
        "tables": {name: [checks.row_digest(r) for r in rows]
                   for name, rows in tables.items()},
        "maximum_distance": {str(N): d for N, d in distances.items()},
        "range_limit_ratio": ratios,
        "theoretical_std": theory,
    }
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
