"""Self-test of the output checks: each must pass the program's real output
and reject an altered copy of it. Only the copies are altered.

    python3 perfbench/selftest.py

Run from the root of a checkout. The Monte Carlo budget is run_seconds of
BENCHMARK.json, so the pooled checks are tested at the trial count they see
in a benchmark run. Exit code 0 when every check behaves.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path.cwd() / "src"))

import checks
from workloads import MC_TRIALS, MonteCarloValidate, RangeLimit, RateFigures


def _failed(check, outputs) -> int:
    tally = checks.Tally()
    check(outputs, checks.load_expected(), tally)
    return tally.failed


def _alter_number(line: str) -> str:
    """The same CSV row with the last digit of its last cell changed."""
    last = max(i for i, ch in enumerate(line) if ch.isdigit())
    return line[:last] + str((int(line[last]) + 1) % 10) + line[last + 1:]


def _scale_std(reports, estimator: str, factor: float, distance=None):
    altered = copy.deepcopy(reports)
    for report in altered:
        for row in report:
            if (row[0] == "std_ratio" and row[2] == estimator
                    and (distance is None or float(row[1]) == distance)):
                row[3] = repr(float(row[3]) * factor)
    return altered


SEED = 1


def main() -> int:
    with open(Path.cwd() / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    scratch = Path.cwd() / ".bench_run"
    scratch.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    results = []  # (what, outcome is as required, detail)
    try:
        figures = RateFigures()
        tables = figures.run_pass(out_dir, SEED, 0)
        altered = copy.deepcopy(tables)
        altered["fig2"][10] = _alter_number(altered["fig2"][10])
        results.append(("rate_figures: real output passes",
                        _failed(figures.check, [tables]) == 0, ""))
        results.append(("rate_figures: one changed fig2 row is rejected",
                        _failed(figures.check, [altered]) == 1,
                        f"{tables['fig2'][10]!r} -> {altered['fig2'][10]!r}"))

        ranges = RangeLimit()
        distances, ratios = ranges.run_pass(out_dir, SEED, 0)
        shifted = dict(distances)
        shifted[10**5] += 1.0 / 16.0
        results.append(("range_limit: real output passes",
                        _failed(ranges.check, [(distances, ratios)]) == 0, ""))
        results.append(("range_limit: N=1e5 range + 1/16 km is rejected",
                        _failed(ranges.check, [(shifted, ratios)]) == 1,
                        f"{distances[10**5]} -> {shifted[10**5]} km"))
        nudged = copy.deepcopy(ratios)
        nudged[0]["rows"][-1][2] *= 1.0 + 1e-6
        results.append(("range_limit: one ratio-row rate x (1 + 1e-6) is "
                        "rejected",
                        _failed(ranges.check, [(distances, nudged)]) == 1, ""))
        results.append(("range_limit: a missing ratio result is rejected",
                        _failed(ranges.check, [(distances, ratios[:-1])]) == 1,
                        ""))

        mc = MonteCarloValidate()
        reports, start = [], perf_counter()
        while not reports or perf_counter() - start < seconds:
            reports.append(mc.run_pass(out_dir, SEED, len(reports)))
        trials = len(reports) * MC_TRIALS
        results.append((f"mc_validate: real output passes at {trials} trials",
                        _failed(mc.check, reports) == 0, ""))
        for estimator in ("sigma2_mle", "sigma2_opt", "vxi_hat"):
            for factor in (1.2, 0.8):
                n = _failed(mc.check, _scale_std(reports, estimator, factor))
                results.append((f"mc_validate: {estimator} std x {factor} at "
                                "every distance is rejected", n > 0,
                                f"{n} items failed"))
        # one row alone has twice the standard error of the distance mean;
        # reported, not required
        for factor in (1.2, 0.8):
            n = _failed(mc.check, _scale_std(reports, "sigma2_mle", factor,
                                             distance=100.0))
            print(f"[info] mc_validate: sigma2_mle std x {factor} at 100 km "
                  f"only: {n} items failed at {trials} trials")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for what, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}"
              + (f" ({detail})" if detail else ""))
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
