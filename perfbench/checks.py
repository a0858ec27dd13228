"""Output checks. Each one takes a copy of what the program wrote or returned,
so the self-test can hand it an altered copy without touching the program.

Every check adds to a Tally: one attempted item per checked output (a table
row, a range search, a pooled Monte Carlo statistic) and one failed item per
item that does not match.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Pooled Monte Carlo checks reject beyond Z standard errors. A run makes
# 63 statistical checks; at Z = 5 each has a two-sided false-alarm chance of
# 5.7e-7, so 1000 runs raise a false alarm with probability below 4%.
Z = 5.0

# exact algebraic identities of the validate report (program constants)
IDENTITY_TOL = {"mm_equals_mle_full_set": 1e-10, "split_identity": 1e-12}

# columns of a range_limit_ratio row compared absolutely (km, fractions);
# the rest (rates, ratio) are compared relative to their frozen value
_ABS_COLUMNS = (0, 4, 5)
FROZEN_TOL = 1e-9


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def item(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def table_rows(path) -> list[str]:
    """Lines of a result CSV, without the '#' metadata lines."""
    with open(path, newline="") as fh:
        return [line.rstrip("\r\n") for line in fh if not line.startswith("#")]


def row_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def check_table(name: str, rows: list[str], expected: dict,
                tally: Tally) -> None:
    """Digest of each table row against the frozen digests."""
    want = expected["tables"][name]
    got = [row_digest(r) for r in rows]
    for i in range(max(len(want), len(got))):
        ok = i < len(want) and i < len(got) and want[i] == got[i]
        tally.item(ok, f"{name} row {i} differs from the frozen table")


def _close(got: float, want: float, absolute: bool) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    if absolute:
        return abs(got - want) <= FROZEN_TOL
    return abs(got - want) <= FROZEN_TOL * abs(want)


def check_ranges(distances: dict[int, float], ratios: list[dict],
                 expected: dict, tally: Tally) -> None:
    """Maximum ranges and range_limit_ratio results against frozen values."""
    for key, want in expected["maximum_distance"].items():
        got = distances.get(int(key), math.nan)
        tally.item(abs(got - want) <= FROZEN_TOL,
                   f"maximum range at N={key}: {got} km, frozen {want} km")
    frozen = expected["range_limit_ratio"]
    if len(ratios) != len(frozen):
        tally.item(False, f"{len(ratios)} range_limit_ratio results, "
                          f"frozen {len(frozen)}")
        return
    for got, want in zip(ratios, frozen):
        label = f"range_limit_ratio N={want['N']} / {want['denominator']}"
        ok = (_close(got["boundary_km"], want["boundary_km"], True)
              and _close(got["max_ratio"], want["max_ratio"], False)
              and len(got["rows"]) == len(want["rows"])
              and all(len(grow) == len(wrow)
                      and all(_close(g, w, col in _ABS_COLUMNS)
                              for col, (g, w) in enumerate(zip(grow, wrow)))
                      for grow, wrow in zip(got["rows"], want["rows"])))
        tally.item(ok, f"{label} differs from the frozen rows")


def mc_key(distance: str, estimator: str) -> str:
    """Key of one (distance, estimator) row of the validate report."""
    return f"{float(distance):g}/{estimator}"


def read_report(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.reader(lines))[1:]


def check_monte_carlo(reports: list[list[list[str]]], trials: int,
                      expected: dict, tally: Tally) -> None:
    """validate reports of several passes, each of ``trials`` trials.

    The identity rows are checked in every report. Each std_ratio and bias
    row is pooled over the reports and compared with the frozen theoretical
    std at a tolerance of Z standard errors for the pooled trial count: the
    log std ratio has standard error 1/sqrt(2*df), the mean bias
    std/sqrt(trials). Each estimator's log std ratio is also averaged over
    the distances, which catches a std that is off at every distance with
    half the standard error of a single row.
    """
    theory = expected["theoretical_std"]
    var_sum = {key: 0.0 for key in theory}
    bias_sum = {key: 0.0 for key in theory}
    for report in reports:
        seen = set()
        for check, distance, estimator, observed, expected_v, *_ in report:
            if check in IDENTITY_TOL:
                tally.item(float(observed) <= IDENTITY_TOL[check],
                           f"{check} residual {observed}")
                continue
            key = mc_key(distance, estimator)
            if key not in theory or check not in ("std_ratio", "bias"):
                continue
            seen.add((check, key))
            if check == "bias":
                bias_sum[key] += float(observed)
                continue
            var_sum[key] += float(observed) ** 2
            if not _close(float(expected_v), theory[key], False):
                # a changed theoretical std fails its pooled row below
                var_sum[key] = math.nan
        for check, sums in (("std_ratio", var_sum), ("bias", bias_sum)):
            for key in theory:
                if (check, key) not in seen:
                    sums[key] = math.nan
    passes = len(reports)
    df = passes * (trials - 1)
    log_ratio = {}
    for key, std in theory.items():
        var = var_sum[key] / passes
        log_ratio[key] = (0.5 * math.log(var) if var > 0.0 else -math.inf
                          ) - math.log(std)
        tol = Z / math.sqrt(2.0 * df)
        tally.item(abs(log_ratio[key]) <= tol,
                   f"std {key}: log(mc/theory) = {log_ratio[key]:.4f}, "
                   f"tolerance {tol:.4f} at {passes * trials} trials")
        bias = bias_sum[key] / passes
        tol = Z * std / math.sqrt(passes * trials)
        tally.item(abs(bias) <= tol,
                   f"bias {key}: {bias:.3g}, tolerance {tol:.3g}")
    by_estimator: dict[str, list[float]] = {}
    for key, value in log_ratio.items():
        by_estimator.setdefault(key.split("/")[1], []).append(value)
    for estimator, values in by_estimator.items():
        mean = sum(values) / len(values)
        tol = Z / math.sqrt(2.0 * df * len(values))
        tally.item(abs(mean) <= tol,
                   f"std {estimator} over {len(values)} distances: "
                   f"mean log(mc/theory) = {mean:.4f}, tolerance {tol:.4f}")
