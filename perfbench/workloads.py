"""The benchmark's workloads: one pass of each, and the checks of its outputs.

A pass is the unit the benchmark repeats and times. All three run at the
default ExperimentConfig; only mc_validate draws random numbers, and its
master seed comes from the benchmark's --seed. Each names the host-speed
reference chunk (hostspeed.py) whose kind of work it resembles.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys

import cvqkd.cli
import cvqkd.optimizer
from cvqkd.config import ExperimentConfig
from cvqkd.estimators import EstimatorKind

import checks

# trials per validate pass; the checks pool the passes of a run
MC_TRIALS = 20

# the three range_limit_ratio calls of test_key_rate_curves_structure:
# (N, denominator estimator), numerator sigma2_opt
RATIO_CALLS = ((10**5, "sigma2_mle"), (10**5, "sigma2_opt"),
               (10**9, "sigma2_opt"))


def _cli(argv: list[str]) -> int:
    # the program's progress lines go to stderr; stdout carries the result
    with contextlib.redirect_stdout(sys.stderr):
        code = cvqkd.cli.main(argv)
    if code not in (0, 1):
        raise RuntimeError(f"cvqkd {argv[0]} exited with code {code}")
    return code


def pass_seed(seed: int, index: int) -> int:
    """Master seed of one mc_validate pass, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class MonteCarloValidate:
    """``cvqkd validate`` at the default config and MC_TRIALS trials."""

    name = "mc_validate"
    unit = "trial-distances"
    reference = "numpy"

    def __init__(self):
        self.units = MC_TRIALS * len(ExperimentConfig().mc_distances_km)

    def run_pass(self, out_dir: str, seed: int, index: int):
        # exit code 1 is the program's own 5% gate, which fails by chance
        # at this trial count; the pooled checks below replace it
        _cli(["validate", "--seed", str(pass_seed(seed, index)),
              "--trials", str(MC_TRIALS), "--out", out_dir])
        return checks.read_report(os.path.join(out_dir, "validate_report.csv"))

    def check(self, outputs: list, expected: dict, tally: checks.Tally) -> None:
        checks.check_monte_carlo(outputs, MC_TRIALS, expected, tally)


class RateFigures:
    """``cvqkd fig2`` then ``cvqkd fig3`` at the default config."""

    name = "rate_figures"
    unit = "optimized cells"
    reference = "python"

    def __init__(self):
        cfg = ExperimentConfig()
        # fig2 optimizes every N of n_list, fig3 one more N (fig3_N)
        self.units = (len(cfg.distances_km) * (len(cfg.n_list) + 1)
                      * len(cfg.estimators))

    def run_pass(self, out_dir: str, seed: int, index: int):
        for verb in ("fig2", "fig3"):
            if _cli([verb, "--out", out_dir]) != 0:
                raise RuntimeError(f"cvqkd {verb} failed")
        return {name: checks.table_rows(os.path.join(out_dir, f"{name}.csv"))
                for name in ("fig2", "fig3")}

    def check(self, outputs: list, expected: dict, tally: checks.Tally) -> None:
        for tables in outputs:
            for name, rows in tables.items():
                checks.check_table(name, rows, expected, tally)


class RangeLimit:
    """maximum_distance over n_list, then the three range_limit_ratio calls."""

    name = "range_limit"
    unit = "range searches"
    reference = "python"

    def __init__(self):
        self.units = len(ExperimentConfig().n_list) + len(RATIO_CALLS)

    def run_pass(self, out_dir: str, seed: int, index: int):
        cfg = ExperimentConfig()
        distances = {N: cvqkd.optimizer.maximum_distance(cfg.xi, cfg.beta,
                                                         N).distance_km
                     for N in cfg.n_list}
        ratios = []
        for N, denominator in RATIO_CALLS:
            rr = cvqkd.optimizer.range_limit_ratio(
                cfg.xi, cfg.beta, N, denominator=EstimatorKind(denominator))
            ratios.append({"N": N, "denominator": denominator,
                           "boundary_km": rr.boundary_km,
                           "max_ratio": rr.max_ratio,
                           "rows": [list(row) for row in rr.rows]})
        return distances, ratios

    def check(self, outputs: list, expected: dict, tally: checks.Tally) -> None:
        for distances, ratios in outputs:
            checks.check_ranges(distances, ratios, expected, tally)


WORKLOADS = {w.name: w for w in (MonteCarloValidate, RateFigures, RangeLimit)}
