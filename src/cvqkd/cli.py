"""Command-line front end.

Exit codes: 0 on success, 1 when a validation tolerance fails, 2 on usage
or configuration errors and when a rate check fails at some input of a run.
"""

from __future__ import annotations

import argparse
import sys

from ._version import __version__
from .channel import _sigma2, fiber_transmission
from .config import ExperimentConfig, load_config
from .estimators import var_T_secondmod
from .experiments import (
    monte_carlo_validate,
    run_fig1,
    run_fig2,
    run_fig3,
    run_keyrate,
    run_optimize,
    run_simulate,
)

_RUNNERS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "simulate": run_simulate,
    "keyrate": run_keyrate,
    "optimize": run_optimize,
}

# verbs that evaluate the second-modulation estimators or their variances,
# both undefined without the second modulation (V_M2 = 0), and the config
# key of the distances they evaluate them at
_NEED_SECOND_MODULATION = {"fig1": "distances_km",
                           "validate": "mc_distances_km"}

# simulate holds all N states in memory (24 bytes each) and writes a CSV
# row per state: 1e7 states are about 240 MB of arrays and 0.6 GB of CSV
_MAX_SIMULATE_N = 10**7

# fig1 and validate hold every trial's estimates of one distance in
# memory: at 1e5 trials (tracemalloc) fig1 peaks at 20 MB and validate at
# 22 MB, whatever the number of distances, so 1e7 trials are about 2.0 GB
# and 2.2 GB
_MAX_TRIALS = 10**7


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvqkd",
        description="Estimator studies and finite-size key rates for "
                    "coherent-state CV-QKD over a Gaussian loss channel.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("fig1", "estimator standard deviations versus distance"),
        ("fig2", "optimized key rate versus distance for several block sizes"),
        ("fig3", "optimal protocol parameters versus distance"),
        ("validate", "Monte Carlo validation of the estimator variances"),
        ("simulate", "sample one session and write it to CSV"),
        ("keyrate", "key rates at the configured parameters"),
        ("optimize", "optimize (V_A, m/N) at one distance"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="output directory (default from config)")
        p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument("--convention", choices=["paper", "gaussian"],
                       help="confidence-quantile convention")
    return parser


def _effective_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.trials is not None:
        cfg.trials = args.trials
    if args.convention is not None:
        cfg.convention = args.convention
    cfg.validate()
    if args.command == "simulate" and cfg.N > _MAX_SIMULATE_N:
        raise ValueError(f"simulate holds every state in memory: N = {cfg.N} "
                         f"is above its limit of {_MAX_SIMULATE_N} states")
    key = _NEED_SECOND_MODULATION.get(args.command)
    if key and cfg.trials > _MAX_TRIALS:
        raise ValueError(f"{args.command} holds every trial in memory: "
                         f"trials = {cfg.trials} is above its limit of "
                         f"{_MAX_TRIALS}")
    if key and cfg.V_M2 == 0:
        raise ValueError(f"{args.command} needs V_M2 > 0: it runs the "
                         f"second-modulation estimators")
    for d in getattr(cfg, key) if key else ():
        # Var(T_hat) divides by T*V_M2, and validate divides by its root
        T = fiber_transmission(d, cfg.loss_db_per_km)
        if T * cfg.V_M2 == 0.0 or not var_T_secondmod(
                cfg.V_A, T, _sigma2(T, cfg.xi), cfg.N, cfg.V_M2) > 0.0:
            raise ValueError(f"{args.command} needs Var(T_hat) > 0 at {key} "
                             f"= {d} km, where {cfg.loss_db_per_km} dB/km "
                             f"leaves T = {T}")
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)
    except (OSError, ValueError) as exc:
        print(f"cvqkd: config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or cfg.out_dir

    if args.command == "validate":
        rows, ok = monte_carlo_validate(cfg, out_dir)
        n_fail = sum(1 for r in rows if r[6] != "pass")
        print(f"validate: {len(rows) - n_fail}/{len(rows)} checks passed; "
              f"report in {out_dir}/validate_report.csv")
        return 0 if ok else 1

    try:
        path = _RUNNERS[args.command](cfg, out_dir)
    except ValueError as exc:
        # a value the model rejects at some input of the run, such as the
        # rate's check for a physical covariance matrix
        print(f"cvqkd: {args.command}: {exc}", file=sys.stderr)
        return 2
    print(f"{args.command}: wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
