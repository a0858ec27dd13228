"""Mutation gate: each row of MUTANTS is a small change to one line of
src/cvqkd that a named subset of the tier-1 tests must catch.

Run from anywhere, with the packages the tests need installed:

    python tests/mutation.py

For each row the runner copies src/ to a temporary directory, replaces the
row's old text, which must occur exactly once in its file, by the new
text, and runs the row's tests with ``pytest -x`` on the copy. The mutant
is killed when a test fails (or the run passes its timeout). A survivor
fails the gate, unless the row names the reason why no test can tell the
mutant from the program (an equivalent mutant); an equivalent row that is
killed fails the gate too, as its reason no longer holds. Before the
mutants, the union of the subsets must pass on the unchanged copy. The
gate exits 0 when every row behaves as listed, else 1.

pytest does not collect this file: its name does not start with "test".
The references for the method are DeMillo, Lipton and Sayward, "Hints on
test data selection", IEEE Computer 11(4), 1978, and Jia and Harman, "An
analysis and survey of the development of mutation testing", IEEE TSE
37(5), 2011.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the test subsets the rows run
SECURITY = ("tests/test_security.py",)
RATES = ("tests/test_security.py", "tests/test_optimizer.py")
OPTIMIZER = ("tests/test_optimizer.py",)
CHANNEL = ("tests/test_channel.py",)
ESTIMATORS = ("tests/test_estimators.py", "tests/test_delta_method.py")
CONFIG = ("tests/test_config.py",)
EXPERIMENTS = ("tests/test_experiments.py",)
# the asymptotic search's reference and the candidate rule's boundaries
ASYMPTOTIC = tuple(
    "tests/test_optimizer.py::" + test
    for test in ("test_asymptotic_column_matches_the_float_scan",
                 "test_candidates_keep_the_tolerance_bound_and_cell_0"))

# the Monte Carlo coverage of the rate's confidence corner
COVERAGE = ("tests/test_experiments.py::"
            "test_confidence_corner_misses_at_its_nominal_rate",)
# sigma2_MLE's upper bound against its exact chi-square tail
CHI_SQUARE = ("tests/test_security.py::"
              "test_sigma2_mle_corner_holds_its_exact_chi_square_tail",)
# optimize's row against the figures' crossed tables
CROSSED_ROW = ("tests/test_experiments.py::"
               "test_optimize_writes_the_figures_crossed_row",)
# each range search's seeds, each scored once
SEEDS_ONCE = ("tests/test_optimizer.py::"
              "test_range_limit_ratio_scores_each_seed_once",)
# the range search's frozen rows, boundary and largest ratio
RATIO_FROZEN = ("tests/test_optimizer.py::"
                "test_range_limit_ratio_is_frozen_bit_for_bit",)
# the confidence quantile against 50-digit erfinv
QUANTILE = ("tests/test_security.py::"
            "test_confidence_quantile_is_within_6_ulp_of_erfinv",)

# the config check's loop over the keys that must not repeat a value
_REPEATS = ('        for key in ("estimators", "n_list", "distances_km", '
            '"mc_distances_km"):')

# the quantile's check of an argument that rounded to 1, whose z is inf
_INFINITE_END = (
    '    if x == 1.0:\n'
    '        raise ValueError(f"epsilon_pe = {epsilon_pe} is too small: the "\n'
    '                         f"{convention!r} confidence quantile is inf")\n')

# (file under src/cvqkd, old text, new text, tests[, reason it is
# equivalent]); the float Holevo term's three entropy lines share their
# text, so those rows carry the eigenvalue line above them
MUTANTS = [
    # security: the float Holevo term
    ("security.py", "_NEG_NU_TOL = -_NU_TOL", "_NEG_NU_TOL = _NU_TOL",
     SECURITY),
    ("security.py", "_NU_FLOOR = 1.0 - _NU_TOL", "_NU_FLOOR = 1.0 + _NU_TOL",
     SECURITY),
    ("security.py", "    cc = c * c\n    delta = a * a + b * b - 2.0 * c * c",
     "    cc = c * b\n    delta = a * a + b * b - 2.0 * c * c", SECURITY),
    ("security.py", "2.0 * c * c\n    d = a * b - cc",
     "2.0 * c * c\n    d = a * b + cc", SECURITY),
    ("security.py",
     "if disc < _NEG_NU_TOL and (a - b) ** 2 * _split(a, b, c) < _NEG_NU_TOL",
     "if disc < _NEG_NU_TOL", SECURITY),
    # raising on the factored discriminant alone
    ("security.py", "if disc < _NEG_NU_TOL and (a - b) ** 2",
     "if disc < _NEG_NU_TOL or (a - b) ** 2", SECURITY),
    ("security.py", "    if nu2 < _NU_FLOOR:", "    if nu2 > _NU_FLOOR:",
     SECURITY),
    ("security.py", "if d < _NU_FLOOR * sqrt((delta + factored) * 0.5):",
     "if d < sqrt((delta + factored) * 0.5):", SECURITY),
    ("security.py", "    reduced = a - cc / b\n    if reduced",
     "    reduced = a - cc * b\n    if reduced", SECURITY),
    ("security.py", "    if reduced < _NEG_NU_TOL:",
     "    if reduced < -1.0:", SECURITY),
    ("security.py", "    if nu3 < _NU_FLOOR:", "    if nu3 < 1.0:",
     SECURITY),
    ("security.py",
     "else nu1) - 1.0) * 0.5\n    x1 = x + 1.0",
     "else nu1) - 1.0) * 0.5\n    x1 = x + 2.0", SECURITY),
    ("security.py",
     "else nu2) - 1.0) * 0.5\n    x1 = x + 1.0",
     "else nu2) - 1.0) * 0.5\n    x1 = x", SECURITY),
    ("security.py",
     "else nu3) - 1.0) * 0.5\n    x1 = x + 1.0",
     "else nu3) - 1.0) * 0.5\n    x1 = x + 0.5", SECURITY),
    ("security.py",
     "    s = 0.0 if x == 0.0 else x1 * log2(x1) - x * log2(x)",
     "    s = 0.0 if x == 0.0 else x1 * log2(x1) + x * log2(x)", SECURITY),
    ("security.py",
     "    s += 0.0 if x == 0.0 else x1 * log2(x1) - x * log2(x)",
     "    s += 0.0 if x == 0.0 else x * log2(x1) - x * log2(x)", SECURITY),
    ("security.py",
     "    s -= 0.0 if x == 0.0 else x1 * log2(x1) - x * log2(x)",
     "    s += 0.0 if x == 0.0 else x1 * log2(x1) - x * log2(x)", SECURITY),
    # the round-off hold: reached by a near-pure state whose term is -1.3e-8
    ("security.py", "    if s > -1e-9:", "    if s > -1e-3:", SECURITY),
    ("security.py", "    if s > -1e-9:", "    if s > -1e-12:", SECURITY),
    # security: the grid's checks, each a NaN-skipping least-cell reduction
    ("security.py",
     "if np.fmin.reduce(disc, axis=None, initial=np.inf) < _NEG_NU_TOL",
     "if disc.min() < _NEG_NU_TOL", SECURITY),
    ("security.py",
     "np.fmin.reduce(nu2_sq, axis=None, initial=np.inf) < 0.0",
     "np.fmin.reduce(nu2_sq, axis=None) < 0.0", SECURITY),
    ("security.py",
     "np.fmin.reduce(nu2, axis=None, initial=np.inf) < _NU_FLOOR",
     "nu2.min() < _NU_FLOOR", SECURITY),
    ("security.py", "        if ((nu2 < _NU_FLOOR)\n                & (d <",
     "        if ((nu2 < _NU_FLOOR)\n                | (d <", SECURITY),
    ("security.py",
     "np.fmin.reduce(reduced, axis=None, initial=np.inf) < _NEG_NU_TOL",
     "np.minimum.reduce(reduced, axis=None, initial=np.inf) < _NEG_NU_TOL",
     SECURITY),
    ("security.py",
     "np.fmin.reduce(nu3, axis=None, initial=np.inf) < _NU_FLOOR",
     "np.fmin.reduce(nu3, axis=None) < _NU_FLOOR", SECURITY),
    ("security.py", "np.maximum(s, 0.0, out=s, where=s > -1e-9)",
     "np.maximum(s, 0.0, out=s, where=s > -1e-3)", SECURITY),
    # security: the grid's stacked entropies and the kinds' order in the
    # stack
    ("security.py", "    s = g[0] + g[1] - g[2]", "    s = g[0] + g[1] + g[2]",
     SECURITY),
    ("security.py", "zip(b, kinds)", "zip(b, kinds[::-1])", SECURITY),
    # security: the rate's corner and inputs
    ("security.py", "            t_min = 0.0\n", "            t_min = 1e-9\n",
     SECURITY),
    ("security.py", "    if N < 3:", "    if N < 2:", RATES),
    ("security.py", "    if V_A <= 0:", "    if V_A < 0:", SECURITY),
    # security: the gaussian quantile's sqrt(2), seen by the corner's
    # coverage and by sigma2_MLE's exact tail
    ("security.py", "        scale = sqrt(2.0)", "        scale = 1.0",
     COVERAGE + CHI_SQUARE),
    # security: the quantile's tail (1 - x)/2 and its infinite end
    ("security.py", "inv_cdf((1.0 - x) / 2.0)", "inv_cdf(1.0 - x)", QUANTILE),
    ("security.py", _INFINITE_END, "", QUANTILE),
    # security: an infinite channel and the modulation cap
    ("security.py", "    if T == inf or xi == inf:", "    if T == inf:",
     RATES),
    ("security.py", "        if val > _MAX_VARIANCE:",
     "        if val > 10.0 * _MAX_VARIANCE:", SECURITY),
    # security: an infinite beta, in each built rate
    ("security.py", "    if beta == inf or beta == -inf:",
     "    if beta == inf:", RATES),
    ("security.py", "    _check_beta(beta)\n    if N < 3:", "    if N < 3:",
     OPTIMIZER),
    ("security.py", "    _check_beta(beta)\n    sigma2 = _sigma2(T, xi)",
     "    sigma2 = _sigma2(T, xi)", OPTIMIZER),
    # security: the asymptotic rate on arrays
    ("security.py", "    s = _holevo_grid(V_A + 1.0, T * V_A + 1.0 + T * xi,",
     "    s = _holevo_grid(V_A + 1.0, T * V_A + 1.0 + xi,", OPTIMIZER),
    # optimizer: an optimum's count, the sum of its trace rows' counts, and
    # the range search's largest ratio, a fold over its rows
    ("optimizer.py", "sum(row[-1] for row in self.trace)",
     "sum(row[-1] for row in self.trace[1:])", OPTIMIZER),
    ("optimizer.py", "*(row[3] for row in self.rows if row[1] > 0.0)",
     "*(row[2] for row in self.rows if row[1] > 0.0)", RATIO_FROZEN),
    # optimizer: the grid's best cell and its tolerance
    ("optimizer.py", "_GRID_TOL = 1e-12", "_GRID_TOL = 1e-6", RATES),
    ("optimizer.py", "    top = np.maximum.reduce(raw)",
     "    top = np.minimum.reduce(raw)", OPTIMIZER),
    ("optimizer.py", "    top = np.maximum.reduce(raw)",
     "    top = np.fmax.reduce(raw)", OPTIMIZER),
    ("optimizer.py", "(raw >= top - 2.0 * _GRID_TOL)",
     "(raw >= top - 0.5 * _GRID_TOL)", OPTIMIZER),
    ("optimizer.py", "(raw >= top - 2.0 * _GRID_TOL)", "(raw >= top)",
     OPTIMIZER),
    # optimizer: the candidate rule the asymptotic search shares
    ("optimizer.py", "(raw >= top - 2.0 * _GRID_TOL)",
     "(raw > top - 2.0 * _GRID_TOL)", ASYMPTOTIC),
    ("optimizer.py", "(raw >= top - 2.0 * _GRID_TOL)", "(raw >= top)",
     ASYMPTOTIC),
    ("optimizer.py", "        cells.insert(0, 0)", "        pass", ASYMPTOTIC),
    # optimizer: a Python frame added to each float evaluation of the
    # asymptotic search
    ("optimizer.py", "    rates = [_asymptotic_at(T, xi, beta) for T in Ts]",
     "    rates = [(lambda r: lambda V_A: r(V_A))(_asymptotic_at(T, xi, beta))"
     "\n             for T in Ts]",
     ("tests/test_optimizer.py::"
      "test_asymptotic_search_runs_few_python_frames_per_evaluation",)),
    ("optimizer.py", "    m = 2 if 2 > m else m", "    m = 1 if 1 > m else m",
     OPTIMIZER),
    ("optimizer.py", "_RANK_BLOCK = 8", "_RANK_BLOCK = 1", OPTIMIZER),
    # optimizer: the one way into the grid, its shared m column and the
    # range search's per-kind ranking of the sampled offsets
    ("optimizer.py", "@cache\ndef _grid_ms", "def _grid_ms", OPTIMIZER),
    ("optimizer.py", "ms.flags.writeable = False", "ms.flags.writeable = True",
     OPTIMIZER),
    ("optimizer.py", "_grid_ms(N), z, kinds)", "_grid_ms(N + 1), z, kinds)",
     OPTIMIZER),
    ("optimizer.py",
     "raws = raws.reshape(len(kinds), len(block), -1).swapaxes(0, 1)",
     "raws = raws.reshape(len(block), len(kinds), -1)", OPTIMIZER),
    ("optimizer.py",
     "grids(kind, [d for d in ds if (kind, d) not in ranked])",
     "grids(kind, ds)", OPTIMIZER),
    # the numerator's own seed scored again as the extra seed
    ("optimizer.py", "seeds = [*dict.fromkeys(s for s in",
     "seeds = [*list(s for s in", SEEDS_ONCE),
    # channel
    ("channel.py", "    return 1.0 + T * xi", "    return 1.0 + xi",
     CHANNEL),
    ("channel.py", "    return 10.0 ** (-loss_db_per_km * distance_km / 10.0)",
     "    return 10.0 ** (-loss_db_per_km * distance_km / 20.0)", CHANNEL),
    ("channel.py", "        if self.xi < 0:", "        if self.xi < -1.0:",
     CHANNEL),
    # estimators
    ("estimators.py",
     "    return 2.0 * sigma2**2 / n + (1.0 / m + 1.0 / n)",
     "    return 2.0 * sigma2**2 / n + (1.0 / m - 1.0 / n)", ESTIMATORS),
    # a variance form 5% too large, seen by the corner's coverage alone
    ("estimators.py",
     "    return 2.0 * sigma2**2 / n + (1.0 / m + 1.0 / n) * 4.0 * T * sigma2"
     " * V_A",
     "    return 1.05 * (2.0 * sigma2**2 / n + (1.0 / m + 1.0 / n) * 4.0 * T"
     " * sigma2 * V_A)", COVERAGE),
    ("estimators.py", "    return v1 * v2 / (v1 + v2)",
     "    return v1 * v2 / (v1 + v2) / 2.0", ESTIMATORS),
    ("estimators.py", "    if m < 2:\n        raise ValueError(f\"need m >= 2",
     "    if m < 1:\n        raise ValueError(f\"need m >= 2", ESTIMATORS),
    # experiments
    ("experiments.py", "                abs(bias) <= BIAS_SIGMAS * se,",
     "                abs(bias) <= 2.0 * BIAS_SIGMAS * se,", EXPERIMENTS),
    ("experiments.py", "    if np.any(mm_key.variance < 0.0):",
     "    if np.any(mm_key.variance < -1.0):", EXPERIMENTS),
    # optimize's own per-estimator search, with no cross stage
    ("experiments.py", "    [results] = _rate_table(cfg, cfg.N, [d])",
     "    results = [optimize_key_rate(cfg.xi, cfg.beta, cfg.N, "
     "cfg.epsilon_pe, _KIND_BY_NAME[name], T=fiber_transmission(d, "
     "cfg.loss_db_per_km), convention=cfg.convention) for name in "
     "cfg.estimators]", CROSSED_ROW),
    # config and cli
    ("config.py", "_MAX_POINTS = 10**6", "_MAX_POINTS = 10**7", CONFIG),
    ("config.py", "        if not 0 < self.beta <= 1:",
     "        if not 0 < self.beta <= 2:", CONFIG),
    ("cli.py", "_MAX_SIMULATE_N = 10**7", "_MAX_SIMULATE_N = 10**8",
     EXPERIMENTS),
    # config and cli: a repeated estimator, block size, distance or Monte
    # Carlo distance, and validate with no Monte Carlo distance, each
    # accepted
    ("config.py", _REPEATS, _REPEATS.replace('"estimators", ', ''), CONFIG),
    ("config.py", _REPEATS, _REPEATS.replace('"n_list", ', ''), CONFIG),
    ("config.py", _REPEATS, _REPEATS.replace('"distances_km", ', ''),
     CONFIG),
    ("config.py", _REPEATS, _REPEATS.replace(', "mc_distances_km"', ''),
     CONFIG),
    ("cli.py",
     '    if args.command == "validate" and not cfg.mc_distances_km:',
     '    if args.command == "validate" and cfg.mc_distances_km is None:',
     EXPERIMENTS),
]

# seconds one row may run before its mutant counts as killed (a hang)
TIMEOUT = 600


def _pytest(src: Path, tests) -> tuple[int | None, float]:
    """pytest's exit code on ``tests`` with ``src`` as the package's
    source (None past the timeout), and the seconds it took."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *tests], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory(prefix="cvqkd-mutation-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        union = sorted({t for row in MUTANTS for t in row[3]})
        code, secs = _pytest(src, union)
        if code != 0:
            print(f"the unchanged source fails its tests (exit {code}); "
                  "no mutant can be judged")
            return 1
        print(f"unchanged source: {len(union)} test files pass "
              f"({secs:.1f} s)")
        for file, old, new, tests, *reason in MUTANTS:
            path = src / "cvqkd" / file
            text = path.read_text()
            label = f"{file}: {old.strip()!r} -> {new.strip()!r}"
            if text.count(old) != 1:
                print(f"STALE      {label}: old text found "
                      f"{text.count(old)} times")
                failed.append(label)
                continue
            path.write_text(text.replace(old, new))
            try:
                code, secs = _pytest(src, tests)
            finally:
                path.write_text(text)
            # 1: a test failed; 2: collection failed, as an import error
            # does; any other code is a broken row, not a kill
            if code not in (None, 0, 1, 2):
                print(f"ERROR      {label}: pytest exited {code}")
                failed.append(label)
                continue
            killed = code != 0
            if reason:
                state = "KILLED-EQ" if killed else "equivalent"
            else:
                state = "killed" if killed else "SURVIVED"
            if killed == bool(reason):
                failed.append(label)
            print(f"{state:<11}{label} ({secs:.1f} s)"
                  + (f": {reason[0]}" if reason else ""))
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} rows as listed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
