"""Per-layer timing from outside the program.

Each public function is replaced, for the length of a traced pass, by a
wrapper installed under the name its caller looks up (``experiments.py``
calls ``sample_session`` through its own module globals, so the wrapper
goes on ``cvqkd.experiments.sample_session``). Nothing inside the package
is edited. A span's self time is its duration minus the time covered by
the spans it caused, so summing self times over a layer never counts a
nested call twice.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). The layer is the span name's first part.
_TARGETS = [
    ("cvqkd.cli", "main", "cli.main"),
    ("cvqkd.cli", "monte_carlo_validate", "experiments.monte_carlo_validate"),
    ("cvqkd.experiments", "run_estimator_trials",
     "experiments.run_estimator_trials"),
    ("cvqkd.experiments", "check_identities", "experiments.check_identities"),
    ("cvqkd.experiments", "sample_session", "channel.sample_session"),
    ("cvqkd.experiments", "split_session", "channel.split_session"),
    ("cvqkd.experiments", "trial_seed", "channel.trial_seed"),
    ("cvqkd.experiments", "collect_statistics",
     "estimators.collect_statistics"),
    ("cvqkd.experiments", "estimate_t_mle", "estimators.estimate_t_mle"),
    ("cvqkd.experiments", "estimate_sigma2_mle",
     "estimators.estimate_sigma2_mle"),
    ("cvqkd.experiments", "estimate_sigma2_mm_full",
     "estimators.estimate_sigma2_mm_full"),
    ("cvqkd.experiments", "estimate_sigma2_mm_key",
     "estimators.estimate_sigma2_mm_key"),
    ("cvqkd.experiments", "combine_optimal", "estimators.combine_optimal"),
    ("cvqkd.experiments", "estimate_T_secondmod",
     "estimators.estimate_secondmod"),
    ("cvqkd.experiments", "estimate_Vxi_secondmod",
     "estimators.estimate_secondmod"),
    ("cvqkd.experiments", "residual_second_moment",
     "estimators.residual_second_moment"),
    ("cvqkd.experiments", "second_moment", "estimators.second_moment"),
    ("cvqkd.experiments", "theoretical_std", "estimators.theoretical_std"),
    ("cvqkd.experiments", "optimize_key_rate", "optimizer.optimize_key_rate"),
    ("cvqkd.experiments", "optimize_asymptotic_rate",
     "optimizer.optimize_asymptotic_rate"),
    ("cvqkd.experiments", "key_rate_finite", "security.key_rate_finite"),
    ("cvqkd.optimizer", "optimize_key_rate", "optimizer.optimize_key_rate"),
    ("cvqkd.optimizer", "maximum_distance", "optimizer.maximum_distance"),
    ("cvqkd.optimizer", "range_limit_ratio", "optimizer.range_limit_ratio"),
    ("cvqkd.optimizer", "key_rate_finite", "security.key_rate_finite"),
    ("cvqkd.optimizer", "key_rate_asymptotic", "security.key_rate_asymptotic"),
    ("cvqkd.security", "worst_case_params", "security.worst_case_params"),
    ("cvqkd.security", "holevo_bound", "security.holevo_bound"),
    ("cvqkd.security", "confidence_quantile", "security.confidence_quantile"),
]

# spans whose every duration is kept, for p50 and tail
_SAMPLED = {"channel.sample_session", "security.key_rate_finite",
            "optimizer.optimize_key_rate"}

_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float | None:
    """Highest percentile of the ladder with at least 10 samples beyond it."""
    return next((p for p in _LADDER if n * (1.0 - p / 100.0) >= 10.0), None)


def percentile(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    k = min(len(ordered) - 1, max(0, int(round(p / 100.0 * len(ordered))) - 1))
    return ordered[k]


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self._stats: dict[str, list] = {}
        self.samples: dict[str, list] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self._child = [0.0]
        self._saved: list[tuple] = []

    def span(self, name: str, fn, on_result=None):
        # _child[0] accumulates the time of the spans the running span
        # caused; each span saves its parent's sum and adds itself back
        child = self._child
        # [calls, self seconds, total seconds], shared by every wrapper of
        # one span name
        stat = self._stats.setdefault(name, [0, 0.0, 0.0])
        samples = self.samples[name] if name in _SAMPLED else None

        def wrapper(*args, **kwargs):
            parent = child[0]
            child[0] = 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt - child[0]
                stat[2] += dt
                child[0] = parent + dt
                if samples is not None:
                    samples.append(dt)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result
        return wrapper

    # -- result hooks: counts read from what a call returned ------------

    def _on_sample_session(self, res, _args, _kwargs):
        # y stands for the drawn noise, which has its shape
        self.counts["channel.bytes_drawn"] += sum(
            a.nbytes for a in (res.x, res.x_m2, res.y) if a is not None)

    def _on_split_session(self, res, _args, _kwargs):
        self.counts["channel.bytes_drawn"] += (res.pe_indices.nbytes
                                               + res.key_indices.nbytes)

    def _on_estimator_trials(self, _res, args, kwargs):
        self.counts["experiments.trials"] += kwargs.get("trials", args[2])

    def _on_key_rate(self, res, _args, _kwargs):
        self.counts["security.zero_rate"] += res.key_rate == 0.0
        self.counts["security.clamped"] += res.clamped

    def _on_rescore(self, res, args, kwargs):
        self.counts["experiments.rescore_calls"] += 1
        self._on_key_rate(res, args, kwargs)

    def _on_optimize(self, res, _args, _kwargs):
        self.counts["optimizer.evaluations"] += res.evaluations
        for stage, *_, nev in res.trace:
            if stage in ("grid", "refine"):
                self.counts[f"optimizer.{stage}_evaluations"] += nev

    def _on_maximum_distance(self, res, _args, _kwargs):
        self.counts["optimizer.maximum_distance.probes"] += res.evaluations

    def _on_range_limit_ratio(self, res, _args, _kwargs):
        self.counts["optimizer.range_limit_ratio.evaluations"] += res.evaluations

    def _hook(self, module: str, attr: str):
        return {
            "sample_session": self._on_sample_session,
            "split_session": self._on_split_session,
            "run_estimator_trials": self._on_estimator_trials,
            "key_rate_finite": (self._on_rescore if module == "cvqkd.experiments"
                                else self._on_key_rate),
            "optimize_key_rate": self._on_optimize,
            "maximum_distance": self._on_maximum_distance,
            "range_limit_ratio": self._on_range_limit_ratio,
        }.get(attr)

    def install(self) -> None:
        for module, attr, name in _TARGETS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.span(name, original,
                                         self._hook(module, attr)))
        # the CLI dispatches figure verbs through a dict built at import
        runners = importlib.import_module("cvqkd.cli")._RUNNERS
        for verb in ("fig2", "fig3"):
            original = runners[verb]
            self._saved.append((runners, verb, original))
            runners[verb] = self.span(f"experiments.run_{verb}", original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._saved.clear()

    def layer_self_s(self, layer: str) -> float:
        return sum(stat[1] for name, stat in self._stats.items()
                   if name.split(".", 1)[0] == layer)

    def metrics(self) -> tuple[dict[str, float], dict[str, str]]:
        """Per-layer metrics of this pass, and how each tail was taken."""
        c = {name: stat[0] for name, stat in self._stats.items()}
        s = {name: stat[1] for name, stat in self._stats.items()}
        total = {name: stat[2] for name, stat in self._stats.items()}
        kr_calls = c["security.key_rate_finite"]
        trials = self.counts["experiments.trials"]
        m = {
            "cli.main.self_s": s["cli.main"],
            "channel.self_s": self.layer_self_s("channel"),
            "channel.bytes_drawn": self.counts["channel.bytes_drawn"],
            "estimators.self_s": self.layer_self_s("estimators"),
            "estimators.estimate_secondmod.self_s":
                s["estimators.estimate_secondmod"],
            "experiments.self_s": self.layer_self_s("experiments"),
            "experiments.run_estimator_trials.self_s":
                s["experiments.run_estimator_trials"],
            "experiments.run_estimator_trials.per_trial_ms":
                (1e3 * total["experiments.run_estimator_trials"] / trials
                 if trials else 0.0),
            "experiments.rescore_calls": self.counts["experiments.rescore_calls"],
            "security.self_s": self.layer_self_s("security"),
            "security.confidence_quantile.calls":
                c["security.confidence_quantile"],
            # both ratios have the key_rate_finite calls as their base
            "security.zero_rate_ratio":
                self.counts["security.zero_rate"] / kr_calls if kr_calls else 0.0,
            "security.clamped_ratio":
                self.counts["security.clamped"] / kr_calls if kr_calls else 0.0,
            "optimizer.self_s": self.layer_self_s("optimizer"),
            "optimizer.evaluations": self.counts["optimizer.evaluations"],
            "optimizer.grid_evaluations":
                self.counts["optimizer.grid_evaluations"],
            "optimizer.refine_evaluations":
                self.counts["optimizer.refine_evaluations"],
            "optimizer.optimize_asymptotic_rate.self_s":
                s["optimizer.optimize_asymptotic_rate"],
            "optimizer.maximum_distance.probes":
                self.counts["optimizer.maximum_distance.probes"],
            "optimizer.maximum_distance.self_s": s["optimizer.maximum_distance"],
            "optimizer.range_limit_ratio.evaluations":
                self.counts["optimizer.range_limit_ratio.evaluations"],
            "optimizer.range_limit_ratio.self_s":
                s["optimizer.range_limit_ratio"],
        }
        for name in ("channel.sample_session", "channel.split_session",
                     "channel.trial_seed", "security.key_rate_finite",
                     "security.holevo_bound", "security.worst_case_params",
                     "optimizer.optimize_key_rate"):
            m[f"{name}.calls"] = c[name]
            m[f"{name}.self_s"] = s[name]
        for name in ("estimators.collect_statistics",
                     "estimators.estimate_t_mle",
                     "estimators.estimate_sigma2_mle"):
            m[f"{name}.self_s"] = s[name]

        tails = {}
        for name, unit, scale in (("channel.sample_session", "us", 1e6),
                                  ("security.key_rate_finite", "us", 1e6),
                                  ("optimizer.optimize_key_rate", "ms", 1e3)):
            samples = self.samples[name]
            p = tail_percentile(len(samples))
            m[f"{name}.p50_{unit}"] = (scale * statistics.median(samples)
                                       if samples else 0.0)
            m[f"{name}.tail_{unit}"] = (scale * percentile(samples, p)
                                        if p else 0.0)
            tails[f"{name}.tail_{unit}"] = (f"p{p:g} of {len(samples)} calls"
                                            if p else f"none: {len(samples)} calls")
        return m, tails
