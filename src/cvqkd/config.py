"""Plain-text experiment configuration.

Format: one ``key = value`` per line, ``#`` starts a comment, blank lines
ignored. Unknown keys are rejected rather than silently dropped. Lists are
comma separated; distance grids also accept ``start:stop:step``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from decimal import Decimal
from math import isfinite, sqrt

from .security import _MAX_VARIANCE, KEY_RATE_ESTIMATORS

__all__ = ["ExperimentConfig", "parse_config", "load_config"]

# the estimator names a config may list, and the sigma2 estimator each
# names in the key-rate runners, in the order of KEY_RATE_ESTIMATORS
_KIND_BY_NAME = dict(zip(("mle", "mm", "opt"), KEY_RATE_ESTIMATORS,
                         strict=True))
_VALID_CONVENTIONS = ("paper", "gaussian")
# the second-modulation sums grow as N*V_M2, and vxi_hat's plug-in variance
# squares its noise term V_N, which they bound: this cap keeps that square
# finite
_MAX_N_TIMES_V_M2 = sqrt(sys.float_info.max)
# the rates square the revealed count m < N (the sigma2 MLE's chi-square
# variance divides by m**2, as a float), so a block size past this cap
# overflows
_MAX_BLOCK = sqrt(sys.float_info.max)
# a start:stop:step grid's points: a million take 1.1 s to parse and 32 MB
# to hold (2-vCPU Xeon), and fig2 spends about 2.7 ms a distance, so a
# grid past this cap is a typo, one of 1e-12 steps a memory exhaustion
_MAX_POINTS = 10**6


def _shown(val) -> str:
    """A config value as a message prints it: an integer past 2**53 in
    float notation, as a config file writes it, so N = 1e300 reads 1e+300
    and not 301 digits; a list item by item; anything else as str does."""
    if isinstance(val, list):
        return "[" + ", ".join(map(_shown, val)) + "]"
    if isinstance(val, int) and abs(val) > 2**53:
        # a config file's counts pass through float; one past its range
        # can only be set in code, and prints 17 digits
        return (repr(float(val)) if abs(val) < 2**1024
                else f"{Decimal(val):.17g}")
    return str(val)


def _default_distances() -> list[float]:
    return [float(d) for d in range(0, 201, 5)]


def _default_mc_distances() -> list[float]:
    return [0.0, 20.0, 50.0, 100.0]


def _default_n_list() -> list[int]:
    return [10**5, 10**7, 10**9, 10**12]


def _default_estimators() -> list[str]:
    return ["mle", "mm", "opt"]


@dataclass
class ExperimentConfig:
    V_A: float = 3.0
    xi: float = 0.01
    N: int = 100_000
    m: int = 50_000
    beta: float = 0.95
    V_M2: float = 10.0
    epsilon_pe: float = 1e-10
    loss_db_per_km: float = 0.2
    distances_km: list[float] = field(default_factory=_default_distances)
    mc_distances_km: list[float] = field(default_factory=_default_mc_distances)
    trials: int = 2000
    seed: int = 12345
    estimators: list[str] = field(default_factory=_default_estimators)
    n_list: list[int] = field(default_factory=_default_n_list)
    fig3_N: int = 10**9
    out_dir: str = "results"
    convention: str = "paper"
    raw_lines: list[str] = field(default_factory=list, repr=False)

    def validate(self) -> None:
        # a NaN passes every range check below, and an inf fails later
        for f in fields(self):
            val = getattr(self, f.name)
            if f.type in ("float", "list[float]") and not all(
                    map(isfinite, val if isinstance(val, list) else [val])):
                raise ValueError(f"{f.name} must be finite, got {val}")
        if self.V_A <= 0:
            raise ValueError(f"V_A must be > 0, got {self.V_A}")
        if self.xi < 0:
            raise ValueError(f"xi must be >= 0, got {self.xi}")
        if self.N < 3:
            raise ValueError(f"N must be >= 3, got {_shown(self.N)}")
        if not 2 <= self.m <= self.N - 1:
            raise ValueError(f"m must be in [2, N-1], got "
                             f"m={_shown(self.m)}, N={_shown(self.N)}")
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.V_M2 < 0:
            raise ValueError(f"V_M2 must be >= 0, got {self.V_M2}")
        # the block sizes first: V_M2's cap divides by N, which past its
        # own cap can be too large an integer to convert to float
        for key, top in (("N", _MAX_BLOCK), ("n_list", _MAX_BLOCK),
                         ("fig3_N", _MAX_BLOCK), ("V_A", _MAX_VARIANCE),
                         ("xi", _MAX_VARIANCE), ("V_M2", _MAX_N_TIMES_V_M2)):
            if key == "V_M2":
                top /= self.N
            val = getattr(self, key)
            if any(v > top for v in (val if isinstance(val, list) else [val])):
                raise ValueError(f"{key} must be <= {top!r}, past which the "
                                 f"model's arithmetic breaks down, got "
                                 f"{_shown(val)}")
        if not 0 < self.epsilon_pe < 1:
            raise ValueError(f"epsilon_pe must be in (0, 1), got {self.epsilon_pe}")
        if self.loss_db_per_km < 0:
            raise ValueError(f"loss_db_per_km must be >= 0, got "
                             f"{self.loss_db_per_km}")
        if self.trials < 2:
            raise ValueError(f"trials must be >= 2, got {_shown(self.trials)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {_shown(self.seed)}")
        if not self.distances_km:
            raise ValueError("distances_km must not be empty")
        if any(d < 0 for d in self.distances_km + self.mc_distances_km):
            raise ValueError("distances must be >= 0")
        if not self.estimators:
            raise ValueError("estimators must not be empty")
        for e in self.estimators:
            if e not in _KIND_BY_NAME:
                raise ValueError(f"unknown estimator {e!r}, "
                                 f"expected one of {tuple(_KIND_BY_NAME)}")
        if self.convention not in _VALID_CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}, "
                             f"expected one of {_VALID_CONVENTIONS}")
        if not self.n_list:
            raise ValueError("n_list must not be empty")
        if any(n < 3 for n in self.n_list) or self.fig3_N < 3:
            raise ValueError("block sizes must be >= 3")
        # a repeat would write a duplicate table column, or each row twice
        for key in ("estimators", "n_list", "distances_km", "mc_distances_km"):
            seen = set()
            for val in getattr(self, key):
                if val in seen:
                    raise ValueError(f"{key} must not repeat a value, got "
                                     f"{_shown(val)} twice")
                seen.add(val)

    def echo_lines(self) -> list[str]:
        """Effective configuration, one key = value line per field."""
        lines = []
        for f in fields(self):
            if f.name == "raw_lines":
                continue
            val = getattr(self, f.name)
            if isinstance(val, list):
                val = ",".join(str(v) for v in val)
            lines.append(f"{f.name} = {val}")
        return lines


def _parse_int(key: str, text: str) -> int:
    # accept 1e5-style notation for counts
    val = float(text)
    if not isfinite(val) or val != int(val):
        raise ValueError(f"{key} must be an integer, got {text!r}")
    return int(val)


def _parse_float_list(key: str, text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"{key} range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(isfinite, (start, stop, step))):
            raise ValueError(f"{key} range must be finite, got {text!r}")
        if step <= 0 or stop < start:
            raise ValueError(f"{key} range must have step > 0 and stop >= start")
        # each point from start, so no step's round-off carries to the next
        out, i = [], 0
        while (d := start + i * step) <= stop + 1e-9:
            if i == _MAX_POINTS:
                raise ValueError(f"{key} range must have at most "
                                 f"{_MAX_POINTS} points, got {text!r}")
            out.append(round(d, 9))
            i += 1
        return out
    return [float(p) for p in text.split(",") if p.strip()]


# a parser(key, text) per field type of ExperimentConfig
_PARSE_BY_TYPE = {
    "float": lambda key, text: float(text),
    "int": _parse_int,
    "str": lambda key, text: text,
    "list[float]": _parse_float_list,
    "list[int]": lambda key, text: [_parse_int(key, p)
                                    for p in text.split(",") if p.strip()],
    "list[str]": lambda key, text: [p.strip() for p in text.split(",")
                                    if p.strip()],
}
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)
                if f.name != "raw_lines"}


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    raw = text.splitlines()
    for lineno, line in enumerate(raw, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            setattr(cfg, key, _PARSE_BY_TYPE[_FIELD_TYPES[key]](key, value))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    cfg.raw_lines = raw
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())
