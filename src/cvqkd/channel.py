"""Gaussian loss-channel model and session sampling.

Everything is expressed in shot-noise units: Alice modulates coherent
states with variance V_A, the channel applies amplitude transmission
t = sqrt(T) and adds Gaussian noise of variance sigma2 = 1 + T*xi, so a
homodyne measurement on Bob's side reads

    y_i = t * (x_i + x_m2_i) + z_i,      z_i ~ N(0, sigma2),

where x_m2 is an optional second, independently modulated displacement
(variance V_M2) used by the correlation-based transmission estimator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import sqrt

import numpy as np

__all__ = [
    "ChannelParams",
    "ProtocolParams",
    "SessionData",
    "SessionSplit",
    "fiber_transmission",
    "sample_session",
    "split_session",
    "trial_seed",
    "write_session_csv",
    "read_session_csv",
]


def fiber_transmission(distance_km: float, loss_db_per_km: float = 0.2) -> float:
    """Power transmission T of a fiber of the given length."""
    if distance_km < 0:
        raise ValueError(f"distance must be >= 0, got {distance_km}")
    if loss_db_per_km < 0:
        raise ValueError(f"loss must be >= 0, got {loss_db_per_km}")
    return 10.0 ** (-loss_db_per_km * distance_km / 10.0)


def _sigma2(T: float, xi: float) -> float:
    # the model's output noise; ChannelParams checks T and xi, the
    # design-phase formulas take them as given
    return 1.0 + T * xi


@dataclass(frozen=True)
class ChannelParams:
    """Loss channel with transmission T and input-referred excess noise xi."""

    T: float
    xi: float

    def __post_init__(self):
        if not 0.0 <= self.T <= 1.0:
            raise ValueError(f"T must be in [0, 1], got {self.T}")
        if self.xi < 0:
            raise ValueError(f"xi must be >= 0, got {self.xi}")

    @property
    def t(self) -> float:
        """Amplitude transmission, t**2 == T."""
        return sqrt(self.T)

    @property
    def sigma2(self) -> float:
        """Output noise variance 1 + T*xi (shot-noise units)."""
        return _sigma2(self.T, self.xi)

    @property
    def v_xi(self) -> float:
        """Output-referred excess noise T*xi, so sigma2 = 1 + v_xi."""
        return self.T * self.xi

    @classmethod
    def from_distance(cls, distance_km: float, xi: float,
                      loss_db_per_km: float = 0.2) -> "ChannelParams":
        return cls(T=fiber_transmission(distance_km, loss_db_per_km), xi=xi)


@dataclass(frozen=True)
class ProtocolParams:
    """Session-level protocol choices.

    N states are exchanged in total; m of them are revealed for parameter
    estimation and the remaining n = N - m generate key. V_M2 = 0 disables
    the second modulation.
    """

    V_A: float
    N: int
    m: int
    beta: float = 0.95
    epsilon_pe: float = 1e-10
    V_M2: float = 0.0

    def __post_init__(self):
        if self.V_A <= 0:
            raise ValueError(f"V_A must be > 0, got {self.V_A}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not 0 <= self.m <= self.N:
            raise ValueError(f"m must be in [0, N], got m={self.m}, N={self.N}")
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if not 0 < self.epsilon_pe < 1:
            raise ValueError(f"epsilon_pe must be in (0, 1), got {self.epsilon_pe}")
        if self.V_M2 < 0:
            raise ValueError(f"V_M2 must be >= 0, got {self.V_M2}")

    @property
    def n(self) -> int:
        return self.N - self.m


@dataclass
class SessionData:
    """One simulated session: Alice's symbols and Bob's measurements."""

    x: np.ndarray
    y: np.ndarray
    x_m2: np.ndarray | None = None
    seed: int | None = None

    @property
    def n_states(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class SessionSplit:
    """Disjoint index sets: pe_indices are revealed, key_indices are kept."""

    pe_indices: np.ndarray
    key_indices: np.ndarray

    @property
    def m(self) -> int:
        return self.pe_indices.shape[0]

    @property
    def n(self) -> int:
        return self.key_indices.shape[0]


def sample_session(protocol: ProtocolParams, channel: ChannelParams,
                   seed: int) -> SessionData:
    """Draw one session of N states through the channel.

    Draw order is fixed (x, then x_m2 if enabled, then z) so a seed pins
    down the session bit-for-bit.
    """
    rng = np.random.default_rng(seed)
    N = protocol.N
    x = rng.normal(0.0, sqrt(protocol.V_A), N)
    x_m2 = None
    displaced = x
    if protocol.V_M2 > 0:
        x_m2 = rng.normal(0.0, sqrt(protocol.V_M2), N)
        displaced = x + x_m2
    z = rng.normal(0.0, sqrt(channel.sigma2), N)
    y = channel.t * displaced + z
    return SessionData(x=x, y=y, x_m2=x_m2, seed=seed)


def split_session(session: SessionData, m: int, seed: int) -> SessionSplit:
    """Choose m states uniformly at random for parameter estimation.

    Index sets are returned sorted so downstream statistics do not depend
    on permutation internals.
    """
    N = session.n_states
    if not 0 <= m <= N:
        raise ValueError(f"m must be in [0, N], got m={m}, N={N}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(N)
    return SessionSplit(
        pe_indices=np.sort(perm[:m]),
        key_indices=np.sort(perm[m:]),
    )


def trial_seed(master_seed: int, stream: int, trial: int) -> int:
    """Derive an independent per-trial seed from a master seed.

    Rule: the child seed is the first 64-bit word of
    numpy.random.SeedSequence((master_seed, stream, trial)). Trials can
    therefore run in any order, or concurrently, and still reproduce.
    """
    ss = np.random.SeedSequence((master_seed, stream, trial))
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Session CSV format: header "index,x,x_m2,y", floats written with repr so
# a read-back reproduces the doubles bit-for-bit; x_m2 column is empty when
# the second modulation is off.

def write_session_csv(session: SessionData, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "x", "x_m2", "y"])
        has_m2 = session.x_m2 is not None
        for i in range(session.n_states):
            m2 = repr(float(session.x_m2[i])) if has_m2 else ""
            writer.writerow([i, repr(float(session.x[i])), m2,
                             repr(float(session.y[i]))])


def read_session_csv(path) -> SessionData:
    xs, m2s, ys = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["index", "x", "x_m2", "y"]:
            raise ValueError(f"unexpected session header: {header!r}")
        for row in reader:
            xs.append(float(row[1]))
            m2s.append(float(row[2]) if row[2] else None)
            ys.append(float(row[3]))
    if any(v is None for v in m2s) and any(v is not None for v in m2s):
        raise ValueError("x_m2 column must be all present or all empty")
    x_m2 = None if (not m2s or m2s[0] is None) else np.asarray(m2s, dtype=float)
    return SessionData(
        x=np.asarray(xs, dtype=float),
        y=np.asarray(ys, dtype=float),
        x_m2=x_m2,
        seed=None,
    )
