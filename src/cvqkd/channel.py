"""Gaussian loss-channel model and session sampling.

Everything is expressed in shot-noise units: Alice modulates coherent
states with variance V_A, the channel applies amplitude transmission
t = sqrt(T) and adds Gaussian noise of variance sigma2 = 1 + T*xi, so a
homodyne measurement on Bob's side reads

    y_i = t * (x_i + x_m2_i) + z_i,      z_i ~ N(0, sigma2),

where x_m2 is an optional second, independently modulated displacement
(variance V_M2) used by the correlation-based transmission estimator.

``sample_session`` draws every state of a session. ``sample_moments``
draws only the moment sums the estimators read, in O(1) per session.
"""

from __future__ import annotations

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
    "sample_moments",
    "trial_seed",
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
    V_M2: float = 0.0

    def __post_init__(self):
        if self.V_A <= 0:
            raise ValueError(f"V_A must be > 0, got {self.V_A}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not 0 <= self.m <= self.N:
            raise ValueError(f"m must be in [0, N], got m={self.m}, N={self.N}")
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
    return SessionData(x=x, y=y, x_m2=x_m2)


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


def _wishart_sums(a: float, b: float, c: float, chi: np.ndarray,
                  chi_rest: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Sums (uu, uy, yy) of Wishart(L L^T, k) draws, one per element of chi.

    L = [[a, 0], [b, c]] is the Cholesky factor of the per-state covariance
    of (u, y). Bartlett: with chi ~ chi2(k), chi_rest ~ chi2(k - 1) and
    z ~ N(0, 1) independent, the sums are L A A^T L^T for
    A = [[sqrt(chi), 0], [z, sqrt(chi_rest)]]:

        uu = a**2 * chi
        uy = a * (b*chi + c*sqrt(chi)*z)
        yy = b**2*chi + 2*b*c*sqrt(chi)*z + c**2 * (z**2 + chi_rest)
    """
    root = np.sqrt(chi)
    lower = b * root + c * z
    return np.column_stack((a * a * chi, a * root * lower,
                            lower * lower + c * c * chi_rest))


def sample_moments(protocol: ProtocolParams, channel: ChannelParams,
                   trials: int, master_seed: int, stream: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moment sums of ``trials`` sessions, drawn without drawing the states.

    Returns ``(pe, key, m2)``, arrays of shape (trials, 3) whose columns are
    the sums (uu, uy, yy) and whose row i is trial i:

    * ``pe`` and ``key``: u = x over the m revealed and the n = N - m kept
      states of a session without the second modulation. These are
      independent Wishart(S, m) and Wishart(S, n) draws with
      S = [[V_A, t*V_A], [t*V_A, T*V_A + sigma2]];
    * ``m2``: u = x_m2 over all N states of an independent session with
      the second modulation on, a Wishart(S2, N) draw with
      S2 = [[V_M2, t*V_M2], [t*V_M2, T*(V_A + V_M2) + sigma2]].

    The law is that of the per-state sums of ``sample_session`` and
    ``split_session``, not an approximation. Stream map: the generator
    seeded with SeedSequence((master_seed, stream)) draws
    chi2(k) = 2*Gamma(k/2) for k = (m, m-1, n, n-1, N, N-1), shape
    (trials, 6) in row-major order (the draws of Generator.chisquare,
    also defined at k = 0); the one seeded with
    SeedSequence((master_seed, stream + 1)) draws standard_normal
    (trials, 3). Row i uses only the i-th draws, so a shorter run is a
    prefix of a longer one.
    """
    m, n, N = protocol.m, protocol.n, protocol.N
    if m == 0 or n == 0:
        raise ValueError(f"need 1 <= m <= N-1, got m={m}, N={N}")
    dof = np.array([m, m - 1, n, n - 1, N, N - 1], dtype=float)
    chi = 2.0 * np.random.default_rng(
        np.random.SeedSequence((master_seed, stream))
    ).standard_gamma(dof / 2.0, size=(trials, 6))
    z = np.random.default_rng(
        np.random.SeedSequence((master_seed, stream + 1))
    ).standard_normal((trials, 3))

    t, sigma2 = channel.t, channel.sigma2
    a = sqrt(protocol.V_A)
    pe = _wishart_sums(a, t * a, sqrt(sigma2), chi[:, 0], chi[:, 1], z[:, 0])
    key = _wishart_sums(a, t * a, sqrt(sigma2), chi[:, 2], chi[:, 3], z[:, 1])
    a2 = sqrt(protocol.V_M2)
    m2 = _wishart_sums(a2, t * a2, sqrt(channel.T * protocol.V_A + sigma2),
                       chi[:, 4], chi[:, 5], z[:, 2])
    return pe, key, m2


def trial_seed(master_seed: int, stream: int, trial: int) -> int:
    """Derive an independent per-trial seed from a master seed.

    Rule: the child seed is the first 64-bit word of
    numpy.random.SeedSequence((master_seed, stream, trial)). Trials can
    therefore run in any order, or concurrently, and still reproduce.
    """
    ss = np.random.SeedSequence((master_seed, stream, trial))
    return int(ss.generate_state(1, np.uint64)[0])

