"""Coherent-state CV-QKD: channel simulation, noise estimators, key rates.

The package root exports the Quick-start API; everything else is imported
from the submodules (``cvqkd.channel``, ``cvqkd.estimators``,
``cvqkd.security``, ``cvqkd.optimizer``, ``cvqkd.experiments``).
"""

from ._version import __version__
from .channel import ChannelParams, ProtocolParams, sample_session, split_session
from .estimators import (
    EstimatorKind,
    collect_statistics,
    estimate_sigma2_mle,
    estimate_t_mle,
)
from .optimizer import optimize_key_rate
from .security import key_rate_finite
