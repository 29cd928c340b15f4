"""Coherent-state fingerprinting protocols: codes, signal constellations,
error/leakage analysis, a truncated Fock-space verification oracle, and
Monte Carlo simulation.

The package exports the ``__all__`` of each of those six modules; that list
is the public API, kept in one place per module.
"""

from .analysis import *  # noqa: F401,F403
from .codes import *  # noqa: F401,F403
from .constellations import *  # noqa: F401,F403
from .leakage import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403

__version__ = "0.1.0"
