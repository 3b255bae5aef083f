"""Degree-corrected stochastic block models with assortativity constraints.

Fit DC-SBMs by relocation local search, optionally constraining the block
parameter matrix to strong or weak assortativity (both solved exactly);
generate synthetic benchmark networks; evaluate partitions; and orchestrate
reproducible experiment sweeps.  Each module's ``__all__`` is republished.
"""

__version__ = "0.1.0"  # before the imports: benchmark reads it

from .core import *  # noqa: F401,F403
from .likelihood import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .search import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403
from .benchmark import *  # noqa: F401,F403
from . import benchmark, core, generators, likelihood, metrics, search, solver

__all__ = ["__version__", *core.__all__, *likelihood.__all__, *solver.__all__,
           *metrics.__all__, *search.__all__, *generators.__all__,
           *benchmark.__all__]
