"""Feasibility seeking in R^d by modular averaging of projection-like operators.

The pieces, bottom up: :mod:`~strav.operators` builds operator trees with
certified contraction constants, :mod:`~strav.sets` supplies exact
projections and the lazily materialized input family, :mod:`~strav.gmsa`
validates per-iteration construction plans and prices their guarantees,
:mod:`~strav.control` decides which plan runs when and audits coverage,
:mod:`~strav.solver` drives the relaxed iteration with optional bounded
perturbations, :mod:`~strav.superiorize` steers it by an objective, and
:mod:`~strav.dsa` maps string-averaging descriptions onto plans.
"""

from . import config, control, dsa, gmsa, numeric, operators, sets, solver, superiorize
from .config import *
from .control import *
from .dsa import *
from .gmsa import *
from .numeric import *
from .operators import *
from .sets import *
from .solver import *
from .superiorize import *

__version__ = "0.1.0"

# each module's __all__ is the one export list; the package re-exports them all
__all__ = [
    name
    for module in (numeric, operators, sets, gmsa, control, solver, superiorize, dsa, config)
    for name in module.__all__
] + ["__version__"]
