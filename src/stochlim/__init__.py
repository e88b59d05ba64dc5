"""Exact correlators of entangled field-particle operators, their
weak-coupling stochastic limit, and the free master-field algebra.

Each module's `__all__` is its part of the package API; `stochlim.cli`
is the command and is not imported here."""

from .correlator import *
from .diagrams import *
from .masterfield import *
from .oracle import *
from .quadrature import *
from .scalars import *
from .symbols import *
from .words import *

__version__ = "0.1.0"
