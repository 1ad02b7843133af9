"""Euclidean kernels for a particle in a box with an inverse-sine-squared potential.

Three independent computations of the same kernel, built to be played
against each other:

* :mod:`boxkernel.spectral`  -- eigenfunction expansion with a proven tail bound
* :mod:`boxkernel.closedform` -- closed Bessel short-time form and the
  Gegenbauer-Bessel addition identity behind it
* :mod:`boxkernel.pathsum`   -- reflection-path decompositions, including the
  coupling-dependent boundary phase

plus :mod:`boxkernel.specfun` (the special functions underneath) and
:mod:`boxkernel.verify` (quadrature, comparison harness, invariant suites).
"""

from . import closedform, errors, pathsum, specfun, spectral, verify
from .closedform import *
from .errors import *
from .pathsum import *
from .specfun import *
from .spectral import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    name for module in (errors, specfun, spectral, closedform, pathsum, verify) for name in module.__all__
] + ["__version__"]
