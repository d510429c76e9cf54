"""Simulation and verification toolkit for jump-diffusion Volterra equations.

The state solves an integral equation whose drift, diffusion, and jump
kernels may look back over the whole past, so paths are built grid point
by grid point and refined by successive approximation.  The analysis
layer checks the classical inequalities that make that construction
trustworthy: linear-growth and continuity-modulus audits, Doob maximal
bounds for the solution's stochastic integrals, a uniform second-moment
envelope, and the comparison argument that squeezes the approximation gap
to zero.
"""

from . import analysis, coefficients, errors, grid_noise, solver
from .analysis import *
from .coefficients import *
from .errors import *
from .grid_noise import *
from .solver import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names; cli stays out
# so that importing the package loads neither argparse nor the command line
__all__ = errors.__all__ + grid_noise.__all__ + coefficients.__all__ + solver.__all__ + analysis.__all__
