"""Simulation and verification toolkit for jump-diffusion Volterra equations.

The state solves an integral equation whose drift, diffusion, and jump
kernels may look back over the whole past, so paths are built grid point
by grid point and refined by successive approximation.  The analysis
layer checks the classical inequalities that make that construction
trustworthy: linear-growth and continuity-modulus audits, Doob maximal
bounds for the solution's stochastic integrals, a uniform second-moment
envelope, and the comparison argument that squeezes the approximation gap
to zero.

The namespace is lazy (PEP 562): ``import svie`` loads no module of the
package.  A module name (``svie.solver``) imports that module, and any
other public name imports the modules in dependency order, ``errors``,
``grid_noise``, ``coefficients``, ``solver``, ``analysis``, up to the
first whose ``__all__`` lists it.  So ``svie.build_grid`` loads
``errors`` and ``grid_noise`` only, and a run that never checks an
inequality never loads ``analysis``.  ``svie.cli`` stays out of the
namespace; ``svie simulate`` and ``svie picard`` load everything but
``analysis``, ``svie verify`` loads ``analysis`` too.
"""

__version__ = "0.1.0"

# dependency order: a module imports only modules listed before it
_MODULES = ("errors", "grid_noise", "coefficients", "solver", "analysis")


def __getattr__(name: str):
    if name in _MODULES:
        # the import statement's machinery binds the module here and, unlike
        # importlib.import_module, reports to ``python -X importtime``, which CI reads
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name == "__all__":
        # each module's __all__ is the one list of its public names; cli stays
        # out so that the package never loads argparse or the command line
        value = [public for module in _MODULES for public in __getattr__(module).__all__]
    else:
        # a dunder (a probe such as __wrapped__ or __path__) imports nothing
        owners = () if name.startswith("__") else map(__getattr__, _MODULES)
        owner = next((module for module in owners if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    # cached, so a later setattr on the package (a tracer's wrapper) wins
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
