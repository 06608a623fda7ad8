"""Simulation and estimation laboratory for random walks in random scenery.

Subpackages cover the discrete side (lattice walks, sceneries, exact
oracles), the continuum side (Brownian local-time fields, Gram
functionals, Brownian motion in random scenery and its local time), and the
harness tying the two together through scaling-law estimates.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    brownian,
    delta_process,
    errors,
    exact_oracle,
    harness,
    lattice_walk,
    scenery,
    simkit,
)

# after the submodule imports, so numpy's import runs under glibc's defaults
simkit._fix_malloc_thresholds()
