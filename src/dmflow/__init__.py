"""Kinematic-wave traffic dynamics on diverge-merge and ring networks.

Library layers:

* fundamental  -- flow-density diagrams, demand/supply decomposition
* network      -- network specifications, stationary-state catalog, builders
* poincare     -- the first-return map, fixed points, stability, two-cycles
* bifurcation  -- route-split sweeps and regime boundaries
* extended     -- ring-of-stages and beltway return maps, gridlock analysis
* ctm          -- cell-transmission simulation of the full network model
* validation   -- simulation-versus-map cross checks and the decay-ratio fit
* cli          -- scenario-driven command line (analyze/orbit/sweep/...)

The package re-exports the names of the README's library sketch and the
error types; everything else is imported from its module.
"""

from .bifurcation import sweep_xi
from .ctm import SimConfig, Simulation
from .errors import (ConfigurationError, DmflowError, DomainError,
                     UnsupportedRegimeError)
from .network import DmSpec, build_dm
from .poincare import build_map, classify_stability
from .validation import validate_spec

__all__ = ["DmSpec", "classify_stability", "build_map", "sweep_xi",
           "build_dm", "Simulation", "SimConfig", "validate_spec",
           "DmflowError", "ConfigurationError", "DomainError",
           "UnsupportedRegimeError"]

__version__ = "0.1.0"
