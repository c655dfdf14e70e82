"""Kinematic-wave traffic dynamics on diverge-merge and ring networks.

Library layers:

* fundamental  -- flow-density diagrams, demand/supply decomposition
* network      -- network specifications, stationary-state catalog, builders
* poincare     -- the first-return map, fixed points, stability, two-cycles
* bifurcation  -- route-split sweeps and regime boundaries
* extended     -- ring-of-stages and beltway return maps, gridlock analysis
* ctm          -- cell-transmission simulation of the full network model
* validation   -- simulation-versus-map cross checks and period-root oracles
* cli          -- scenario-driven command line (analyze/orbit/sweep/...)
"""

from .bifurcation import (BifurcationPoint, Transition, boundary_values,
                          regime_boundaries, sweep_xi)
from .ctm import (RunRecord, SimConfig, Simulation, diverge_flux,
                  initialize_beltway_congested, initialize_dm_stationary,
                  initialize_dmn_stationary, merge_flux)
from .errors import (ConfigurationError, DmflowError, DomainError,
                     UnsupportedRegimeError)
from .extended import (BeltwayFactor, BeltwaySpec, DmnClassification,
                       DmnPattern, GridlockClass, beltway_classify,
                       beltway_factor, beltway_half_life, dmn_classify,
                       dmn_fixed_points, dmn_orbit, dmn_perturbation_factor,
                       dmn_step)
from .fundamental import (FundamentalDiagram, GreenshieldsDiagram,
                          TrafficState, TriangularDiagram)
from .network import (Approach, Branch, Destination, Diverge, DmSpec, Link,
                      LinkProfile, LinkRegime, Merge, Network, Origin,
                      StationaryState, build_beltway, build_dm, build_dmn,
                      dm_diagrams, stationary_profile, stationary_states)
from .piecewise import PiecewiseLinear
from .poincare import (Circulation, PeriodTwoPoints, PoincareMap, Regime,
                       StabilityClass, StabilityReport, build_map,
                       classify_regime, classify_stability, cobweb,
                       fixed_point, period2_points)
from .validation import (OscillationReport, ValidationResult, Verdict,
                         brute_force_period_roots, detect_oscillation,
                         measure_decay_ratio, scan_period_roots,
                         validate_spec)

__version__ = "0.1.0"
