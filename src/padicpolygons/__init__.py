"""Exact p-adic arithmetic for the polygon invariants (Hodge, Newton, tame
inertia) of filtered modules and strongly divisible lattices, with the
two-dimensional family construction and its mod-p reductions."""

from .arith import (INF, ConfigError, DivisibilityError, GF, KElem, K0Elem,
                    PrecisionError, RingConfig, STrunc, TildePoly, WittElem,
                    WittRing)
from .polygons import Polygon, from_slopes, lies_above, merge, newton_polygon, \
    same_endpoint
from .adapted import (ECarrier, PCarrier, UCarrier, divisor_exponents,
                      hodge_weights, minor_exponents)
from .fontaine import (FamilyParams, FilteredModule, family_module,
                       hermite_interpolant, hodge_polygon, newton_polygon_phi,
                       t_numbers, weakly_admissible_dim2)
from .breuil import (Classification, ClassificationError, FamilyElements,
                     StrongLattice, TildeObject, VerificationError,
                     analyze_family, build_elements, classify_rank2,
                     inertia_polygon, normalize_L, phi2_image,
                     pseudo_counterexample, reduce_mod_p, solve_eqX,
                     strong_lattice, verify_strong_divisibility)

__version__ = "0.1.0"
