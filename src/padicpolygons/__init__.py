"""Exact p-adic arithmetic for the polygon invariants (Hodge, Newton, tame
inertia) of filtered modules and strongly divisible lattices, with the
two-dimensional family construction and its mod-p reductions."""

from .arith import (INF, ConfigError, DivisibilityError, GF, KElem, K0Elem,
                    PrecisionError, RingConfig, SK0Elem, STrunc, TildePoly,
                    WittElem, WittRing)
from .polygons import Polygon, from_slopes, lies_above, merge, newton_polygon, \
    same_endpoint
from .adapted import (AdaptedBasis, ECarrier, PCarrier, UCarrier,
                      adapted_basis, divisor_exponents, hodge_weights,
                      minor_exponents)
from .fontaine import (FamilyParams, FilteredModule, family_module,
                       fil_contains, fil2_decompose, hermite_interpolant,
                       hodge_polygon, newton_polygon_phi, t_numbers, t_pi,
                       to_breuil_family, weakly_admissible_dim2)
from .breuil import (Classification, ClassificationError, FamilyElements,
                     StrongLattice, TildeObject, VerificationError,
                     analyze_family, build_elements, classify_rank2,
                     inertia_polygon, normalize_L, phi2_image,
                     pseudo_counterexample, rank1_inertia_weight,
                     reduce_mod_p, sabotaged_lattice, solve_eqX,
                     strong_lattice, verify_strong_divisibility)

__version__ = "0.1.0"
