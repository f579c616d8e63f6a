"""Numerical graph weights on upper half-plane configuration spaces.

The package computes weights of admissible directed graphs with angle and
logarithmic edge propagators by deterministic quasi-Monte Carlo over
gauge-fixed configuration spaces, verifies the quadratic boundary
identities the weights satisfy, probes regularity and counterterm limits
near boundary strata, and assembles truncated star products for polynomial
bivector fields.
"""

from .graphs import (Graph, Contraction, make_graph, enumerate_graphs,
                     contract, canonical_key, canonical_graph, encode_graph,
                     parse_graph, CollapseLayout, collapse_layout, TYPE_I, TYPE_II)
from .halfplane import (Configuration, make_configuration, center_of_mass,
                        slice_columns, slice_map, gauge_dim, gauge_frame,
                        config_from_coords, NestedFamily,
                        chart_membership, gcd_families, torus_rotate,
                        degenerating_family)
from .forms import (ANGLE, LOG, pairing_matrices, pairing_scale,
                    integrand, contracted_integrand)
from .weights import (WeightEstimate, compute_weight, cached_weight, qmc_mean,
                      vanishing_check, detect_vanishing_pattern)
from .stokes import (BoundaryStratum, IdentityReport, CountertermReport,
                     boundary_strata, verify_identity,
                     counterterm_probe, richardson_limit)
from .operators import (PolyMultivector, MultiDiffOperator, StarSeries,
                        bivector, vector_field, d_gamma, u_n,
                        star_product, check_associativity, check_globalization,
                        one_in_one_out_integral)
from .suite import SuiteConfig, run_suite

__version__ = "0.1.0"
