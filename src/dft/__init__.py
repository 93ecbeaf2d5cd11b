"""Discriminant forms, isotropic lifts and the Weil representation.

Exact-arithmetic toolkit: genus symbols are parsed into explicit finite
quadratic modules, the span of all isotropic lifts inside the group
algebra is computed over Q with certified rank, the Weil representation
matrices are checked in exact cyclotomic arithmetic, and the structural
"small type" classification is verified against the linear algebra.
"""

from .symbols import (GenusSymbol, JordanComponent, enumerate_symbols,
                      format_symbol, normalize_oddity, parse_symbol)
from .fqm import (DiscriminantForm, Subgroup, b_value, build_form,
                  direct_sum, element_order, level, milgram_check, order,
                  orthogonal_complement, p_part, q_value, quotient_form,
                  signature, subgroup, subgroup_from_generators)
from .lifts import (LiftMap, check_transitivity, descent_matrix,
                    e_gamma_in_image, isotropic_elements, isotropic_subgroups,
                    kernel_vector, lift_matrix, lift_span,
                    odd_cycle_expression, prime_order_subgroups,
                    rank5_expression)
from .classify import (IsotropyGraph, SmallTypeVerdict, build_isotropy_graph,
                       contains_isotropic_elementary, gamma_in_image_by_graph,
                       graph_to_dot, max_isotropic_rank, no_cube_catalog_check,
                       small_type)
from .weil import (ScaledWeilMatrix, check_lift_equivariance, check_relations,
                   rho_S_scaled, rho_T)

__all__ = [name for name in dir() if not name.startswith("_")]
