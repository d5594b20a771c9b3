"""Extremal intersecting families of k-multisets over [n] with a multiplicity cap.

Construction and exact counting of the star and tail-interval families, the
coefficient table that links subset supports to multiset counts, and
exhaustive desk-scale verification of the non-trivial maximum bound, its
uniqueness clause, and the structural facts behind it.
"""

from .params import (
    Cap, InvariantError, Params, ParameterError, SearchCapError, UNBOUNDED, cap_text,
    is_unbounded, parse_cap, q_of,
)
from .coeffs import CoeffPropertyReport, CoeffTable, check_coeff_properties, coeff, coeff_table
from .multiset import (
    Multiset, MultisetFamily, Permutation, UNIVERSAL, apply_permutation, canonical_form,
    cardinality, count_k_multisets, enumerate_k_multisets, families_isomorphic, intersect,
    is_intersecting_mf, is_maximal_intersecting_mf, is_trivial, permute_family, support,
    total_intersection, validate_permutation,
)
from .subsets import (
    SetFamily, build_hm_shadow, build_removed_part, build_star, canonical_set_family,
    complement_mask, dual, elements_from_mask, hm_shadow_layer_size, hm_shadow_valuable,
    is_down_set_in_star, is_intersecting_sf, is_maximal_intersecting_definitional,
    is_maximal_intersecting_sf, is_up_set, mask_from_elements, pair_rule_holds,
    set_families_isomorphic, twist, uniform_part, union_never_full, valuable_part,
)
from .families import (
    build_ekr, build_hm, difference_formula, ekr_size, family_support, hm_size,
    nontrivial_bound_sets, nontrivial_bound_unbounded, preimage, preimage_family,
    preimage_size, star_bound_sets, verify_hm_maximal,
)
from .search import (
    CHECK_LAYER_DOMINANCE, CHECK_REMOVED_LAYER, CHECK_VALUABLE_RIGIDITY,
    DEFAULT_ENUMERATION_CAP, DEFAULT_ORACLE_VERTEX_CAP, LEMMA_CHECKS,
    VerificationResults, count_iso_classes, count_maximal_families, enumerate_maximal_families,
    naive_enumerate_maximal, raw_max_nontrivial, run_verification, uniqueness_condition,
    verify_grid, verify_hm_theorem, verify_layer_dominance, verify_lemma_bundle,
    verify_removed_layer, verify_valuable_rigidity,
)
from .reporting import LemmaReport, TheoremReport, TOOL_VERSION, to_canonical_json

__version__ = TOOL_VERSION
