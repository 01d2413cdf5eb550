"""Exact combinatorics of finite Coxeter groups, subword complexes, and
multi-cluster complexes, with an experiment harness for desk-scale checks."""

from .coxeter import (
    CoxeterError,
    CoxeterSystem,
    Element,
    GroupDescriptor,
    ResourceLimitError,
    SignedRoot,
    demazure_product,
    element_from_word,
    enumerate_coxeter_words,
    equal_up_to_commutations,
    format_word,
    inversion_set,
    is_reduced,
    longest_element,
    parse_descriptor,
    parse_word,
    psi,
    reduced_word,
)
from .multicluster import (
    almost_positive_roots,
    c_compatible,
    csp_polynomial,
    facet_count_formula,
    gale_facets_rank2,
    lr_labels,
    multi_cluster_complex,
    multi_cluster_word,
    negative_simple,
    recognize_multi_cluster_word,
    sigma_involution,
    theta_orbits_on_facets,
    theta_permutation,
    type_a_bijection,
    type_b_bijection,
)
from .quivers import (
    Quiver,
    ar_quiver,
    beta_labels,
    check_mesh_relation,
    coxeter_quiver,
    export_dot,
    repetition_window,
)
from .sorting import (
    SortingWordReport,
    has_sin_property,
    rotate_word,
    sorting_word,
    sorting_word_w0,
)
from .subword import (
    SubwordComplex,
    f_vector,
    facet_count,
    facet_counts,
    flip,
    flip_graph,
    is_face,
    link,
    minimal_nonfaces,
    reduce_to_w0,
    reduced_euler_characteristic,
    subword_complex,
)

__version__ = "0.1.0"
