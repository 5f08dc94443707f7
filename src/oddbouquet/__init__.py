"""Exact h-vectors and Gorenstein classification for edge rings of graphs
made of odd cycles sharing one vertex."""

from .composition import (
    CycleParts,
    LabeledGraph,
    OddCycleComposition,
    bits,
    build_from_k,
    build_from_r,
    cycle_parts,
    labeled_graph,
)
from .ringinv import (
    GorensteinReport,
    classify,
    cm_type,
    e_tilde_closed,
    e_tilde_from_h,
    h_closed_form,
    h_recursive,
    multiplicity,
)
from .srcomplex import (
    DecompositionReport,
    FVector,
    SimplicialComplex,
    f_vector,
    facets_brute_force,
    facets_closed_form,
    h_by_complex,
    h_from_f,
    hilbert_from_h,
    shelling_h_vector,
    verify_decomposition,
)
from .toric import (
    Binomial,
    Monomial,
    edge_subring_hilbert,
    edge_subring_hilbert_series,
    generators,
    grlex_cmp,
    kernel_check,
    leading_monomial,
    s_pair_reduces_to_zero,
    standard_monomial_count,
    standard_monomial_series,
    vertex_exponent_vector,
)

__version__ = "0.1.0"
