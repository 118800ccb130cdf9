"""Exact-arithmetic workbench for log-concavity phenomena on matroids and
posets: linear-extension statistics, basis counting sequences, mixed
discriminants, zonotope mixed volumes, Lorentzian certificates, and
Hodge-Riemann / Hard-Lefschetz certification of the Gorenstein quotient of a
basis generating polynomial.
"""

__version__ = "0.1.0"

from .linalg import (
    Graph,
    Inertia,
    QMatrix,
    count_eigs_below,
    det,
    incidence_matrix,
    inertia,
    laplacian,
    reduced_incidence_matrix,
    spanning_tree_count,
)
from .posets import (
    MarkedPoset,
    Poset,
    extension_extremes,
    kahn_saks_extremal_classify,
    kahn_saks_positivity,
    kahn_saks_sequence,
    midway_check,
    normalize,
    region_partition,
    stanley_chain_counts,
    stanley_equality_classify,
    stanley_sequence,
)
from .matroids import (
    FlatLattice, Matroid, ParallelData, unimodular_coordinatization_check
)
from .polynomials import (
    MPoly,
    basis_generating_poly,
    coefficient_logconcavity,
    lorentzian_check,
    m_convex,
    polarization,
    polarization_af_analog_check,
)
from .discriminants import (
    alexandrov_check,
    hyperbolic_check,
    mixed_discriminant,
    mixed_discriminant_gram,
    mixed_discriminant_perm,
    mixed_discriminant_sequence,
    psd_decompose,
)
from .stanley import (
    B_count,
    StanleySequence,
    g_polynomial,
    graphic_equality_check,
    mason_sequence,
    minkowski_route_check,
    mixed_volume_zonotopes,
    parallel_replicate,
    ratio_condition_check,
    stanley_matroid_sequence,
    zonotope_volume,
)
from .hodge import (
    MobiusAlgebra,
    annihilator_containment_probe,
    annihilator_kernel,
    facet_theorem_scan,
    graded_dims,
    hl_check,
    hr_form,
    hrr_check,
    in_annihilator,
    mobius_pairing,
    simplification_isomorphism_check,
    socle_check,
)
