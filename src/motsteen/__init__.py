"""Motivic dual Steenrod algebras and their Bockstein homology.

Exact computations in the mod-p dual Steenrod algebra over several base
schemes, the conjugation, the Bockstein differential with its block
decomposition, kernel bases, and the integral/p-adic pullback model, all
cross-checked against independent brute-force oracles.
"""

__version__ = "0.1.0"

from .grading import BETA_SHIFT, Bidegree, tau_degree, xi_degree
from .schemes import SCHEME_IDS, SchemeError, SchemePresentation, make_scheme
from .elements import (
    AlgebraHandle,
    CoeffMonomial,
    Element,
    SteenrodMonomial,
    Term,
    algebra,
    bidegree_of,
    element_text,
    mono_degree,
    mul,
    normalize,
    parse_element,
    parse_term,
    term_element,
    term_text,
)
from .linalg import FpBasis, FpMatrix, kernel_basis, rank
from .steenrod import (
    BasisIndex,
    basis_index,
    bidegree_basis,
    conjugate,
    eta,
)
from .bockstein import (
    Block,
    beta,
    beta_matrix,
    beta_report,
    block,
    block_complex,
    block_homology,
    free_bbeta_generators,
    ker_beta_basis,
    y,
)
from .integral import (
    IntCoeffRing,
    IntElement,
    PullbackElement,
    augment,
    int_ring,
    lift_generator,
    pb_mul,
    pb_torsion,
    q_map,
)
from .relations import (
    FormalPoly,
    algclosed_reduce,
    formal_mul,
    product_relation_sweep,
    verify_linear_relation,
    verify_product_relation,
    z12_relation_check,
)
