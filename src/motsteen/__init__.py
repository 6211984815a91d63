"""Motivic dual Steenrod algebras and their Bockstein homology.

Exact computations in the mod-p dual Steenrod algebra over several base
schemes, the conjugation, the Bockstein differential with its block
decomposition, kernel bases, and the integral/p-adic pullback model, all
cross-checked against independent brute-force oracles.

Each exported name loads its submodule on first use (PEP 562), so importing
the package, or one command's modules, does not load the others.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "grading": ("BETA_SHIFT", "Bidegree", "tau_degree", "xi_degree"),
    "schemes": ("SchemeError", "SchemePresentation", "make_scheme"),
    "elements": (
        "AlgebraHandle", "CoeffMonomial", "Element", "SteenrodMonomial", "Term",
        "algebra", "bidegree_of", "element_text", "mono_degree", "mul", "term_element",
        "term_text",
    ),
    "linalg": ("FpBasis", "kernel_basis", "rank"),
    "steenrod": ("BasisIndex", "basis_index", "bidegree_basis", "conjugate", "eta"),
    "bockstein": (
        "Block", "beta", "beta_report", "block", "block_complex",
        "block_homology", "free_bbeta_generators", "ker_beta_basis", "y",
    ),
    "integral": (
        "IntCoeffRing", "IntElement", "PullbackElement", "augment", "fiber_coordinate",
        "pb_mul", "pb_torsion", "q_map",
    ),
    "relations": (
        "product_relation_sweep", "verify_linear_relation", "z12_relation_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
