"""Product and linear relation verifiers, formal reduction, Z[1/2] table."""

import pytest

from motsteen import algebra, element_text, mul
from motsteen.bockstein import y
from motsteen.steenrod import basis_index
from motsteen.integral import int_ring, lift_generator, pb_mul
from motsteen.relations import (
    ConventionError,
    FormalPoly,
    algclosed_reduce,
    embed_formal,
    formal_mul,
    formula_element,
    position_sign,
    product_formula_terms,
    product_relation_sweep,
    shuffle_sign,
    verify_linear_relation,
    verify_product_relation,
    z12_relation_check,
)

H2 = algebra("algclosed", 2)
H3 = algebra("algclosed", 3)


def test_shuffle_sign():
    assert shuffle_sign((), ()) == 1
    assert shuffle_sign((1, 2), (3,)) == 1
    assert shuffle_sign((3,), (2,)) == -1
    assert shuffle_sign((2, 3), (1,)) == 1
    assert position_sign(1, (1, 2)) == 1
    assert position_sign(2, (1, 2)) == -1


def test_product_case_p2_simple():
    case = verify_product_relation(basis_index({}, (1,)), basis_index({}, (2,)), 2)
    assert case.matches == {"subscript": True, "printed": False}
    assert element_text(case.oracle) == "1 | xi1^1 xi2^1 | tau{}"
    assert "slot 0" in case.failures["printed"]


def test_product_case_p2_square_with_intersection_shift():
    # the square of the two-tau class needs the raised intersection delta
    case = verify_product_relation(
        basis_index({}, (1, 2)), basis_index({}, (1, 2)), 2
    )
    assert case.matches["subscript"]
    assert element_text(case.oracle) == (
        "tau^1 | xi1^2 xi3^1 | tau{} + tau^1 | xi2^3 | tau{}"
    )


def test_product_case_odd_p():
    case = verify_product_relation(basis_index({}, (1, 2)), basis_index({}, (1, 2)), 3)
    assert case.oracle.is_zero()
    assert case.matches["subscript"] and case.matches["printed"]
    case = verify_product_relation(basis_index({}, (1,)), basis_index({}, (1,)), 3)
    assert case.matches == {"subscript": True, "printed": False}
    assert element_text(case.oracle) == "1 | xi1^2 | tau{}"


def test_product_formula_consistency_with_oracle_oddp_disjoint():
    case = verify_product_relation(basis_index({}, (3,)), basis_index({}, (1, 2)), 3)
    assert case.matches["subscript"]
    el = formula_element(
        product_formula_terms(
            basis_index({}, (3,)), basis_index({}, (1, 2)), 3, "subscript"
        ),
        H3,
    )
    assert el == mul(y(basis_index({}, (3,)), H3), y(basis_index({}, (1, 2)), H3), H3)


def test_product_formula_empty_sets():
    # y[a, {}] = 0; the formula must collapse to zero as an element
    case = verify_product_relation(basis_index({1: 1}, ()), basis_index({}, (1, 2)), 3)
    assert case.oracle.is_zero()
    assert case.matches["subscript"]


def test_product_requires_rho_free_scheme():
    with pytest.raises(ValueError):
        verify_product_relation(
            basis_index({}, (1,)), basis_index({}, (1,)), 2, "real-p2"
        )


def test_product_sweep_uniform_convention():
    report, hard = product_relation_sweep(2, max_index=2, max_exp=1)
    assert hard == []
    assert report["uniform_convention"] == "subscript"
    assert report["matches"]["printed"] < report["cases"]


def test_linear_relation_examples():
    rep = verify_linear_relation({1: 1, 2: 1}, 1, 2)
    assert rep.ok
    assert rep.literal_sum_zero is True
    assert rep.signed_cases == [((1, 2), [(1, 1), (2, -1)], True)]
    rep = verify_linear_relation({1: 2}, 1, 2)
    assert rep.ok
    assert rep.literal_sum_zero is False  # the single term is xi_1^2
    rep = verify_linear_relation({1: 1}, 2, 2)
    assert rep.ok and rep.literal_sum_zero is None
    rep = verify_linear_relation({1: 1, 2: 1, 3: 1}, 2, 3)
    assert rep.ok
    with pytest.raises(ValueError):
        verify_linear_relation({1: 1}, 0, 2)


def test_formal_reduce_square():
    y01 = FormalPoly.symbol(2, basis_index({}, (1,)))
    red = algclosed_reduce(formal_mul(y01, y01))
    assert red.terms == {(0, (basis_index({1: 1}, (1,)),)): 1}


def test_formal_reduce_torsion_and_augmentation():
    y01 = FormalPoly.symbol(2, basis_index({}, (1,)))
    assert algclosed_reduce(y01.scaled(2)).terms == {}


def test_formal_reduce_nonmaximal_index():
    bad = FormalPoly.symbol(2, basis_index({2: 1}, (1,)))
    red = algclosed_reduce(bad)
    assert red.terms == {(0, (basis_index({1: 1}, (2,)),)): 1}
    # empty tau set is the zero class
    assert algclosed_reduce(FormalPoly.symbol(2, basis_index({1: 1}, ()))).terms == {}


def test_formal_reduce_is_ring_map_to_pullback():
    """reduce(x*z) agrees with the pullback product on y-symbol pairs.

    Exhaustive over pairs of U-maximal symbols whose degrees sum to at most
    25 (the per-symbol degree-25 family squared is covered by the seeded
    sample below).
    """
    import random

    from motsteen.bockstein import u_maximal_by_degree
    from motsteen.elements import mono_degree

    for p, h in ((2, H2), (3, H3)):
        ring = int_ring(h.scheme)
        idxs = []
        for eb, group in sorted(u_maximal_by_degree(p, 14).items()):
            if eb.d - 1 <= 25:
                idxs.extend(group)
        pairs = [
            (i1, i2)
            for i1 in idxs
            for i2 in idxs
            if (mono_degree(i1, p).d - 1) + (mono_degree(i2, p).d - 1) <= 25
        ]
        rng = random.Random(41)
        extra = [
            (rng.choice(idxs), rng.choice(idxs))
            for _ in range(60)
            if idxs
        ]
        for i1, i2 in pairs + extra:
            x = FormalPoly.symbol(p, i1)
            z = FormalPoly.symbol(p, i2)
            red = algclosed_reduce(formal_mul(x, z))  # round-trip check inside
            lhs = embed_formal(red, h, ring)
            rhs = pb_mul(
                lift_generator(("y", dict(i1.a), i1.U), h, ring),
                lift_generator(("y", dict(i2.a), i2.U), h, ring),
            )
            assert lhs.k == rhs.k and lhs.z == rhs.z, (p, i1, i2)


def test_formal_reduce_odd_p_parity():
    y012 = FormalPoly.symbol(3, basis_index({}, (1, 2)))  # odd topological degree
    assert algclosed_reduce(formal_mul(y012, y012)).terms == {}
    y03 = FormalPoly.symbol(3, basis_index({}, (3,)))     # even degree
    ab = algclosed_reduce(formal_mul(y012, y03))
    ba = algclosed_reduce(formal_mul(y03, y012))
    assert ab == ba


def test_printed_convention_error_reported():
    with pytest.raises(ConventionError):
        product_formula_terms(
            basis_index({}, (1,)), basis_index({}, (1,)), 2, "printed"
        )


def test_z12_relation_table():
    results = z12_relation_check()
    statuses = {s for _, s, _ in results}
    assert "FAIL" not in statuses
    warns = [(n, d) for n, s, d in results if s == "WARN"]
    assert len(warns) == 1
    assert "i-1+k" in warns[0][1]
