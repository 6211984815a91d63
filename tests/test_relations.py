"""Product and linear relation verifiers, Z[1/2] table."""

import pytest

from motsteen import algebra, element_text, mul
from motsteen.bockstein import y
from motsteen.steenrod import basis_index
from motsteen.relations import (
    ConventionError,
    _product_case,
    formula_element,
    position_sign,
    product_formula_terms,
    product_relation_sweep,
    shuffle_sign,
    verify_linear_relation,
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
    case = _product_case(basis_index({}, (1,)), basis_index({}, (2,)), H2)
    assert case.matches == {"subscript": True, "printed": False}
    assert element_text(case.oracle) == "1 | xi1^1 xi2^1 | tau{}"
    assert "slot 0" in case.failures["printed"]


def test_product_case_p2_square_with_intersection_shift():
    # the square of the two-tau class needs the raised intersection delta
    case = _product_case(basis_index({}, (1, 2)), basis_index({}, (1, 2)), H2)
    assert case.matches["subscript"]
    assert element_text(case.oracle) == (
        "tau^1 | xi1^2 xi3^1 | tau{} + tau^1 | xi2^3 | tau{}"
    )


def test_product_case_odd_p():
    case = _product_case(basis_index({}, (1, 2)), basis_index({}, (1, 2)), H3)
    assert case.oracle.is_zero()
    assert case.matches["subscript"] and case.matches["printed"]
    case = _product_case(basis_index({}, (1,)), basis_index({}, (1,)), H3)
    assert case.matches == {"subscript": True, "printed": False}
    assert element_text(case.oracle) == "1 | xi1^2 | tau{}"


def test_product_formula_consistency_with_oracle_oddp_disjoint():
    case = _product_case(basis_index({}, (3,)), basis_index({}, (1, 2)), H3)
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
    case = _product_case(basis_index({1: 1}, ()), basis_index({}, (1, 2)), H3)
    assert case.oracle.is_zero()
    assert case.matches["subscript"]


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
