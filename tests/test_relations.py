"""Product and linear relation verifiers, Z[1/2] table."""

import gc

import pytest

import oracles
from motsteen import algebra, element_text, mul
from motsteen.bockstein import y
from motsteen.steenrod import basis_index
from motsteen.relations import (
    ConventionError,
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


def _oracle_text(aU, bT, h):
    return element_text(mul(y(aU, h), y(bT, h), h))


def test_product_case_p2_simple():
    aU, bT = basis_index({}, (1,)), basis_index({}, (2,))
    matches, failures = oracles.product_case(aU, bT, H2)
    assert matches == {"subscript": True, "printed": False}
    assert _oracle_text(aU, bT, H2) == "1 | xi1^1 xi2^1 | tau{}"
    assert "slot 0" in failures["printed"]


def test_product_case_p2_square_with_intersection_shift():
    # the square of the two-tau class needs the raised intersection delta
    aU = basis_index({}, (1, 2))
    matches, _ = oracles.product_case(aU, aU, H2)
    assert matches["subscript"]
    assert _oracle_text(aU, aU, H2) == (
        "tau^1 | xi1^2 xi3^1 | tau{} + tau^1 | xi2^3 | tau{}"
    )


def test_product_case_odd_p():
    aU = basis_index({}, (1, 2))
    matches, _ = oracles.product_case(aU, aU, H3)
    assert mul(y(aU, H3), y(aU, H3), H3).is_zero()
    assert matches["subscript"] and matches["printed"]
    aU = basis_index({}, (1,))
    matches, _ = oracles.product_case(aU, aU, H3)
    assert matches == {"subscript": True, "printed": False}
    assert _oracle_text(aU, aU, H3) == "1 | xi1^2 | tau{}"


def test_product_formula_consistency_with_oracle_oddp_disjoint():
    aU, bT = basis_index({}, (3,)), basis_index({}, (1, 2))
    matches, _ = oracles.product_case(aU, bT, H3)
    assert matches["subscript"]
    el = oracles.formula_element(product_formula_terms(aU, bT, 3, "subscript"), H3)
    assert el == mul(y(aU, H3), y(bT, H3), H3)


def test_product_formula_empty_sets():
    # y[a, {}] = 0; the formula must collapse to zero as an element
    aU, bT = basis_index({1: 1}, ()), basis_index({}, (1, 2))
    matches, _ = oracles.product_case(aU, bT, H3)
    assert mul(y(aU, H3), y(bT, H3), H3).is_zero()
    assert matches["subscript"]


def test_product_sweep_uniform_convention():
    report, hard = product_relation_sweep(2, max_index=2, max_exp=1)
    assert hard == []
    assert report["uniform_convention"] == "subscript"
    assert report["matches"]["printed"] < report["cases"]


@pytest.mark.parametrize("p", [2, 3])
def test_product_sweep_leaves_no_reference_cycle(p):
    # the printed convention refuses some keys; a refusal kept as an exception
    # would hold its traceback, expand's frame and through it the sweep's
    # frame with every formula, a cycle only the cyclic collector frees
    gc.collect()
    gc.disable()
    try:
        product_relation_sweep(p, 2, 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
