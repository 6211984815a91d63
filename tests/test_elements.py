"""Core arithmetic: normalization, products, gradings, text form."""

import random

import pytest

from motsteen import (
    algebra,
    bidegree_of,
    element_text,
    mul,
    term_element,
    xi_degree,
    tau_degree,
)
import oracles
from motsteen import elements
from motsteen.elements import (
    COEFF_ONE,
    STEENROD_ONE,
    CoeffMonomial,
    Element,
    SteenrodMonomial,
)
from motsteen.schemes import SchemeError, make_scheme
from motsteen.steenrod import basis_index, eta, steenrod_monomials_by_degree

H2 = algebra("algclosed", 2)
H3 = algebra("algclosed", 3)
HR = algebra("real-p2", 2)
HZ = algebra("z-half", 2)


def test_generator_bidegrees():
    assert xi_degree(2, 1) == (2, 1)
    assert tau_degree(3, 1) == (5, 2)
    assert tau_degree(2, 0) == (1, 0)
    assert xi_degree(3, 2) == (16, 8)


def test_bidegree_of_examples():
    assert bidegree_of((COEFF_ONE, SteenrodMonomial(((1, 1),), ())), H2.scheme) == (2, 1)
    assert bidegree_of((COEFF_ONE, SteenrodMonomial((), (1,))), H3.scheme) == (5, 2)
    rt = CoeffMonomial(rho=1, tau=1)
    assert bidegree_of((rt, SteenrodMonomial((), ())), HR.scheme) == (-1, -2)


def test_bidegree_additive_on_monomial_products():
    monos = [m for _, m in oracles.unpacked(steenrod_monomials_by_degree(2, 10, 1))]
    for m1 in monos[:20]:
        for m2 in monos[:20]:
            x = term_element(2, 1, COEFF_ONE, m1)
            z = term_element(2, 1, COEFF_ONE, m2)
            prod = mul(x, z, H2)
            if len(prod.terms) == 1:
                got = prod.homogeneous_bidegree(H2.scheme)
                want = bidegree_of((COEFF_ONE, m1), H2.scheme) + bidegree_of(
                    (COEFF_ONE, m2), H2.scheme
                )
                assert got == want


def test_normalize_tau_square_p2():
    t1 = eta(basis_index({}, [1]), H2)
    assert element_text(mul(t1, t1, H2)) == "tau^1 | xi2^1 | tau{}"


def test_normalize_tau_square_real_has_rho_term():
    t1 = eta(basis_index({}, [1]), HR)
    assert element_text(mul(t1, t1, HR)) == "tau^1 | xi2^1 | tau{} + rho^1 | 1 | tau{2}"


def test_normalize_tau_square_odd_p_is_zero():
    t1 = eta(basis_index({}, [1]), H3)
    assert mul(t1, t1, H3).is_zero()


def test_normalize_full_algebra_tau0_term():
    ha = algebra("real-p2", 2, ambient="a")
    t0 = eta(basis_index({}, [0]), ha)
    # tau_0^2 = xi_1 tau + xi_1 tau_0 rho + tau_1 rho
    assert element_text(mul(t0, t0, ha)) == (
        "tau^1 | xi1^1 | tau{} + rho^1 | 1 | tau{1} + rho^1 | xi1^1 | tau{0}"
    )


def test_normalize_coefficient_relations():
    eps, rho = (term_element(2, 1, CoeffMonomial(**{g: 1})) for g in ("eps", "rho"))
    assert mul(eps, rho, HZ).is_zero()
    assert mul(eps, eps, HZ).is_zero()


def test_normalize_rejects_foreign_generator():
    with pytest.raises(SchemeError):
        mul(term_element(2, 1, CoeffMonomial(theta=1)), Element.one(2), H2)


def test_normalize_rejects_low_tau_index():
    with pytest.raises(ValueError):  # mz form has no tau_0
        mul(term_element(2, 1, COEFF_ONE, SteenrodMonomial((), (0,))), Element.one(2), H2)


def _unchecked(p, key):
    """An element built directly, past every check, with key as its second term."""
    return Element(p, {elements._pack((COEFF_ONE, SteenrodMonomial(((1, 1),), ()))): 1,
                       elements._pack(key): 1})


@pytest.mark.parametrize("coeff", [CoeffMonomial(theta=1), CoeffMonomial(eps=1, tau=1),
                                   CoeffMonomial(rho=2)])
def test_mul_checks_every_term_of_both_factors_for_foreign_generators(coeff):
    bad = _unchecked(2, (coeff, SteenrodMonomial((), (2,))))
    for other in (eta(basis_index({1: 1}, [1]), H2), Element.zero(2)):
        for x, z in ((bad, other), (other, bad)):
            with pytest.raises(SchemeError, match="not present for scheme algclosed"):
                mul(x, z, H2)


def test_mul_checks_every_term_of_both_factors_for_low_tau_indices():
    bad = _unchecked(2, (COEFF_ONE, SteenrodMonomial((), (0, 2))))
    for other in (eta(basis_index({1: 1}, [1]), H2), Element.zero(2)):
        for x, z in ((bad, other), (other, bad)):
            with pytest.raises(ValueError, match="tau index 0 below the minimum 1"):
                mul(x, z, H2)
    # tau_0 belongs to the full algebra
    ha = algebra("algclosed", 2, ambient="a")
    assert not mul(bad, bad, ha).is_zero()


def test_mul_disjoint_taus():
    t1 = eta(basis_index({}, [1]), H2)
    t2 = eta(basis_index({}, [2]), H2)
    assert element_text(mul(t1, t2, H2)) == "1 | 1 | tau{1,2}"


def test_mul_koszul_sign_odd_p():
    t1 = eta(basis_index({}, [1]), H3)
    t2 = eta(basis_index({}, [2]), H3)
    assert mul(t2, t1, H3) == mul(t1, t2, H3).scaled(-1)


def test_mul_square_with_cross_terms():
    x = eta(basis_index({1: 1}, []), H2) + eta(basis_index({}, [1]), H2)
    assert element_text(mul(x, x, H2)) == "1 | xi1^2 | tau{} + tau^1 | xi2^1 | tau{}"


def test_mul_rejects_mixed_primes():
    with pytest.raises(ValueError):
        mul(eta(basis_index({}, [1]), H2), eta(basis_index({}, [1]), H3), H2)


def test_packing_refuses_what_does_not_fit():
    # an exponent of 2^(W-1) in a coefficient or a xi field, or a tau index of
    # 32, has no place in the packed layout; an element refuses it when it is
    # built, and mul refuses a tau_31^2 rewrite, whose leaf would hold tau_32
    big = 1 << (elements._W - 1)
    for key, match in (
        ((CoeffMonomial(tau=big), STEENROD_ONE), f"exponent {big} "),
        ((COEFF_ONE, SteenrodMonomial(((3, big),), ())), f"exponent {big} "),
        ((COEFF_ONE, SteenrodMonomial((), (1, 32))), "tau indices .*32.* do not fit"),
    ):
        with pytest.raises(ValueError, match=match):
            elements._pack(key)
        with pytest.raises(ValueError, match=match):
            term_element(2, 1, *key)
        if key[0] == COEFF_ONE:
            with pytest.raises(ValueError, match=match):
                eta(basis_index(dict(key[1].xi), key[1].taus), HR)
    tau_31 = eta(basis_index({}, [31]), HR)
    with pytest.raises(ValueError, match="tau indices .*32.* do not fit"):
        mul(tau_31, tau_31, HR)


def test_products_near_the_field_limit_match_the_oracle():
    # xi_1^(2^(W-2)) squared, and a square whose tau sets meet on factors
    # with exponents just below the packing limit: no field carries
    limit = elements._EXP_LIMIT
    half = 1 << (elements._W - 2)
    xi = term_element(2, 1, COEFF_ONE, SteenrodMonomial(((1, half),), ()))
    top = term_element(2, 1, CoeffMonomial(rho=limit - 1, tau=limit - 1),
                       SteenrodMonomial(((1, limit - 1), (2, limit - 1)), (1, 2)))
    for x, h in ((xi, H2), (xi, HR), (top, HR), (top, algebra("real-p2", 2, ambient="a"))):
        got = mul(x, x, h)
        assert not got.is_zero()
        assert oracles.terms(got) == oracles.terms(oracles.mul(x, x, h))
    assert element_text(mul(xi, xi, H2)) == f"1 | xi1^{2 * half} | tau{{}}"


def test_graded_commutativity_exhaustive():
    for h in (H3, algebra("finite-field", 3, q=7)):
        monos = [m for _, m in oracles.unpacked(steenrod_monomials_by_degree(3, 20, 1))]
        coeffs = [COEFF_ONE, CoeffMonomial(tau=1)]
        if "eps" in h.scheme.gens:
            coeffs.append(CoeffMonomial(eps=1))
        elems = [term_element(3, 1, c, m) for m in monos for c in coeffs]
        for x in elems:
            dx = x.homogeneous_bidegree(h.scheme).d
            for z in elems:
                dz = z.homogeneous_bidegree(h.scheme).d
                sign = -1 if (dx & 1) and (dz & 1) else 1
                assert mul(x, z, h) == mul(z, x, h).scaled(sign)


def test_associativity_sampled():
    rng = random.Random(11)
    monos = steenrod_monomials_by_degree(3, 18, 1)
    elems = [Element(3, {m: 1}) for m in monos]
    for _ in range(150):
        x, z, w = (rng.choice(elems) for _ in range(3))
        assert mul(mul(x, z, H3), w, H3) == mul(x, mul(z, w, H3), H3)


def test_unital():
    one = term_element(2, 1)
    x = eta(basis_index({1: 2}, [1, 3]), H2)
    assert mul(one, x, H2) == x
    assert mul(x, one, H2) == x


def test_homogeneous_bidegree_rejects_mixed():
    x = eta(basis_index({1: 1}, []), H2) + term_element(2, 1)
    with pytest.raises(ValueError):
        x.homogeneous_bidegree(H2.scheme)


def test_scheme_validation():
    with pytest.raises(SchemeError):
        make_scheme("z-half", 3)
    with pytest.raises(SchemeError):
        make_scheme("finite-field", 3, q=9)  # p divides q
    with pytest.raises(SchemeError):
        make_scheme("algclosed", 4)
    with pytest.raises(SchemeError):
        make_scheme("real-odd", 2)
    for scheme_id in ("algclosed", "real", "z-half", "bare"):
        with pytest.raises(SchemeError, match="q applies only to finite-field"):
            make_scheme(scheme_id, 2, q=7)
    assert make_scheme("finite-field", 2, q=7).rho_element == "eps"  # 7 = 3 mod 4
    assert make_scheme("finite-field", 2, q=5).rho_element is None
    assert make_scheme("finite-field", 3, q=7).coeff_bockstein == {"tau": "eps"}
    assert make_scheme("finite-field", 3, q=19).coeff_bockstein == {}  # 9 | 18
    # tau is no class over F_q unless p divides q - 1
    with pytest.raises(SchemeError, match="requires p dividing q - 1"):
        make_scheme("finite-field", 3, q=5)
