"""Monomial bases, the conjugation, and the integral-form embedding."""

import random

import pytest

import oracles
from motsteen import SchemeError, algebra, element_text, elements, mul, steenrod, term_element
from motsteen.elements import (
    COEFF_ONE, CoeffMonomial, Element, SteenrodMonomial, _pack, mono_degree,
)
from motsteen.grading import Bidegree
from motsteen.steenrod import (
    BasisIndex,
    _mz_image_packed,
    basis_index,
    bidegree_basis,
    coeff_monomials,
    conjugate,
    eta,
    populated_bidegrees,
    steenrod_monomials_by_degree,
    u_maximal,
)
from oracles import generator

H2 = algebra("algclosed", 2)
H3 = algebra("algclosed", 3)
HR = algebra("real-p2", 2)
HA2 = algebra("algclosed", 2, ambient="a")
HA3 = algebra("algclosed", 3, ambient="a")
HAR = algebra("real-p2", 2, ambient="a")


def chi_of(kind, r, h):
    """chi(xi_r) or chi(tau_r), read through conjugate."""
    return conjugate(generator(kind, r, h.p), h)


def mz_image(c, idx, h_a):
    """The image of c * eta[a, U] in the full algebra, as an Element."""
    return Element(h_a.p, _mz_image_packed(_pack((c, SteenrodMonomial(idx.a, idx.U))), h_a))


def test_u_maximal_predicate():
    assert u_maximal(basis_index({1: 1}, [2]))
    assert u_maximal(basis_index({2: 3}, [2]))
    assert u_maximal(basis_index({}, [1]))
    assert not u_maximal(basis_index({2: 1}, [1]))
    assert not u_maximal(basis_index({1: 1}, []))
    assert not u_maximal(basis_index({}, []))


def test_eta_examples():
    assert element_text(eta(basis_index({}, []), H2)) == "1 | 1 | tau{}"
    assert element_text(eta(basis_index({1: 1}, []), H2)) == "1 | xi1^1 | tau{}"
    assert (
        element_text(eta(basis_index({2: 1}, [1, 3]), H2))
        == "1 | xi2^1 | tau{1,3}"
    )


def test_eta_rejects_tau0_in_mz_form():
    with pytest.raises(ValueError):
        eta(basis_index({}, [0]), H2)
    # allowed in the full algebra
    assert not eta(basis_index({}, [0]), HA2).is_zero()


def test_basis_mz_examples():
    def basis_mz(bd, h):
        return [(c, BasisIndex(*m)) for c, m in oracles.unpacked(bidegree_basis(bd, h))]

    b = basis_mz(Bidegree(2, 1), H2)
    assert b == [(COEFF_ONE, basis_index({1: 1}, []))]
    assert basis_mz(Bidegree(0, 0), H2) == [(COEFF_ONE, basis_index({}, []))]
    b = basis_mz(Bidegree(1, 0), HR)
    assert b == [(CoeffMonomial(rho=1), basis_index({1: 1}, []))]
    assert basis_mz(Bidegree(1, 1), H2) == []


def test_basis_enumeration_is_exhaustive():
    # every product of generators within the window shows up in its slice
    for h in (HR, algebra("finite-field", 3, q=7)):
        for bd in populated_bidegrees(h, 8, 6):
            basis = bidegree_basis(bd, h)
            assert len(set(basis)) == len(basis)
            for key in oracles.unpacked(basis):
                from motsteen.elements import bidegree_of

                assert bidegree_of(key, h.scheme) == bd


@pytest.mark.parametrize("config,window", [
    (("real-p2", 2), (25, 13)), (("finite-field", 3, 7), (27, 13)), (("z-half", 2), (18, 9)),
    (("algclosed", 2), (20, 20)), (("real-odd", 3), (30, 15)), (("finite-field", 2, 3), (20, 10)),
])
def test_coeff_monomials_count_the_coefficient_part_of_each_basis(config, window):
    # the dims cache fits an entry against len(coeff_monomials(bd)), not a scan of the basis
    h = algebra(*config)
    for bd in populated_bidegrees(h, *window):
        n = sum(m.is_one() for _, m in oracles.unpacked(bidegree_basis(bd, h)))
        assert len(coeff_monomials(bd, h.scheme)) == n, bd


def test_chi_generator_values():
    assert element_text(chi_of("tau", 0, HA3)) == "2*1 | 1 | tau{0}"
    assert element_text(chi_of("xi", 2, HA2)) == (
        "1 | xi1^3 | tau{} + 1 | xi2^1 | tau{}"
    )
    assert element_text(chi_of("tau", 1, HA2)) == (
        "1 | 1 | tau{1} + 1 | xi1^1 | tau{0}"
    )


def test_chi_fixes_rho_and_moves_tau():
    rho = term_element(2, 1, CoeffMonomial(rho=1))
    assert conjugate(rho, HAR) == rho
    tau = term_element(2, 1, CoeffMonomial(tau=1))
    expected = tau + term_element(
        2, 1, CoeffMonomial(rho=1), SteenrodMonomial((), (0,))
    )
    assert conjugate(tau, HAR) == expected
    # over an algebraically closed base rho = 0, so tau is fixed
    assert conjugate(term_element(2, 1, CoeffMonomial(tau=1)), HA2) == term_element(
        2, 1, CoeffMonomial(tau=1)
    )


def test_chi_rejects_mz_form():
    with pytest.raises(ValueError):
        conjugate(eta(basis_index({}, [1]), H2), H2)


def test_conjugate_refuses_a_foreign_generator_on_every_term():
    # theta is no generator over real-p2: conjugate refuses it whether or not
    # the term has a Steenrod part, and memoizes nothing for the refused term
    steenrod._chi_mono_cache.clear()
    theta = CoeffMonomial(theta=1)
    for mono in (SteenrodMonomial((), ()), SteenrodMonomial(((1, 1),), ())):
        x = term_element(2, 1, theta, mono)
        with pytest.raises(SchemeError, match="'theta' not present for scheme real-p2"):
            conjugate(x, HAR)
    assert not any(elements._unpack(k)[0].theta
                   for k in steenrod._chi_mono_cache.get(HAR, {}))


def test_chi_involution_and_multiplicative_small():
    for h in (HAR, HA3):
        p = h.p
        monos = steenrod_monomials_by_degree(p, 12, 0)
        elems = [Element(p, {m: 1}) for m in monos]
        for x in elems:
            assert conjugate(conjugate(x, h), h) == x
        rng = random.Random(23)
        for _ in range(60):
            x, z = rng.choice(elems), rng.choice(elems)
            assert conjugate(mul(x, z, h), h) == mul(
                conjugate(x, h), conjugate(z, h), h
            )


def test_mz_generators_in_a():
    # the chi'd generators that generate the image of the right subalgebra
    chi_tau_1 = chi_of("tau", 1, HA2)
    chi_xi_1 = chi_of("xi", 1, HA2)
    assert element_text(chi_xi_1) == "1 | xi1^1 | tau{}"
    assert element_text(chi_tau_1) == "1 | 1 | tau{1} + 1 | xi1^1 | tau{0}"
    assert mz_image(COEFF_ONE, basis_index({1: 1}, []), HA2) == chi_xi_1
    assert mz_image(COEFF_ONE, basis_index({}, [1]), HA2) == chi_tau_1


def test_chi_generator_and_mz_image_reject_the_mz_form():
    # cold or after a full-algebra call has filled the memo, the answer for
    # an mz handle is the same: a refusal
    for warm in (False, True):
        if warm:
            chi_of("tau", 1, HA2)
            mz_image(COEFF_ONE, basis_index({}, [1]), HA2)
        with pytest.raises(ValueError, match="full algebra"):
            chi_of("tau", 1, H2)
        with pytest.raises(ValueError, match="full algebra"):
            mz_image(COEFF_ONE, basis_index({}, [1]), H2)


def test_conjugated_generators_are_bockstein_cycles():
    # the defining property of the integral subalgebra's generators
    from motsteen.bockstein import beta

    for h in (HA2, HA3, HAR):
        for i in range(1, 4):
            assert beta(chi_of("tau", i, h), h).is_zero()
            assert beta(chi_of("xi", i, h), h).is_zero()


def test_mz_image_preserves_the_quadratic_relation():
    # tau_1^2 + xi_2 eta_L(tau) + tau_2 eta_L(rho) maps to zero
    for h_a, h_mz in ((HAR, HR), (HA2, H2)):
        p = h_a.p
        t1 = mz_image(COEFF_ONE, basis_index({}, [1]), h_a)
        lhs = mul(t1, t1, h_a)
        x2 = mz_image(CoeffMonomial(tau=1), basis_index({2: 1}, []), h_a)
        lhs = lhs + x2
        if h_a.scheme.rho_element is not None:
            lhs = lhs + mz_image(CoeffMonomial(rho=1), basis_index({}, [2]), h_a)
        assert lhs.is_zero()


def test_mz_embedding_injective_sample():
    from motsteen.linalg import rank
    from oracles import Matrix, columns

    for h_mz, h_a in ((H2, HA2), (H3, HA3), (HR, HAR)):
        for bd in populated_bidegrees(h_mz, 10, 6):
            src = bidegree_basis(bd, h_mz)
            if not src:
                continue
            rows = {}
            entries = {}
            for col, k in enumerate(src):
                img = _mz_image_packed(k, h_a)
                for key, s in img.items():
                    entries[(rows.setdefault(key, len(rows)), col)] = s
            M = Matrix(h_a.p, len(rows), len(src), entries)
            assert rank(h_a.p, columns(M)) == len(src)


def test_eta_degree_matches_element():
    from motsteen.elements import bidegree_of

    for idx in [basis_index({1: 2}, [1]), basis_index({2: 1, 3: 1}, [2, 4])]:
        for p, h in ((2, H2), (3, H3)):
            el = eta(idx, h)
            assert el.homogeneous_bidegree(h.scheme) == mono_degree(idx, p)
