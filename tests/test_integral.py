"""Integral coefficient rings, the reduction map, and the pullback model."""

import pytest

import oracles
from motsteen import algebra, element_text
from motsteen.elements import CoeffMonomial, Element, mul, term_element
from motsteen.grading import Bidegree
from motsteen.bockstein import beta, constructive_kernel, y
from motsteen.steenrod import basis_index, bidegree_basis, eta
from motsteen.integral import (
    IntCoeffRing,
    PullbackElement,
    PullbackError,
    augment,
    default_w,
    fiber_coordinate,
    pb_mul,
    pb_torsion,
    q_map,
)

H2 = algebra("algclosed", 2)
H3 = algebra("algclosed", 3)
HR = algebra("real-p2", 2)
HZ = algebra("z-half", 2)
HF3 = algebra("finite-field", 3, q=7)

R2 = IntCoeffRing(H2.scheme)
R3 = IntCoeffRing(H3.scheme)
RR = IntCoeffRing(HR.scheme)
RZ = IntCoeffRing(HZ.scheme)
RF3 = IntCoeffRing(HF3.scheme)


def y_class(a, U, h, ring):
    """The pure-torsion pair (0, y[a,U])."""
    return pb_torsion(y(basis_index(a, U), h), h, ring)


def rho_eta(a, U, h):
    """rho eta[a,U] + tau y[a,U], a Bockstein cycle where beta(tau) = rho."""
    idx = basis_index(a, U)
    rho = term_element(h.p, 1, CoeffMonomial(rho=1))
    tau = term_element(h.p, 1, CoeffMonomial(tau=1))
    return mul(rho, eta(idx, h), h) + mul(tau, y(idx, h), h)


def tau_pow_y(i, a, U, h):
    """tau^i y[a,U] + i beta(tau) tau^(i-1) eta[a,U] over a finite field."""
    idx = basis_index(a, U)
    k = mul(term_element(h.p, 1, CoeffMonomial(tau=i)), y(idx, h), h)
    if i:
        lead = term_element(h.p, i, CoeffMonomial(tau=i - 1).bump(h.scheme.coeff_bockstein["tau"]))
        k = k + mul(lead, eta(idx, h), h)
    return k


def in_constructive_kernel(k, h):
    # the constructive vectors, mapped through their basis labels
    bd = k.homogeneous_bidegree(h.scheme)
    labels = list(bidegree_basis(bd, h))
    return k in [oracles.vector_element(v, labels, h.p) for v in constructive_kernel(bd, h)]


def test_default_w_table():
    assert default_w(0) == 1
    assert default_w(2) == 8
    assert default_w(4) == 16
    assert default_w(8) == 32
    with pytest.raises(ValueError):
        default_w(3)


def test_int_ring_normalization():
    r3 = RZ.element(1, ("rho", 0, 3))
    r5 = RZ.element(1, ("rho", 0, 5))
    assert (r3 * r5) == RZ.element(1, ("rho", 1, 7))
    assert (RZ.element(1, ("eps", 1)) * RZ.element(1, ("eps", 2))).is_zero()
    assert (r3 * RZ.element(1, ("eps", 2))).is_zero()
    assert r3.scaled(2).is_zero()
    assert RZ.element(1, ("eps", 2)).scaled(RZ.w(2)).is_zero()
    assert not RZ.element(1, ("eps", 2)).scaled(RZ.w(2) // 2).is_zero()
    # free classes carry exact integers, never reduced
    assert RZ.mono_order(("eps", 1)) == 0
    assert RZ.element(1, ("eps", 1)).scaled(2**70).terms == {("eps", 1): 2**70}
    assert RZ.element(-3, ("eps", 1)).terms == {("eps", 1): -3}
    assert R3.normalize([(3**20, ("tau", 1)), (-(3**20), ("tau", 1))]).is_zero()


def test_free_and_torsion_orders():
    assert R2.mono_order(R2.unit()) == 0
    assert R3.mono_order(("tau", 4)) == 0
    assert RR.mono_order(("tau2", 0, 3)) == 0
    assert RR.mono_order(("tau2", 1, 3)) == 2
    # q = 65537, p = 2: eps_1 and eps_2 have orders 2^16 and 2^17
    ring = IntCoeffRing(algebra("finite-field", 2, q=65537).scheme)
    assert ring.element(65536, ("eps", 1)).is_zero()
    assert not ring.element(65536, ("eps", 2)).is_zero()


def test_int_ring_real():
    rho = RR.element(1, ("tau2", 1, 0))
    assert rho.scaled(2).is_zero()
    t2 = RR.element(1, ("tau2", 0, 1))
    assert not t2.scaled(4).is_zero()
    assert (rho * t2) == RR.element(1, ("tau2", 1, 1))


def test_finite_field_orders():
    # q = 7, p = 3: eps_i has order = 3-part of 7^i - 1
    assert RF3.mono_order(("eps", 1)) == 3     # 6
    assert RF3.mono_order(("eps", 2)) == 3     # 48
    assert RF3.mono_order(("eps", 3)) == 9     # 342 = 2 * 9 * 19
    assert (RF3.element(1, ("eps", 1)) * RF3.element(1, ("eps", 2))).is_zero()


def test_q_map_examples():
    assert element_text(q_map(RZ.element(1, ("rho", 0, 3)), HZ)) == (
        "rho^1*tau^2 | 1 | tau{}"
    )
    assert element_text(q_map(RZ.element(1, ("eps", 2)), HZ)) == (
        "eps^1*tau^1 | 1 | tau{}"
    )
    assert q_map(R3.element(3, ("tau", 2)), H3).is_zero()
    assert element_text(q_map(RR.element(1, ("tau2", 1, 1)), HR)) == (
        "rho^1*tau^2 | 1 | tau{}"
    )


def test_q_map_is_multiplicative():
    pairs = [
        (RZ.element(1, ("rho", 0, 3)), RZ.element(1, ("rho", 0, 5))),
        (RZ.element(1, ("rho", 0, 1)), RZ.element(1, ("eps", 1))),
        (RR.element(1, ("tau2", 1, 0)), RR.element(1, ("tau2", 0, 2))),
        (RF3.element(1, ("eps", 1)), RF3.element(1, ("eps", 2))),
    ]
    from motsteen.elements import mul

    for z1, z2 in pairs:
        h = {id(RZ): HZ, id(RR): HR, id(RF3): HF3}[id(z1.ring)]
        assert q_map(z1 * z2, h) == mul(q_map(z1, h), q_map(z2, h), h)


def test_q_map_degree_preserving():
    for ring, h in ((RZ, HZ), (RR, HR), (RF3, HF3)):
        for name, mono in ring.presentation()[0]:
            z = ring.element(1, mono)
            img = q_map(z, h)
            if not img.is_zero():
                assert img.homogeneous_bidegree(h.scheme) == ring.mono_degree(mono)


def test_pullback_compatibility_enforced():
    with pytest.raises(PullbackError):
        PullbackElement(R2.element(1), term_element(2, 0), H2)  # q(1) != 0
    # k not a cycle is rejected unless flagged
    t1 = term_element(2, 1, CoeffMonomial(tau=1))
    k = __import__("motsteen.elements", fromlist=["mul"]).mul(
        t1, __import__("motsteen.steenrod", fromlist=["eta"]).eta(
            basis_index({}, [1]), HR
        ), HR
    )
    with pytest.raises(PullbackError):
        pb_torsion(k, HR, RR)
    assert not pb_torsion(k, HR, RR, require_cycle=False).in_ker_beta


def test_pullback_unit_and_square():
    u = PullbackElement(R2.element(1), Element.one(2), H2)
    y1 = y_class({}, (1,), H2, R2)
    assert pb_mul(u, y1).k == y1.k
    sq = pb_mul(y1, y1)
    assert sq.z.is_zero()
    assert sq.k == y(basis_index({1: 1}, (1,)), H2)
    assert y1.scaled(2).is_zero()


def test_pullback_bidegree():
    y1 = y_class({}, (1,), H2, R2)
    assert y1.bidegree() == Bidegree(2, 1)
    tau = PullbackElement(
        R2.element(1, ("tau", 1)), term_element(2, 1, CoeffMonomial(tau=1)), H2
    )
    assert tau.bidegree() == Bidegree(0, -1)


def test_lift_real_generator():
    # rho eta + tau y is the U element of constructive_kernel with r = tau
    k = rho_eta({}, (1,), HR)
    assert element_text(k) == "tau^1 | xi1^1 | tau{} + rho^1 | 1 | tau{1}"
    assert beta(k, HR).is_zero()
    for a, U in (({}, (1,)), ({1: 1}, (1,)), ({}, (1, 2)), ({1: 2}, (2,))):
        assert in_constructive_kernel(rho_eta(a, U, HR), HR), (a, U)
        assert in_constructive_kernel(rho_eta(a, U, HZ), HZ), (a, U)


def test_lift_finite_field_generators():
    # tau^i y + i beta(tau) tau^(i-1) eta is the U element with r = tau^i
    # (the Z element 1 * y for i = 0)
    for a, U in (({}, (1,)), ({1: 1}, (1,)), ({}, (1, 2))):
        for i in range(3):
            k = tau_pow_y(i, a, U, HF3)
            assert beta(k, HF3).is_zero()
            assert in_constructive_kernel(k, HF3), (i, a, U)


def test_lift_zhalf_coordinates_are_not_cycles():
    lz = fiber_coordinate("tau_ji", 1, 2, HZ, RZ)
    assert element_text(lz.k) == "tau^2 | 1 | tau{1}"
    assert not lz.in_ker_beta
    assert not beta(lz.k, HZ).is_zero()
    lx = fiber_coordinate("xi_ji", 2, 1, HZ, RZ)
    assert element_text(lx.k) == "tau^1 | xi2^1 | tau{}"
    assert not beta(lx.k, HZ).is_zero()  # beta(tau) = rho obstructs odd tau powers
    l0 = fiber_coordinate("xi_ji", 2, 0, HZ, RZ)
    assert beta(l0.k, HZ).is_zero()  # the bare generator is a cycle
    with pytest.raises(PullbackError):
        fiber_coordinate("eta_ji", 1, 0, HZ, RZ)
    with pytest.raises(PullbackError):
        fiber_coordinate("tau_ji", 1, 0, HR, RR)  # only over Z[1/2]


def test_lift_coefficient_generator():
    z = RZ.element(1, ("rho", 0, 1))
    lr = PullbackElement(z, q_map(z, HZ), HZ)
    assert element_text(lr.k) == "rho^1 | 1 | tau{}"
    assert lr.z == RZ.element(1, ("rho", 0, 1))


def test_augment():
    el = term_element(2, 1, CoeffMonomial(tau=2)) + y(basis_index({}, [1]), H2)
    assert element_text(augment(el, H2)) == "tau^2 | 1 | tau{}"


def test_pb_mul_compatibility_preserved():
    tau = PullbackElement(
        RZ.element(1, ("eps", 1)), q_map(RZ.element(1, ("eps", 1)), HZ), HZ
    )
    y1 = pb_torsion(rho_eta({}, (1,), HZ), HZ, RZ)
    prod = pb_mul(tau, y1)  # constructor re-checks the invariants
    assert prod.z.is_zero()


def test_pullback_rejects_mixed_schemes():
    a = y_class({}, (1,), H2, R2)
    b = y_class({}, (1,), HR, RR)
    with pytest.raises(PullbackError):
        pb_mul(a, b)
