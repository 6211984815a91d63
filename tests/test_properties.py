"""Properties of the Bockstein, the product and the conjugation on random
homogeneous sums, over every handle (the full algebra only for the
conjugation).

Each example picks a handle, a populated bidegree of a small window and a
sum of 1 to 6 distinct basis monomials of it with nonzero scalars.  The
examples are derandomized, so a run draws the same ones every time.  The
last property holds the product's part memos to the unmemoized merge on
random xi and tau parts.
"""

from hypothesis import given, settings, strategies as st

import oracles
from motsteen import algebra, mul
from motsteen.bockstein import beta
from motsteen.elements import Element, _join_taus, _merge_xi
from motsteen.steenrod import bidegree_basis, conjugate, populated_bidegrees
from test_oracles import ALL_A, ALL_MZ, handle_id

HANDLES = ALL_MZ + ALL_A + [algebra("bare", 2), algebra("bare", 3)]
BASES = {
    handle_id(h): [
        bidegree_basis(bd, h)
        for bd in populated_bidegrees(h, *((8, 5) if h.p == 2 else (18, 9)))
    ]
    for h in HANDLES
}

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def sums(draw, h):
    basis = draw(st.sampled_from(BASES[handle_id(h)]))
    keys = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=6, unique=True))
    scalars = st.integers(1, h.p - 1)
    return Element(h.p, {key: draw(scalars) for key in keys})


handles = st.sampled_from(HANDLES)
full_handles = st.sampled_from(ALL_A)


@PROPERTY
@given(handles.flatmap(lambda h: st.tuples(st.just(h), sums(h))))
def test_beta_squared_is_zero(hx):
    h, x = hx
    assert beta(beta(x, h), h).is_zero()


@PROPERTY
@given(handles.flatmap(lambda h: st.tuples(st.just(h), sums(h), sums(h))))
def test_beta_is_a_derivation(hxz):
    # beta(x z) = beta(x) z + (-1)^|x| x beta(z), with the Koszul sign of
    # the topological degree
    h, x, z = hxz
    sign = -1 if x.homogeneous_bidegree(h.scheme).d & 1 else 1
    lhs = beta(mul(x, z, h), h)
    rhs = mul(beta(x, h), z, h) + mul(x, beta(z, h), h).scaled(sign)
    assert lhs == rhs


@PROPERTY
@given(full_handles.flatmap(lambda h: st.tuples(st.just(h), sums(h), sums(h), sums(h))))
def test_mul_is_associative(hxyz):
    h, x, y, z = hxyz
    assert mul(mul(x, y, h), z, h) == mul(x, mul(y, z, h), h)


@PROPERTY
@given(full_handles.flatmap(lambda h: st.tuples(st.just(h), sums(h))))
def test_chi_is_an_involution(hx):
    h, x = hx
    assert conjugate(conjugate(x, h), h) == x


@PROPERTY
@given(full_handles.flatmap(lambda h: st.tuples(st.just(h), sums(h), sums(h))))
def test_chi_is_multiplicative(hxz):
    h, x, z = hxz
    assert conjugate(mul(x, z, h), h) == mul(conjugate(x, h), conjugate(z, h), h)


xi_parts = st.dictionaries(st.integers(1, 6), st.integers(1, 4), max_size=4).map(
    lambda xi: tuple(sorted(xi.items())))
tau_parts = st.frozensets(st.integers(0, 6), max_size=4).map(lambda t: tuple(sorted(t)))


@PROPERTY
@given(xi_parts, xi_parts, tau_parts, tau_parts)
def test_part_memos_match_the_unmemoized_merge(a, b, t1, t2):
    # asked twice, so the second answer comes from the memo
    for _ in range(2):
        assert _merge_xi(a, b) == oracles.merge_xi(a, b)
        assert _join_taus(t1, t2) == (tuple(sorted(t1 + t2)),
                                      not frozenset(t1).isdisjoint(t2))
