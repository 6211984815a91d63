"""Properties of the Bockstein, the product and the conjugation on random
homogeneous sums, over every handle (the full algebra only for the
conjugation).

Each example picks a handle, a populated bidegree of a small window and a
sum of 1 to 6 distinct basis monomials of it with nonzero scalars.  The
examples are derandomized, so a run draws the same ones every time.  The
next two properties hold the packed monomials of the product: unpack inverts
pack, and on disjoint tau sets the packed product is the sum of the keys.
An element refuses a key outside the packed layout when it is built.  The
last two hold the order of monomials: sorting the key tuples themselves
gives the oracle's explicit key order, and the text form of a packed element
is the text of its unpacked keys in that order.
"""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from motsteen import algebra, element_text, mul, term_element
from motsteen.bockstein import beta
from motsteen.elements import (
    _EXP_LIMIT, _TAU_BITS, CoeffMonomial, Element, SteenrodMonomial, Term, _pack, _unpack,
    term_text,
)
from motsteen.steenrod import basis_index, bidegree_basis, conjugate, eta, populated_bidegrees
from test_oracles import ALL_A, ALL_MZ, handle_id

HANDLES = ALL_MZ + ALL_A + [algebra("bare", 2), algebra("bare", 3)]
BASES = {
    handle_id(h): [
        list(bidegree_basis(bd, h))
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
    return Element(h.p, {_pack(key): draw(scalars) for key in keys})


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


# exponents up to the packing limit, tau indices up to the 32 tau bits
exponents = st.integers(0, _EXP_LIMIT - 1)
coeff_parts = st.tuples(exponents, exponents, exponents, exponents).map(
    lambda c: CoeffMonomial(*c))
xi_parts = st.dictionaries(st.integers(1, 40), st.integers(1, _EXP_LIMIT - 1), max_size=4)
tau_parts = st.frozensets(st.integers(0, 31), max_size=6)


def _key(c, xi, taus):
    return c, SteenrodMonomial(tuple(sorted(xi.items())), tuple(sorted(taus)))


@PROPERTY
@given(coeff_parts, xi_parts, tau_parts)
def test_unpack_inverts_pack(c, xi, taus):
    key = _key(c, xi, taus)
    assert _unpack(_pack(key)) == key


@PROPERTY
@given(coeff_parts, coeff_parts, xi_parts, xi_parts, tau_parts, tau_parts)
def test_packed_keys_add_on_disjoint_tau_sets(c1, c2, xi1, xi2, t1, t2):
    # the sum of two packed keys unpacks to the merged monomial, even where
    # a sum of exponents passes the packing limit
    t2 -= t1
    product = _key(CoeffMonomial(*(a + b for a, b in zip(c1, c2))),
                   dict(oracles.merge_xi(tuple(xi1.items()), tuple(xi2.items()))),
                   t1 | t2)
    assert _unpack(_pack(_key(c1, xi1, t1)) + _pack(_key(c2, xi2, t2))) == product


# one part outside the packed layout: a coefficient or a xi exponent at the
# limit or above, or a tau index past the 32 tau bits
too_big = st.integers(_EXP_LIMIT, 2 * _EXP_LIMIT)
outside = st.one_of(
    st.builds(lambda i, e: (CoeffMonomial(*(e if k == i else 0 for k in range(4))), {},
                            frozenset()),
              st.integers(0, 3), too_big),
    st.builds(lambda xi, j, e: (CoeffMonomial(), {**xi, j: e}, frozenset()),
              xi_parts, st.integers(1, 40), too_big),
    st.builds(lambda taus, j: (CoeffMonomial(), {}, taus | {j}),
              tau_parts, st.integers(_TAU_BITS, 2 * _TAU_BITS)),
)


@PROPERTY
@given(outside, st.sampled_from([2, 3, 5]))
def test_elements_refuse_a_key_outside_the_layout_when_built(parts, p):
    c, xi, taus = parts
    with pytest.raises(ValueError, match="do(es)? not fit the packed layout"):
        term_element(p, 1, *_key(c, xi, taus))
    if c == CoeffMonomial():
        with pytest.raises(ValueError, match="do(es)? not fit the packed layout"):
            eta(basis_index(xi, taus), algebra("algclosed", p, ambient="a"))


# small exponents and few indices, so that keys often share a prefix
small = st.integers(0, 3)
keys = st.builds(
    _key,
    st.tuples(small, small, small, small).map(lambda c: CoeffMonomial(*c)),
    st.dictionaries(st.integers(1, 4), st.integers(1, 3), max_size=3),
    st.frozensets(st.integers(0, 4), max_size=3),
)


@PROPERTY
@given(st.lists(keys, max_size=12))
def test_plain_key_order_is_the_oracle_order(ks):
    # bases and sorted_terms sort the (CoeffMonomial, SteenrodMonomial)
    # tuples themselves; the oracle sorts by its explicit key
    assert sorted(ks) == sorted(ks, key=oracles.monomial_key)
    for a, b in zip(ks, ks[1:]):
        assert (a < b) == (oracles.monomial_key(a) < oracles.monomial_key(b))


@PROPERTY
@given(handles.flatmap(sums))
def test_text_form_is_that_of_the_unpacked_keys(x):
    # sorted_terms and element_text of a packed element are those of its
    # (coeff, mono) keys, unpacked and put in the oracle's key order, and
    # the same keys built one by one with term_element sum to the element
    want = [Term(s, *key) for key, s in
            sorted(oracles.terms(x), key=lambda kv: oracles.monomial_key(kv[0]))]
    assert x.sorted_terms() == want
    assert element_text(x) == " + ".join(map(term_text, want))
    assert sum((term_element(x.p, t.scalar, t.coeff, t.mono) for t in want),
               Element.zero(x.p)) == x
