"""The GF(2) paths of the packed kernels against the mod-p summing they
replaced (tests/oracles.py).

At p = 2 the product, the conjugation and the embedding image collect a key
by toggling it.  Each must give the keys of the summing path in the same
order, over every p = 2 scheme, in both ambients for the product.  The keys
are drawn with 4 tau indices, so tau sets often meet, and with coefficient
exponents up to 2, so z-half and finite q = 3 (eps^2 = 0, eps rho = 0, and
eps as the rewrite's rho) kill keys.  The embedding rank of verify chi, on
packed columns, equals the rank of the dict columns, as it does at odd p
through the same column builder; the certificate that verify chi tries
first, the rank on the source rows alone, is full on the README windows and
hands over to that rank wherever it falls short.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from motsteen import algebra
from motsteen.elements import (
    _TAUS, CoeffMonomial, SteenrodMonomial, _coeff_zero, _meet_deltas, _mul_packed, _pack,
    _unpack,
)
from motsteen.steenrod import (
    _conjugate_packed, _mz_image_packed, basis_index, bidegree_basis, populated_bidegrees,
)
from motsteen import steenrod, verify
from motsteen.cli import Config
from motsteen.verify import _embedding_rank
from test_oracles import handle_id

SCHEMES = [("real-p2", None), ("z-half", None), ("algclosed", None),
           ("finite-field", 3), ("bare", None)]
HANDLES = [algebra(s, 2, q, ambient) for s, q in SCHEMES for ambient in ("a", "mz")]
FULL = [h for h in HANDLES if h.ambient == "a"]
ODD_FULL = [algebra(s, p, q, "a") for s, p, q in
            [("finite-field", 3, 7), ("real-odd", 3, None), ("algclosed", 5, None)]]


def key_pool(h):
    """Live packed monomials of h: coefficient exponents up to 2, xi_1 and
    xi_2 exponents up to 1, up to 2 taus from 4 indices at the form's minimum."""
    coeffs = [
        c for c in (CoeffMonomial(**dict(zip(h.scheme.gens, es)))
                    for es in itertools.product(range(3), repeat=len(h.scheme.gens)))
        if not _coeff_zero(c, h.scheme)
    ]
    xis = [tuple((j, e) for j, e in zip((1, 2), es) if e)
           for es in itertools.product(range(2), repeat=2)]
    taus = range(h.min_tau, h.min_tau + 4)
    tau_sets = [t for r in range(3) for t in itertools.combinations(taus, r)]
    return [_pack((c, SteenrodMonomial(xi, t))) for c in coeffs for xi in xis for t in tau_sets]


POOLS = {handle_id(h): key_pool(h) for h in HANDLES}
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def accumulators(h):
    """A GF(2) accumulator {int: 1} of 1 to 6 distinct keys of h's pool."""
    keys = st.lists(st.sampled_from(POOLS[handle_id(h)]), min_size=1, max_size=6, unique=True)
    return keys.map(lambda ks: dict.fromkeys(ks, 1))


def handle_and_accumulators(handles, n):
    """A handle drawn from handles and n accumulators of it."""
    return st.sampled_from(handles).flatmap(
        lambda h: st.tuples(st.just(h), *[accumulators(h)] * n))


@PROPERTY
@given(handle_and_accumulators(HANDLES, 2))
def test_gf2_product_matches_mod_p_summing(hxy):
    h, xa, ya = hxy
    assert list(_mul_packed(xa, ya, h).items()) == list(oracles.mul_packed(xa, ya, h).items())


@PROPERTY
@given(handle_and_accumulators(FULL, 1))
def test_gf2_conjugation_matches_mod_p_summing(hx):
    h, xa = hx
    assert list(_conjugate_packed(xa, h).items()) == list(oracles.conjugate_packed(xa, h).items())


@pytest.mark.parametrize("h", HANDLES, ids=handle_id)
def test_gf2_product_pool_meets_and_kills(h):
    # 500 seeded pairs of single keys of the pool: the toggle equals the sum,
    # and the pool reaches the cases the property is there for (meeting tau
    # sets everywhere, killed keys where the scheme has caps or zero pairs)
    rng = random.Random(f"gf2-{handle_id(h)}")
    pool = POOLS[handle_id(h)]
    met = killed = 0
    for k1, k2 in (rng.sample(pool, 2) for _ in range(500)):
        xa, ya = {k1: 1}, {k2: 1}
        assert list(_mul_packed(xa, ya, h).items()) == list(oracles.mul_packed(xa, ya, h).items())
        t1, t2 = k1 & _TAUS, k2 & _TAUS
        raw = [k1 + k2 + d for d in (_meet_deltas(t1, t2, h) if t1 & t2 else (0,))]
        met += bool(t1 & t2)
        killed += any(_coeff_zero(_unpack(k)[0], h.scheme) for k in raw)
    assert met
    assert bool(killed) == bool(h.scheme.caps or h.scheme.zero_pairs)


@pytest.mark.parametrize("h_a", FULL, ids=handle_id)
def test_gf2_mz_image_matches_mod_p_summing(h_a):
    # c * chi(eta[a, U]) for every live coefficient monomial with exponents up
    # to 2 and every index with xi_1, xi_2 exponents up to 1 and U from 1..3
    coeffs = {_unpack(k)[0] for k in POOLS[handle_id(h_a)]}
    idxs = [basis_index(dict(zip((1, 2), a)), U)
            for a in itertools.product(range(2), repeat=2)
            for r in range(4) for U in itertools.combinations((1, 2, 3), r)]
    for c in sorted(coeffs):
        for idx in idxs:
            got = _mz_image_packed(_pack((c, SteenrodMonomial(idx.a, idx.U))), h_a)
            assert list(got.items()) == list(oracles.mz_image_packed(c, idx, h_a).items())


@pytest.mark.parametrize("h_a", FULL + ODD_FULL, ids=handle_id)
def test_embedding_rank_on_packed_columns(h_a):
    # the rank verify chi takes of each bidegree's images, on the window of
    # verify chi in the README examples, at odd p too: one column builder
    h = algebra(h_a.scheme.id, h_a.p, h_a.scheme.q)
    for bd in populated_bidegrees(h, 10, 5):
        src = bidegree_basis(bd, h)
        assert _embedding_rank(src, h_a) == oracles.embedding_rank(src, h_a)


@pytest.mark.parametrize("scheme,p,q", [("real-p2", 2, None), ("z-half", 2, None),
                                        ("finite-field", 3, 7)])
def test_embedding_certificate_falls_back_to_the_rank(monkeypatch, scheme, p, q):
    cfg = Config(p=p, scheme=scheme, q=q, dmax=10, wmax=5)
    h_a, hmz = algebra(scheme, p, q, ambient="a"), cfg.handle()
    bidegrees = populated_bidegrees(hmz, 10, 5)
    # the rank on the source rows is full everywhere, so no bidegree falls back
    monkeypatch.setitem(steenrod._chi_mono_cache, h_a, {})  # a memo of its own
    for bd in bidegrees:
        src = bidegree_basis(bd, hmz)
        assert verify._square_rank(src, h_a) == len(src)
    # forced low, every bidegree goes through the rank test, which passes
    fallbacks = []
    with monkeypatch.context() as mp:
        mp.setattr(verify, "_square_rank", lambda src, h: len(src) - 1)
        mp.setattr(verify, "_embedding_rank",
                  lambda src, h: fallbacks.append(src) or _embedding_rank(src, h))
        [(_, status, detail)] = verify.check_chi_embedding(cfg, h_a)
    assert status == "PASS" and detail == f"{len(bidegrees)} bidegrees, degree <= 10"
    assert len(fallbacks) == len(bidegrees)
    # chi of one monomial with its terms dropped: its columns are 0 on both
    # paths, and the check fails at the first bidegree holding one of them
    mono = list(bidegree_basis(bidegrees[-1], hmz))[-1][1]
    steenrod._chi_mono_cache[h_a][_pack((CoeffMonomial(), mono))] = {}
    first = next(bd for bd in bidegrees if any(m == mono for _, m in bidegree_basis(bd, hmz)))
    src = bidegree_basis(first, hmz)
    assert verify._square_rank(src, h_a) < len(src)
    assert _embedding_rank(src, h_a) < len(src)
    assert verify.check_chi_embedding(cfg, h_a) == [
        ("integral-form embedding injective", "FAIL", f"rank drop at {first}")]
