"""In-process memos: functools caches keyed by the algebra handle itself or,
in the product, by monomials and their packed ints, and the per-handle basis
table of steenrod."""

import copy
import tracemalloc
from collections import Counter

import pytest

import oracles

from motsteen import (
    SchemePresentation, algebra, bockstein, element_text, elements, make_scheme, mul,
    steenrod, term_element,
)
from motsteen.bockstein import _columns, beta_report, y
from motsteen.cli import Config, main
from motsteen.elements import (
    COEFF_ONE, CoeffMonomial, SteenrodMonomial, _pack, mono_degree,
)
from motsteen.grading import Bidegree
from motsteen.steenrod import (
    _conjugate_packed,
    _mz_image_packed,
    basis_index,
    bidegree_basis,
    conjugate,
    populated_bidegrees,
)
from motsteen.verify import suite_blocks, suite_chi

HANDLES = [
    algebra(scheme, p, q, ambient)
    for scheme, p, q in (
        ("algclosed", 2, None),
        ("real-p2", 2, None),
        ("z-half", 2, None),
        ("finite-field", 2, 3),
        ("finite-field", 2, 5),
        ("algclosed", 3, None),
    )
    for ambient in ("a", "mz")
]
BIDEGREES = [Bidegree(d, w) for d, w in
             ((0, -1), (-1, -1), (1, 0), (2, 1), (3, 1), (5, 2), (7, 3))]
INDICES = [basis_index({}, [1]), basis_index({1: 1}, [2]), basis_index({}, [1, 2])]


def _clear():
    for memo in (y, bockstein._u_maximal_at, bockstein._bucket_beta,
                 bockstein._coeff_beta, steenrod.coeff_monomials, elements._tau_rewrite,
                 elements._pack, elements._meet_deltas, elements._foreign_bits):
        memo.cache_clear()
    steenrod._basis_table.clear()
    steenrod._chi_mono_cache.clear()


def _count_builds(monkeypatch):
    """Counter {handle: number of basis table enumerations}, from now on."""
    builds = Counter()
    real = steenrod._enumerate_bases

    def counted(h, dmax, wmax):
        builds[h] += 1
        return real(h, dmax, wmax)

    monkeypatch.setattr(steenrod, "_enumerate_bases", counted)
    return builds


def _answers(handles):
    out = {}
    for h in handles:
        out[h, "basis"] = [list(bidegree_basis(bd, h)) for bd in BIDEGREES]
        out[h, "beta"] = [list(_columns(bd, h)) for bd in BIDEGREES]
        if h.ambient == "mz":
            out[h, "y"] = [y(idx, h) for idx in INDICES]
        else:
            out[h, "chi"] = [conjugate(oracles.generator(kind, r, h.p), h)
                             for kind in ("xi", "tau") for r in range(4)]
            out[h, "chi(tau)"] = conjugate(term_element(h.p, 1, CoeffMonomial(tau=1)), h)
    return out


def test_handles_are_hashable_and_compare_every_field():
    for h in HANDLES:
        assert hash(h) == hash(algebra(h.scheme.id, h.p, h.scheme.q, h.ambient))
        # the presentation caches its hash, each its own: the hash of its fields
        s = h.scheme
        assert hash(s) == hash((s.id, s.p, s.q, s.gens, s.zero_pairs, s.rho_element))
    # the dict fields stay out of the hash but not out of equality
    s = make_scheme("finite-field", 2, 3)
    t = SchemePresentation(
        s.id, s.p, q=s.q, gens=s.gens, caps=s.caps, zero_pairs=s.zero_pairs,
        rho_element=s.rho_element, coeff_bockstein={},
    )
    assert hash(s) == hash(t)
    assert s != t
    # the presentation is frozen
    with pytest.raises(AttributeError):
        s.rho_element = None
    assert s.rho_element == "eps"


def test_equal_handles_share_one_entry(monkeypatch):
    h1, h2 = algebra("real-p2", 2), algebra("real-p2", 2)
    assert h1 is not h2 and h1 == h2
    _clear()
    builds = _count_builds(monkeypatch)
    first = bidegree_basis(Bidegree(5, 2), h1)
    assert bidegree_basis(Bidegree(5, 2), h2) is first
    assert builds == {h1: 1}
    assert list(steenrod._basis_table) == [h1]
    _clear()


@pytest.mark.parametrize("p,resolved", [(2, "real-p2"), (3, "real-odd"), (5, "real-odd")])
def test_the_real_alias_is_the_resolved_presentation(p, resolved):
    # one presentation per scheme: "real" gives the very object of the id it
    # resolves to, with q passed or not, so a memo finds it by identity
    assert make_scheme("real", p) is make_scheme(resolved, p)
    for ambient in ("a", "mz"):
        h = algebra("real", p, ambient=ambient)
        assert h.scheme is algebra(resolved, p, ambient=ambient).scheme
    assert make_scheme("real", p).id == resolved
    assert make_scheme("algclosed", p) is make_scheme("algclosed", p, None)


def test_clearing_forgets_every_basis():
    # a corrupted table entry is gone once the memos are cleared
    h = algebra("real-p2", 2)
    _clear()
    bidegree_basis(Bidegree(5, 2), h).blocks["corrupted"] = None
    assert populated_bidegrees(h, 6, 3)
    _clear()
    assert not steenrod._basis_table
    assert list(bidegree_basis(Bidegree(5, 2), h)) == oracles.bidegree_basis(Bidegree(5, 2), h)
    _clear()


def test_the_basis_table_keeps_blocks_not_key_lists():
    # each basis is held as its block layout, its keys listed only when it is
    # iterated: real-p2 18/9, monomial index included, traces about 1.3 MB,
    # and 4.7 MB when every basis was also held as a list of its keys
    h = algebra("real-p2", 2)
    _clear()
    steenrod._mono_index.clear()
    tracemalloc.start()
    try:
        steenrod.basis_table(h, 18, 9)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        _clear()
    assert size < 2_000_000


def test_finite_fields_with_different_q_get_separate_entries(monkeypatch):
    # q = 3: beta(tau) = eps and rho = eps; q = 5: no beta and rho = 0
    h3 = algebra("finite-field", 2, q=3)
    h5 = algebra("finite-field", 2, q=5)
    assert h3.scheme.coeff_bockstein == {"tau": "eps"} and h3.scheme.rho_element == "eps"
    assert h5.scheme.coeff_bockstein == {} and h5.scheme.rho_element is None
    _clear()
    builds = _count_builds(monkeypatch)
    for h in (h3, h5):
        bidegree_basis(Bidegree(3, 1), h)
        y(INDICES[0], h)
    assert builds == {h3: 1, h5: 1}
    assert len(steenrod._basis_table) == 2
    assert y.cache_info().currsize == 2
    assert y.cache_info().hits == 0
    # beta(tau) = eps for q = 3 and 0 for q = 5, in the coefficient factor;
    # the Steenrod factor is the same but keyed by each handle
    c_tau, tau_1 = CoeffMonomial(tau=1), SteenrodMonomial((), (1,))
    assert bockstein._coeff_beta(c_tau, h3) == (1, ((CoeffMonomial(eps=1), 1),))
    assert bockstein._coeff_beta(c_tau, h5) == (1, ())
    # beta(tau_1) = xi_1, the one monomial of its bucket
    assert mono_degree(tau_1, 2) == Bidegree(3, 1)
    for h in (h3, h5):
        assert bockstein._bucket_beta(Bidegree(3, 1), h) == (1,)
    for memo in (bockstein._coeff_beta, bockstein._bucket_beta):
        assert memo.cache_info().currsize == 2
        assert memo.cache_info().hits == 0
    tau = term_element(2, 1, CoeffMonomial(tau=1))
    for q, text in (
        (3, "tau^1 | 1 | tau{} + eps^1 | 1 | tau{0}"),
        (5, "tau^1 | 1 | tau{}"),
    ):
        assert element_text(conjugate(tau, algebra("finite-field", 2, q, "a"))) == text
    _clear()


def test_tau_rewrite_keys_by_handle():
    # tau_1^2 = xi_2 tau [+ xi_2 tau_0 rho] + tau_2 rho: the tau_0 leaf only in
    # the full form, the rho leaves only where rho != 0; newest piece first
    real_a, real_mz = algebra("real-p2", 2, ambient="a"), algebra("real-p2", 2)
    alg = algebra("algclosed", 2)
    rho, tau = CoeffMonomial(rho=1), CoeffMonomial(tau=1)
    _clear()
    leaves = [elements._tau_rewrite((1, 1), h) for h in (real_a, real_mz, alg)]
    assert leaves == [
        ((rho, (), (2,)), (rho, ((2, 1),), (0,)), (tau, ((2, 1),), ())),
        ((rho, (), (2,)), (tau, ((2, 1),), ())),
        ((tau, ((2, 1),), ()),),
    ]
    info = elements._tau_rewrite.cache_info()
    assert info.currsize == 3 and info.hits == 0
    # tau_j^2 = 0 at odd primes and over bare
    assert elements._tau_rewrite((1, 1), algebra("algclosed", 3)) == ()
    assert elements._tau_rewrite((1, 1), algebra("bare", 2)) == ()
    _clear()


def test_answers_do_not_depend_on_call_order():
    _clear()
    forward = _answers(HANDLES)
    _clear()
    backward = _answers(reversed(HANDLES))
    _clear()
    assert forward == backward


def test_blocks_suite_leaves_the_beta_memo_empty():
    # block_complex reads each column once, so it takes them from
    # _beta_columns, which packs past the _pack memo
    _clear()
    assert suite_blocks(Config(p=2, scheme="z-half"))[0][1] == "PASS"
    for memo in (bockstein._bucket_beta, elements._pack):
        assert memo.cache_info().currsize == 0, memo.__name__
    _clear()


def test_packed_memos_stay_small():
    # suite_chi on real-p2 8/4 packs 454 monomials and holds the deltas of
    # 32 pairs of meeting tau masks.  The bounds leave 2x headroom or more;
    # the same run multiplies 15,062 distinct pairs of monomials, so a delta
    # memo keyed by monomial pair fails them.
    _clear()
    suite_chi(Config(p=2, scheme="real-p2", dmax=8, wmax=4))
    assert elements._pack.cache_info().currsize <= 1100
    assert elements._meet_deltas.cache_info().currsize <= 64
    _clear()


def test_chi_memo_is_bounded_and_holds_only_live_keys():
    # suite_chi on real-p2 8/4 memoizes chi of 916 packed monomials, 10,387
    # stored terms in all, since chi is taken by parts (1,192 and 12,113 as
    # a chain of top factors); the bounds leave about 1.5x headroom
    _clear()
    suite_chi(Config(p=2, scheme="real-p2", dmax=8, wmax=4))
    (h, memo), = steenrod._chi_mono_cache.items()
    assert h == algebra("real-p2", 2, ambient="a")
    assert len(memo) <= 1400
    assert sum(map(len, memo.values())) <= 16000
    # over z-half (eps^2 = eps rho = 0) no memoized monomial and no stored
    # term is one that the caps or zero pairs kill, the products of the
    # fixed part with chi of the tau part included, while eps and rho each
    # occur in the stored keys
    _clear()
    suite_chi(Config(p=2, scheme="z-half", dmax=8, wmax=4))
    (h, memo), = steenrod._chi_mono_cache.items()
    coeffs = [elements._unpack(k)[0] for k in set(memo).union(*memo.values())]
    assert not any(elements._coeff_zero(c, h.scheme) for c in coeffs)
    assert any(c.eps for c in coeffs) and any(c.rho for c in coeffs)
    _clear()


@pytest.mark.parametrize("scheme", ["real-p2", "z-half"])
def test_one_key_conjugate_is_the_memo_value_and_stays_unchanged(scheme):
    # _conjugate_packed of one key with scalar 1 returns the memo's own
    # value, which callers only read: a second suite_chi run leaves every
    # stored value as a deep copy taken after the first, order included
    h = algebra(scheme, 2, ambient="a")
    _clear()
    k = _pack((CoeffMonomial(tau=1), SteenrodMonomial(((1, 1),), (0, 2))))
    assert _conjugate_packed({k: 1}, h) is steenrod._chi_mono_cache[h][k]
    # conjugate's element owns its terms, so it holds a copy of that value
    x = term_element(2, 1, CoeffMonomial(tau=1), SteenrodMonomial(((1, 1),), (0, 2)))
    chi = conjugate(x, h)
    assert chi.terms == steenrod._chi_mono_cache[h][k]
    assert chi.terms is not steenrod._chi_mono_cache[h][k]
    config = Config(p=2, scheme=scheme, dmax=8, wmax=4)
    suite_chi(config)
    before = copy.deepcopy(steenrod._chi_mono_cache)
    suite_chi(config)
    assert steenrod._chi_mono_cache == before
    assert all(list(v.items()) == list(before[h][key].items())
               for key, v in steenrod._chi_mono_cache[h].items())
    _clear()


def test_clearing_the_chi_memos_forgets_every_chi_value():
    # chi values live in _chi_mono_cache alone, a generator's at its own int:
    # a corrupted chi(tau_2) seeded there shows in conjugate, the embedding
    # and chi(tau_1 tau_2), and clearing that one memo restores the true value
    h = algebra("algclosed", 2, ambient="a")
    _clear()
    suite_chi(Config(p=2, scheme="algclosed", dmax=8, wmax=4))
    tau_2 = SteenrodMonomial((), (2,))
    chi_tau_1 = conjugate(oracles.generator("tau", 1, 2), h)
    bad = term_element(2, 1, CoeffMonomial(tau=1), tau_2)
    steenrod._chi_mono_cache.clear()
    steenrod._chi_mono_cache[h] = {_pack((COEFF_ONE, tau_2)): bad.terms}
    try:
        assert conjugate(term_element(2, 1, CoeffMonomial(), tau_2), h) == bad
        assert _mz_image_packed(_pack((COEFF_ONE, tau_2)), h) == bad.terms
        tau_12 = term_element(2, 1, CoeffMonomial(), SteenrodMonomial((), (1, 2)))
        assert conjugate(tau_12, h) == mul(chi_tau_1, bad, h)
        steenrod._chi_mono_cache.clear()
        chi_tau_2 = conjugate(oracles.generator("tau", 2, 2), h)
        assert chi_tau_2 == oracles.chi_generator("tau", 2, h) != bad
    finally:
        _clear()


@pytest.mark.parametrize("argv,want", [
    ("dims --prime 3 --scheme finite --q 7 --dmax 27 --wmax 13",
     {algebra("finite-field", 3, 7): 1}),
    ("verify kerbasis --prime 2 --scheme real-p2 --dmax 11 --wmax 5",
     {algebra("real-p2", 2): 1, algebra("bare", 2): 1}),
    ("verify chi --prime 2 --scheme real-p2 --dmax 8 --wmax 4",
     {algebra("real-p2", 2): 1}),
], ids=["dims", "kerbasis", "chi"])
def test_each_command_enumerates_each_table_once(argv, want, monkeypatch, capsys):
    # a command asks for the whole window it reads before reading a basis,
    # so no basis read grows the table again
    _clear()
    builds = _count_builds(monkeypatch)
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert builds == want
    _clear()


@pytest.mark.parametrize("argv,size", [
    ("verify kerbasis --prime 2 --scheme real-p2 --dmax 11 --wmax 5", 315),
    ("verify kerbasis --prime 2 --scheme algclosed --dmax 20 --wmax 10", 118),
    ("verify kerbasis --prime 2 --scheme finite --q 3 --dmax 16 --wmax 8", 94),
], ids=["real-p2", "algclosed", "finite-q3"])
def test_verify_kerbasis_enumerates_the_monomials_once(argv, size, monkeypatch, capsys):
    # the window's bases, the eta buckets one past their budget that the
    # constructive kernel reads, and the freeness check's eta all come from
    # one enumeration.  Each reader enumerating its own budget took two
    # (263 + 315 monomials) on real-p2, three (94 + 118 + 608) on algclosed
    # and two (74 + 315) on finite q = 3.  The freeness check's eta have
    # degree <= F + 1, so d - w <= _degree_budget(p, F + 1, 1); enumerating
    # to d - w <= F + 1 took 608 on algclosed and 315 on finite q = 3.
    _clear()
    steenrod._mono_index.clear()
    sizes = []
    real = steenrod.steenrod_monomials

    def counted(p, budget, min_tau):
        out = real(p, budget, min_tau)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(steenrod, "steenrod_monomials", counted)
    assert main(argv.split()) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert sizes == [size]
    _clear()
    steenrod._mono_index.clear()


WINDOWS = [
    (algebra("real-p2", 2), (8, 4), (14, 7), Bidegree(19, 9)),
    (algebra("finite-field", 3, 7), (12, 6), (20, 10), Bidegree(25, 12)),
    (algebra("algclosed", 3), (12, 12), (20, 16), Bidegree(24, 10)),
]


@pytest.mark.parametrize("h,small,large,lone", WINDOWS,
                         ids=["real-p2", "finite-p3-q7", "algclosed-p3"])
@pytest.mark.parametrize("large_first", [False, True], ids=["small-first", "large-first"])
def test_windows_agree_whatever_the_table_holds(h, small, large, lone, large_first):
    # in one process, the rows of a window equal those of a larger window
    # restricted to it, whichever was built first, and a bidegree outside
    # both equals the oracle's basis, read after them or on an empty table
    _clear()
    rows = {}
    for window in (large, small) if large_first else (small, large):
        rows[window] = beta_report(populated_bidegrees(h, *window), h)
    dmax, wmax = small
    inside = [r for r in rows[large]
              if abs(r["bidegree"][0]) <= dmax and abs(r["bidegree"][1]) <= wmax]
    assert rows[small] == inside
    assert len(inside) < len(rows[large])
    assert lone.d > large[0] + 1
    want = oracles.bidegree_basis(lone, h)
    assert want and list(bidegree_basis(lone, h)) == want
    _clear()
    assert list(bidegree_basis(lone, h)) == want
    _clear()


CAPPED = [
    (algebra("algclosed", 2), (8, 8), (16, 12)),
    (algebra("algclosed", 2, ambient="a"), (8, 8), (16, 12)),
    (algebra("finite-field", 2, 3), (8, 4), (16, 8)),
    (algebra("finite-field", 2, 5), (8, 4), (16, 8)),
    (algebra("bare", 2), (8, 4), (16, 8)),
    (algebra("algclosed", 3), (12, 12), (24, 16)),
    (algebra("finite-field", 3, 7), (12, 6), (27, 13)),
    (algebra("real-odd", 3), (12, 6), (24, 12)),
    (algebra("bare", 3), (12, 6), (24, 12)),
    (algebra("algclosed", 5), (20, 10), (40, 20)),
]


@pytest.mark.parametrize("h,small,large", CAPPED,
                         ids=lambda v: f"{v.ambient}-{v.scheme.id}-p{v.p}" if hasattr(v, "p")
                         else "{}-{}".format(*v))
@pytest.mark.parametrize("large_first", [False, True], ids=["small-first", "large-first"])
def test_tight_budget_tables_equal_the_dmax_plus_wmax_tables(h, small, large, large_first,
                                                             monkeypatch):
    # where every degree -1 coefficient generator has a cap, the enumeration
    # asks for fewer xi/tau monomials than d - w <= dmax + wmax, and the table
    # it builds, bases and block layouts, is the one that budget builds, read
    # after each window of a nested pair in either order
    def tables():
        # the tables after each window, each basis as its keys and its
        # blocks, and the d - w budget enumerated
        _clear()
        steenrod._mono_index.clear()
        windows = (large, small) if large_first else (small, large)
        out = []
        for window in windows:
            dmax, wmax, bases = steenrod.basis_table(h, *window)
            out.append((dmax, wmax, {bd: (list(b), b.blocks) for bd, b in bases.items()}))
        return out, steenrod._mono_index[h.p, h.min_tau][0]

    tight, budget = tables()
    assert budget < sum(large)
    # no bound below dmax + wmax from the degree
    monkeypatch.setattr(steenrod, "_degree_budget", lambda p, dmax, min_tau: float("inf"))
    assert tables() == (tight, sum(large))
    _clear()
    steenrod._mono_index.clear()
