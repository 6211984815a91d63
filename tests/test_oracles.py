"""The single-path enumeration, bases, dims report, Bockstein and its
matrices, elimination, product and conjugation against the oracles.

tests/oracles.py keeps the implementations these paths replaced; on small
windows the outputs must be equal, element for element and row for row.
"""

import itertools
import random
from collections import Counter

import pytest

import oracles
from motsteen import algebra, cli, relations, steenrod, verify
from motsteen.bockstein import (
    _columns,
    beta,
    beta_report,
    block,
    _coeff_beta,
    block_complex,
    constructive_kernel,
    free_bbeta_generators,
    ker_beta_basis,
    split_ranks,
)
from motsteen.bockstein import _u_maximal_at
from motsteen.elements import (
    _TAUS, CoeffMonomial, Element, SteenrodMonomial, _coeff_zero, _live, _mul_packed, _pack,
    _tau_rewrite, coeff_degree, mono_degree, mul, term_element,
)
from motsteen.cli import Config, cmd_dims
from motsteen.grading import BETA_SHIFT, Bidegree
from motsteen.linalg import kernel_basis, rank
from motsteen.relations import product_relation_sweep
from motsteen.schemes import COEFF_ORDER, _is_prime, _is_prime_power
from motsteen.steenrod import (
    BasisIndex,
    _mz_image_packed,
    basis_index,
    bidegree_basis,
    conjugate,
    eta,
    index_of,
    monomial_index,
    populated_bidegrees,
    steenrod_monomials,
    steenrod_monomials_by_degree,
)
from motsteen.verify import _torsion_probe_indices

ALL_MZ = [algebra("algclosed", 2), algebra("algclosed", 3), algebra("real-p2", 2),
          algebra("z-half", 2), algebra("finite-field", 3, q=7), algebra("real-odd", 3),
          algebra("finite-field", 2, q=3), algebra("finite-field", 2, q=5)]
ALL_A = [algebra("algclosed", 2, ambient="a"), algebra("algclosed", 3, ambient="a"),
         algebra("real-p2", 2, ambient="a"), algebra("z-half", 2, ambient="a")]


def handle_id(h):
    q = f"-q{h.scheme.q}" if h.scheme.q else ""
    return f"{h.ambient}-{h.scheme.id}-p{h.p}{q}"


@pytest.mark.parametrize("p,top", [(2, 24), (3, 40)])
def test_enumeration_matches_oracle(p, top):
    # descending, so every view below the first is read off a grown index
    for min_tau in (0, 1):
        for n in range(top, -1, -1):
            assert steenrod_monomials(p, n, min_tau) == oracles.steenrod_monomials(p, n, min_tau)
            assert steenrod_monomials_by_degree(p, n, min_tau) == (
                oracles.steenrod_monomials_by_degree(p, n, min_tau)
            )


@pytest.mark.parametrize("h", ALL_MZ + ALL_A, ids=handle_id)
def test_bases_match_oracle(h):
    window = (10, 7) if h.p == 2 else (20, 9)
    bds = populated_bidegrees(h, *window)
    assert bds == oracles.populated_bidegrees(h, *window)
    for bd in bds:
        for b in (bd, bd + BETA_SHIFT, bd - BETA_SHIFT):
            # a basis is its block layout: its len is the number of keys it
            # yields, and they are the oracle's basis, in order
            basis = bidegree_basis(b, h)
            keys = list(basis)
            assert len(basis) == len(keys)
            assert keys == oracles.bidegree_basis(b, h)


@pytest.mark.parametrize(
    "h,window",
    [(algebra("algclosed", 2), (24, 24)), (algebra("finite-field", 3, q=7), (27, 13)),
     (algebra("real-p2", 2), (20, 2)), (algebra("z-half", 2), (3, 20))],
    ids=["algclosed-p2-24-24", "finite-p3-27-13", "real-p2-20-2", "z-half-p2-3-20"],
)
def test_populated_bidegrees_matches_oracle(h, window):
    # larger and lopsided windows, where the coefficient part of a populated
    # bidegree may lie far outside the window
    assert populated_bidegrees(h, *window) == oracles.populated_bidegrees(h, *window)


@pytest.mark.parametrize("p", [2, 3])
def test_u_maximal_matches_oracle(p):
    # the U-maximal positions of each bucket within the budget, as indices
    for budget in range(-1, 20):
        buckets = monomial_index(p, budget, 1)
        got = {eb: [index_of(buckets[eb][i]) for i in at] for eb in buckets
               if eb.d - eb.w <= budget and (at := _u_maximal_at(eb, p))}
        assert got == oracles.u_maximal_by_degree(p, budget)
    for bound in (Bidegree(0, 0), Bidegree(9, 4), Bidegree(16, 8), Bidegree(30, 12)):
        assert free_bbeta_generators(bound, p) == (
            oracles.free_bbeta_generators(bound, p)
        )


def test_torsion_probe_indices():
    # verify products probes the pullback with these, in this order; they
    # are the first 8 of the filter it once ran over the monomials itself
    want = {
        2: [((), (1,)), ((), (1, 2)), ((), (2,)), (((1, 1),), (1,)),
            (((1, 1),), (1, 2)), (((1, 1),), (2,)), (((1, 2),), (1,)), (((1, 2),), (2,))],
        3: [((), (1,)), (((1, 1),), (1,))],
    }
    for p, idxs in want.items():
        got = _torsion_probe_indices(p)
        assert got == [BasisIndex(*i) for i in idxs]
        old = [
            index_of(m) for m in oracles.steenrod_monomials_by_degree(p, 12, 1)
            if m.taus and max((j for j, e in m.xi), default=0) <= max(m.taus)
        ]
        assert got == old[:8]


@pytest.mark.parametrize("h", ALL_MZ, ids=handle_id)
def test_beta_report_matches_oracle(h):
    window = (10, 7) if h.p == 2 else (20, 9)
    bds = oracles.populated_bidegrees(h, *window)
    assert beta_report(bds, h) == oracles.beta_report(bds, h)


@pytest.mark.parametrize("scheme,p,q", [("real-p2", 2, None), ("finite-field", 3, 7)])
def test_dims_rows_match_oracle(tmp_path, scheme, p, q):
    config = Config(p=p, scheme=scheme, q=q, dmax=8, wmax=5, cache_dir=str(tmp_path))
    h = config.handle()
    want = oracles.beta_report(oracles.populated_bidegrees(h, 8, 5), h)
    assert cmd_dims(config) == want
    assert cmd_dims(config) == want  # warm disk cache


@pytest.mark.parametrize(
    "h", ALL_MZ + ALL_A + [algebra("bare", 2), algebra("bare", 3), oracles.ODD_PREIMAGE],
    ids=handle_id,
)
def test_beta_matches_oracle(h):
    # same terms in the same order: on every basis monomial of the window,
    # and on seeded random homogeneous sums of 1 to 6 of them.  On
    # ODD_PREIMAGE beta(rho tau^k) passes the odd rho, so the sign the
    # coefficient Bockstein takes for odd generators below it shows there
    rng = random.Random(f"beta-{handle_id(h)}")
    p = h.p
    window = (10, 7) if p == 2 else (20, 9)
    for bd in populated_bidegrees(h, *window):
        basis = list(bidegree_basis(bd, h))
        xs = [term_element(p, 1, c, m) for c, m in basis]
        for _ in range(8):
            keys = rng.sample(basis, rng.randint(1, min(6, len(basis))))
            xs.append(Element(p, {_pack(key): rng.randrange(1, p) for key in keys}))
        for x in xs:
            want = oracles.beta(x, h)
            assert oracles.terms(beta(x, h)) == oracles.terms(want)


def beta_columns(bd, h):
    """beta's columns at bd as ker_beta_basis reads them: _columns flattened."""
    return [col for _, cols in _columns(bd, h) for col in cols]


def assert_columns_equal(bd, h, want):
    """beta_columns(bd, h) are the columns of the matrix want, each in its
    form (an int at p = 2, a dict at odd p, its entries in want's order)."""
    cols = beta_columns(bd, h)
    assert (len(bidegree_basis(bd + BETA_SHIFT, h)), len(cols)) == (want.nrows, want.ncols)
    got, exp = cols, oracles.columns(want)
    if h.p != 2:
        got, exp = [list(c.items()) for c in got], [list(c.items()) for c in exp]
    assert got == exp


@pytest.mark.parametrize(
    "h", ALL_MZ + ALL_A + [algebra("bare", 2), algebra("bare", 3)], ids=handle_id
)
def test_beta_matrix_matches_oracle(h):
    # the columns assembled from the factor memos have the entries of one
    # beta call per basis monomial, in the same order
    window = (10, 7) if h.p == 2 else (20, 9)
    for bd in populated_bidegrees(h, *window):
        assert_columns_equal(bd, h, oracles.beta_matrix(bd, h))


BLOCK_HANDLES = ALL_MZ + ALL_A + [
    algebra("algclosed", 5), algebra("algclosed", 5, ambient="a"),
    algebra("bare", 2), algebra("bare", 3), algebra("bare", 5),
]


@pytest.mark.parametrize("h", BLOCK_HANDLES, ids=handle_id)
def test_block_assembly_matches_tuple_keyed_reference(h):
    # each basis is its blocks concatenated in c order, each block exactly its
    # bucket; beta's columns and split_ranks, built block by block, equal the
    # (c, mono)-keyed matrix and the split of its regrouped rows, and the
    # full algebra's crossing at tau_0 raises in both
    window = {2: (10, 7), 3: (20, 9), 5: (40, 12)}[h.p]
    buckets = {}
    for mono in oracles.steenrod_monomials(h.p, sum(window), h.min_tau):
        buckets.setdefault(oracles._degree(mono, h.p), []).append(mono)
    crossed = 0
    for bd in populated_bidegrees(h, *window):
        blocks = bidegree_basis(bd, h).blocks
        assert list(blocks) == sorted(blocks)
        laid_out = []
        for c, (e, start) in blocks.items():
            assert start == len(laid_out)
            assert e == bd - coeff_degree(c, h.scheme)
            laid_out += [(c, m) for m in buckets[e]]
        assert laid_out == list(bidegree_basis(bd, h))
        want = oracles.leibniz_beta_matrix(bd, h)
        assert_columns_equal(bd, h, want)
        try:
            want_ranks = oracles.split_ranks(bd, want, h)
        except ValueError:
            crossed += 1
            with pytest.raises(ValueError, match="crosses"):
                split_ranks(bd, h)
        else:
            assert split_ranks(bd, h) == want_ranks
    assert bool(crossed) == (h.ambient == "a")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_block_complex_matches_oracle(p):
    # every block of total mass <= 4 on slots 0..3, the empty block among them
    h = algebra("bare", p)
    for v in itertools.product(range(5), repeat=4):
        if sum(v) > 4:
            continue
        cx = block_complex(block(dict(enumerate(v))), p)
        for t in range(1, len(cx.bases)):
            rows = {idx: i for i, idx in enumerate(cx.bases[t - 1])}
            want = {}
            for col, idx in enumerate(cx.bases[t]):
                for (_, mono), s in oracles.terms(oracles.beta(eta(idx, h), h)):
                    want[(rows[index_of(mono)], col)] = s
            cols = cx.differentials[t]
            assert len(cols) == len(cx.bases[t])
            assert cols == oracles.columns(oracles.Matrix(p, len(rows), len(cols), want))


@pytest.mark.parametrize("h", ALL_MZ + ALL_A, ids=handle_id)
def test_kernel_basis_matches_oracle(h):
    # the same kernel vectors, bit for bit, and the same rank, from beta's
    # columns at every populated bidegree of the window
    window = (10, 7) if h.p == 2 else (20, 9)
    for bd in populated_bidegrees(h, *window):
        cols = beta_columns(bd, h)
        M = oracles.matrix(h.p, len(bidegree_basis(bd + BETA_SHIFT, h)), cols)
        assert oracles.dense(kernel_basis(h.p, cols)) == oracles.kernel_basis(M)
        want = oracles.rank(M)
        assert rank(h.p, cols) == want
        assert rank(h.p, iter(cols)) == want


@pytest.mark.parametrize("h,window", [
    (algebra("real-p2", 2), (16, 8)),
    (algebra("z-half", 2), (12, 6)),
    (algebra("finite-field", 2, q=3), (14, 7)),
    (algebra("finite-field", 3, q=7), (20, 10)),
    (algebra("real-odd", 3), (16, 8)),
    (algebra("algclosed", 5), (30, 15)),
], ids=lambda v: handle_id(v) if hasattr(v, "scheme") else "{}-{}".format(*v))
def test_kernel_of_beta_columns_matches_the_dense_kernel(h, window):
    # ker_beta_basis's generic kernel, vector for vector and in order, is
    # the dense reduced row echelon form's on larger windows
    for bd in populated_bidegrees(h, *window):
        cols = beta_columns(bd, h)
        M = oracles.matrix(h.p, len(bidegree_basis(bd + BETA_SHIFT, h)), cols)
        assert oracles.dense(ker_beta_basis(bd, h).generic) == oracles.kernel_basis(M)


@pytest.mark.parametrize(
    "h,window", [(h, (10, 7)) for h in ALL_MZ] + [(algebra("real-p2", 2), (16, 8)),
                                                 (algebra("algclosed", 5), (30, 15)),
                                                 (oracles.ODD_PREIMAGE, (16, 8))],
    ids=lambda v: handle_id(v) if hasattr(v, "scheme") else "{}-{}".format(*v),
)
def test_constructive_kernel_matches_oracle(h, window):
    # the same vectors on every populated bidegree: the library lays them out
    # block by block over the basis positions, ints at p = 2 and dicts at odd
    # p, from the bucket memo and the _coeff_beta split; the oracle
    # multiplies Elements out, splits by the hand rule and goes through
    # element_vector.  The two splits agree, in order.  The library lists
    # the vectors by block, the oracle by eta bidegree, so the lists are
    # compared sorted.  ODD_PREIMAGE has coefficient preimages of odd
    # degree, whose sign (-1)^|r| no base scheme shows
    p = h.p
    for bd in populated_bidegrees(h, *window):
        cs = steenrod.coeff_monomials(bd, h.scheme)
        split = ([c for c in cs if not _coeff_beta(c, h)[1]],
                 [c for c in cs if _coeff_beta(c, h)[1]])
        assert split == oracles.coeff_split(bd, h.scheme)
        rows = {key: i for i, key in enumerate(bidegree_basis(bd, h))}
        want = [oracles.element_vector(x, rows) for x in oracles.constructive_kernel(bd, h)]
        got = constructive_kernel(bd, h)
        assert all(isinstance(v, int if p == 2 else dict) for v in got)
        assert sorted(sorted(oracles.as_dict(v).items()) for v in got) == (
            sorted(sorted(v.items()) for v in want)
        )


@pytest.mark.parametrize(
    "h", ALL_MZ + ALL_A + [algebra("bare", 2), algebra("bare", 3)], ids=handle_id
)
def test_mul_matches_oracle(h):
    # same terms in the same order: on seeded random sums of 1 to 6 basis
    # monomials of two populated bidegrees, and in the full algebra on every
    # product of two conjugated generators of index <= 4, whose tau sets meet
    rng = random.Random(f"mul-{handle_id(h)}")
    p = h.p
    window = (8, 5) if p == 2 else (18, 9)
    bases = [list(bidegree_basis(bd, h)) for bd in populated_bidegrees(h, *window)]
    xs = []
    for _ in range(300):
        basis = rng.choice(bases)
        keys = rng.sample(basis, rng.randint(1, min(6, len(basis))))
        xs.append(Element(p, {_pack(key): rng.randrange(1, p) for key in keys}))
    pairs = list(zip(xs[::2], xs[1::2]))
    if h.ambient == "a":
        gens = [conjugate(oracles.generator(kind, r, p), h)
                for kind in ("xi", "tau") for r in range(5)]
        pairs += [(x, z) for x in gens for z in gens]
    for x, z in pairs:
        want = oracles.mul(x, z, h)
        assert oracles.terms(mul(x, z, h)) == oracles.terms(want)


@pytest.mark.parametrize("h", ALL_MZ + ALL_A, ids=handle_id)
def test_normalize_matches_oracle(h):
    # the leaf path of mul, fed raw terms last to first: each packed leaf of
    # the tau_j^2 rewrite added to the packed coefficient and xi part,
    # collected mod p and unpacked less the killed keys, gives the same terms
    # in the same order as the oracle's normalize on seeded sums of 2 to 6
    # raw terms: tau multiplicities up to 3, so squares expand more than
    # once, coefficient exponents up to 2, past the caps and onto the zero
    # pairs, and repeated raw terms, so terms cancel
    rng = random.Random(f"normalize-{handle_id(h)}")
    p = h.p
    taus = range(h.min_tau, h.min_tau + 4)
    for _ in range(300):
        raw = []
        for _ in range(rng.randint(1, 5)):
            c = CoeffMonomial(**{g: rng.randint(0, 2) for g in h.scheme.gens})
            xi = {j: rng.randint(0, 2) for j in rng.sample(range(1, 4), rng.randint(0, 2))}
            counts = {j: rng.randint(0, 3) for j in rng.sample(taus, rng.randint(0, 3))}
            raw.append((rng.randrange(p + 1), c, xi, counts))
        raw.append(rng.choice(raw))
        acc = {}
        for s, c, xi, counts in reversed(raw):
            if s % p:
                multiset = tuple(sorted(j for j, e in counts.items() for _ in range(e)))
                xi_part = tuple(sorted((j, e) for j, e in xi.items() if e))
                base = _pack((c, SteenrodMonomial(xi_part, ())))
                for leaf_c, leaf_xi, leaf_taus in _tau_rewrite(multiset, h):
                    k = base + _pack((leaf_c, SteenrodMonomial(leaf_xi, leaf_taus)))
                    v = (acc.get(k, 0) + s) % p
                    if v:
                        acc[k] = v
                    else:
                        acc.pop(k)
        want = oracles.normalize(raw, h)
        assert oracles.terms(Element(p, _live(acc, h))) == oracles.terms(want)


@pytest.mark.parametrize("h", ALL_A, ids=handle_id)
def test_conjugate_matches_oracle(h):
    for bd in populated_bidegrees(h, *((8, 5) if h.p == 2 else (20, 9))):
        for c, m in bidegree_basis(bd, h):
            x = term_element(h.p, 1, c, m)
            assert conjugate(x, h) == oracles.conjugate(x, h)


@pytest.mark.parametrize("h_a", ALL_A, ids=handle_id)
def test_mz_image_matches_oracle(h_a):
    h = algebra(h_a.scheme.id, h_a.p, h_a.scheme.q)
    for bd in populated_bidegrees(h, *((8, 5) if h.p == 2 else (20, 9))):
        for c, m in bidegree_basis(bd, h):
            got = _mz_image_packed(_pack((c, m)), h_a)
            assert got == oracles.mz_image_in_a(c, index_of(m), h_a).terms


def test_odd_coefficient_signs_match_oracle():
    # finite q = 7 at p = 3 is the one configuration with an odd coefficient
    # generator (eps), and ALL_A leaves it out: conjugate and the embedding
    # on every basis monomial, eps ones included, against the oracle
    h_a = algebra("finite-field", 3, q=7, ambient="a")
    h = algebra("finite-field", 3, q=7)
    for bd in populated_bidegrees(h_a, 20, 9):
        for c, m in bidegree_basis(bd, h_a):
            x = term_element(3, 1, c, m)
            assert conjugate(x, h_a) == oracles.conjugate(x, h_a)
    for bd in populated_bidegrees(h, 20, 9):
        for c, m in bidegree_basis(bd, h):
            got = _mz_image_packed(_pack((c, m)), h_a)
            assert got == oracles.mz_image_in_a(c, index_of(m), h_a).terms


FULL_235 = [algebra(s, p, q, ambient="a") for s, p, q in (
    ("algclosed", 2, None), ("real-p2", 2, None), ("z-half", 2, None),
    ("finite-field", 2, 3), ("finite-field", 2, 5), ("bare", 2, None),
    ("algclosed", 3, None), ("real-odd", 3, None), ("finite-field", 3, 7), ("bare", 3, None),
    ("algclosed", 5, None), ("real-odd", 5, None), ("finite-field", 5, 11), ("bare", 5, None),
)]


@pytest.mark.parametrize("h", FULL_235, ids=handle_id)
def test_packed_chi_generators_match_oracle(h):
    # chi(xi_r) and chi(tau_r), r <= 6, computed cold by the packed
    # recursion, against the recursion on Elements through the oracle's
    # product: the same terms in the same order
    steenrod._chi_mono_cache.pop(h, None)
    for kind in ("xi", "tau"):
        for r in range(7):
            got = conjugate(oracles.generator(kind, r, h.p), h)
            want = oracles.chi_generator(kind, r, h)
            assert oracles.terms(got) == oracles.terms(want)


def test_packed_chi_refuses_an_exponent_outside_the_layout():
    # chi(tau_21) at p = 3 needs xi_1^(3^20), and 3^20 >= 2^31 - 64: the
    # shift is packed before any lower chi, so no lower tau entry is left
    h = algebra("algclosed", 3, ambient="a")
    steenrod._chi_mono_cache.pop(h, None)
    with pytest.raises(ValueError, match=f"exponent {3 ** 20} does not fit"):
        conjugate(oracles.generator("tau", 21, 3), h)
    assert not steenrod._chi_mono_cache[h]


CHI_PARTS = [algebra(s, p, q, ambient="a") for s, p, q in (
    ("real-p2", 2, None), ("z-half", 2, None), ("finite-field", 2, 3),
    ("real-odd", 3, None), ("finite-field", 3, 7), ("real-odd", 5, None),
)]


@pytest.mark.parametrize("h", CHI_PARTS, ids=handle_id)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "chain-warmed"])
def test_chi_by_parts_matches_the_chain(h, warm, monkeypatch):
    # chi of every c | m, c of verify's coefficient sweep (exponents <= 2)
    # and m of degree <= 8, by parts against the chain of top factors, on a
    # cold memo and on one the chain filled first for degree <= 4; then on
    # the keys of the same exponents that the coefficient relations kill
    monos = steenrod_monomials_by_degree(h.p, 8, 0)
    live = verify._coeff_sweep(h.scheme, cap=2)
    ranges = [range(3 if g in h.scheme.gens else 1) for g in COEFF_ORDER]
    killed = [c for c in map(CoeffMonomial._make, itertools.product(*ranges))
              if _coeff_zero(c, h.scheme)]
    assert bool(killed) == bool(h.scheme.caps or h.scheme.zero_pairs)
    monkeypatch.setitem(steenrod._chi_mono_cache, h, {})
    if warm:
        for c in live:
            for m in monos:
                if mono_degree(m, h.p).d <= 4:
                    oracles.chi_chain(_pack((c, m)), h, steenrod._chi_mono_cache[h])
    chain = {}
    for c in live + killed:
        for m in monos:
            k = _pack((c, m))
            assert steenrod._chi_packed(k, h) == oracles.chi_chain(k, h, chain)


ODD_MEET = [algebra(s, p, q, ambient) for p, q7 in ((3, 7), (5, 11)) for s, q, ambient in (
    ("algclosed", None, "a"), ("finite-field", q7, "mz"), ("real-odd", None, "a"),
    ("bare", None, "mz"),
)]


@pytest.mark.parametrize("h", ODD_MEET, ids=handle_id)
def test_odd_p_meeting_pairs_vanish(h):
    # tau_j^2 = 0 at odd p, so a pair of terms whose tau sets meet adds
    # nothing: such a product is 0, and on seeded random sums the odd-p
    # product equals the oracle's, which adds the pair's (empty) rewrite
    rng = random.Random(f"odd-meet-{handle_id(h)}")
    p = h.p
    taus = range(h.min_tau, h.min_tau + 4)

    def key():
        c = CoeffMonomial(**{g: rng.randint(0, 1) for g in h.scheme.gens})
        xi = tuple((j, e) for j in (1, 2) if (e := rng.randint(0, 2)))
        return _pack((c, SteenrodMonomial(xi, tuple(sorted(rng.sample(taus, rng.randint(0, 3)))))))

    def acc():
        return {key(): rng.randrange(1, p) for _ in range(rng.randint(1, 5))}

    met = 0
    for _ in range(300):
        k1, k2 = key(), key()
        if k1 & k2 & _TAUS:
            met += 1
            assert _mul_packed({k1: rng.randrange(1, p)}, {k2: rng.randrange(1, p)}, h) == {}
        xa, ya = acc(), acc()
        assert list(_mul_packed(xa, ya, h).items()) == list(oracles.mul_packed(xa, ya, h).items())
    assert met


@pytest.mark.parametrize("p", [2, 3])
def test_product_cases_match_oracle(p):
    # the packed sweep of the (2, 1) window against the same sweep built case
    # by case from oracles.product_case: the report and the unmatched cases
    report, hard = product_relation_sweep(p, 2, 1)
    assert (report, hard) == oracles.product_relation_sweep(p, 2, 1)
    assert hard == []
    assert report == {
        "p": p,
        "cases": 256,
        "matches": {"subscript": 256, "printed": {2: 80, 3: 96}[p]},
        "uniform_convention": "subscript",
    }


def test_product_sweep_failures_match_oracle(monkeypatch, capsys):
    # drop the last subscript term of one key (a + b, U, T): every pair sharing
    # the key, and no other, is unmatched, with the oracle's failure texts;
    # verify products then prints one FAIL row and skips the pullback check
    real = relations.product_formula_terms
    target = (((1, 1),), (1,), (1, 2))

    def patched(aU, bT, p, convention):
        terms = real(aU, bT, p, convention)
        ab = tuple(sorted((Counter(dict(aU.a)) + Counter(dict(bT.a))).items()))
        return terms[:-1] if convention == "subscript" and (ab, aU.U, bT.U) == target else terms

    monkeypatch.setattr(relations, "product_formula_terms", patched)
    monkeypatch.setattr(oracles, "product_formula_terms", patched)
    first = basis_index({}, (1,)), basis_index({1: 1}, (1, 2))
    for p in (2, 3):
        report, hard = product_relation_sweep(p, 2, 1)
        want_report, want_hard = oracles.product_relation_sweep(p, 2, 1)
        assert report == want_report and report["uniform_convention"] is None
        assert [(aU, bT) for aU, bT, _ in hard] == [
            first, (basis_index({1: 1}, (1,)), basis_index({}, (1, 2)))]
        assert [(aU, bT, list(f.items())) for aU, bT, f in hard] == [
            (aU, bT, list(f.items())) for aU, bT, f in want_hard]
        assert all(f["printed"] == "delta index 0 touches slot 0" for _, _, f in hard)
    # the first unmatched pair of the (3, 2) window that verify products sweeps
    _, failures = oracles.product_case(*first, algebra("algclosed", 2))
    code = cli.main(["verify", "products", "--prime", "2", "--scheme", "algclosed",
                     "--dmax", "6", "--wmax", "6"])
    assert code == 1
    assert capsys.readouterr().out == (
        f"FAIL  product relation — no convention matches y{first[0]} * y{first[1]}: "
        f"{failures}\n")


def test_split_crossing_raises():
    # in the full algebra beta(tau_0) = 1 maps the augmentation ideal onto
    # the coefficient ring, so the report's block split does not exist
    h = ALL_A[0]
    with pytest.raises(KeyError):
        oracles.beta_report([Bidegree(1, 0)], h)
    with pytest.raises(ValueError, match="crosses"):
        beta_report([Bidegree(1, 0)], h)


def test_primality_matches_oracle():
    # Miller-Rabin and exact roots against trial division and float roots
    for n in range(-2, 20_000):
        assert _is_prime(n) == oracles.is_prime(n), n
        assert _is_prime_power(n) == oracles.is_prime_power(n), n
    # past the oracles' reach: 2^61 - 1 is prime (trial division takes
    # minutes), and the bases above 23 refuse a strong pseudoprime to 2..23
    m61 = 2**61 - 1
    assert _is_prime(m61) and _is_prime_power(m61)
    assert not _is_prime(m61**2) and _is_prime_power(m61**2)
    assert not _is_prime_power(m61 * 3) and not _is_prime_power(m61 * (2**31 - 1))
    assert not _is_prime(3825123056546413051)  # 149491 * 747451 * 34233211
    assert _is_prime_power(3**700) and not _is_prime_power(3**700 + 1)
