"""The Bockstein: derivation rules, blocks, kernel bases, reports."""

import random

import pytest

import oracles
from motsteen import SchemeError, algebra, bockstein, element_text, mul, term_element
from motsteen.elements import COEFF_ONE, CoeffMonomial, SteenrodMonomial, mono_degree
from motsteen.grading import BETA_SHIFT, Bidegree
from motsteen.bockstein import (
    beta,
    beta_report,
    block,
    block_complex,
    block_homology,
    constructive_kernel,
    free_bbeta_generators,
    ker_beta_basis,
    split_ranks,
    y,
)
from motsteen.linalg import column, rank
from motsteen.steenrod import (
    basis_index,
    bidegree_basis,
    eta,
    index_of,
    monomial_index,
    populated_bidegrees,
    steenrod_monomials_by_degree,
)

H2 = algebra("algclosed", 2)
H3 = algebra("algclosed", 3)
HR = algebra("real-p2", 2)
HZ = algebra("z-half", 2)
HF3 = algebra("finite-field", 3, q=7)
HA2 = algebra("algclosed", 2, ambient="a")
ALL_MZ = [H2, H3, HR, HZ, HF3, algebra("real-odd", 3),
          algebra("finite-field", 2, q=3), algebra("finite-field", 2, q=5)]


def test_beta_on_generators():
    assert element_text(beta(eta(basis_index({}, [1]), H2), H2)) == "1 | xi1^1 | tau{}"
    assert beta(eta(basis_index({1: 1}, []), H2), H2).is_zero()


def test_beta_on_coefficients_mz_form():
    tau = term_element(2, 1, CoeffMonomial(tau=1))
    assert element_text(beta(tau, HR)) == "rho^1 | 1 | tau{}"
    assert beta(tau, H2).is_zero()  # algebraically closed: no coefficient Bockstein
    tau3 = term_element(3, 1, CoeffMonomial(tau=1))
    assert element_text(beta(tau3, HF3)) == "eps^1 | 1 | tau{}"
    # derivative coefficient: beta(tau^i) = i eps tau^(i-1)
    t2 = term_element(3, 1, CoeffMonomial(tau=2))
    assert element_text(beta(t2, HF3)) == "2*eps^1*tau^1 | 1 | tau{}"
    assert beta(term_element(3, 1, CoeffMonomial(tau=3)), HF3).is_zero()


def test_beta_coefficients_trivial_in_full_algebra():
    tau = term_element(2, 1, CoeffMonomial(tau=1))
    har = algebra("real-p2", 2, ambient="a")
    assert beta(tau, har).is_zero()
    # beta(tau_0) = 1 there
    t0 = term_element(2, 1, COEFF_ONE, SteenrodMonomial((), (0,)))
    assert beta(t0, har) == term_element(2, 1)


def test_beta_leibniz_examples():
    out = beta(eta(basis_index({}, [1, 2]), H2), H2)
    assert element_text(out) == "1 | xi1^1 | tau{2} + 1 | xi2^1 | tau{1}"
    out3 = y(basis_index({}, [1, 2]), H3)
    assert element_text(out3) == "1 | xi1^1 | tau{2} + 2*1 | xi2^1 | tau{1}"


def test_beta_shifts_bidegree_down():
    x = eta(basis_index({}, [2]), H3)
    bx = beta(x, H3)
    assert (
        bx.homogeneous_bidegree(H3.scheme)
        == x.homogeneous_bidegree(H3.scheme) + BETA_SHIFT
    )


def test_beta_rejects_inhomogeneous():
    x = eta(basis_index({1: 1}, []), H2) + term_element(2, 1)
    with pytest.raises(ValueError):
        beta(x, H2)


def test_beta_refuses_terms_foreign_to_the_handle():
    # tau_0 is no class of the mz form
    t0 = term_element(2, 1, COEFF_ONE, SteenrodMonomial((), (0,)))
    with pytest.raises(ValueError, match="tau index 0 below the minimum 1"):
        beta(t0, HR)
    theta = term_element(2, 1, CoeffMonomial(theta=1))
    with pytest.raises(SchemeError,
                       match="coefficient generator 'theta' not present for scheme real-p2"):
        beta(theta, HR)
    # a foreign term is refused before the degree check, whatever the term count
    with pytest.raises(SchemeError, match="coefficient generator 'theta'"):
        beta(theta + eta(basis_index({1: 1}, []), HR), HR)


def test_beta_is_derivation_sampled():
    rng = random.Random(31)
    for h in (H3, HF3, HR):
        p = h.p
        monos = steenrod_monomials_by_degree(p, 20, 1)
        coeffs = [COEFF_ONE, CoeffMonomial(tau=1)]
        if "eps" in h.scheme.gens:
            coeffs.append(CoeffMonomial(eps=1))
        if "rho" in h.scheme.gens:
            coeffs.append(CoeffMonomial(rho=1))
        for _ in range(120):
            x = term_element(p, 1, rng.choice(coeffs), rng.choice(monos))
            z = term_element(p, 1, rng.choice(coeffs), rng.choice(monos))
            dx = x.homogeneous_bidegree(h.scheme).d
            lhs = beta(mul(x, z, h), h)
            rhs = mul(beta(x, h), z, h) + mul(x, beta(z, h), h).scaled(
                -1 if dx & 1 else 1
            )
            assert lhs == rhs


def test_beta_squared_zero_sweep():
    for h in ALL_MZ:
        p = h.p
        for mono in steenrod_monomials_by_degree(p, 24, 1):
            x = term_element(p, 1, COEFF_ONE, mono)
            assert beta(beta(x, h), h).is_zero()


def test_beta_kills_the_defining_relation():
    # tau_(i+1)^2 + xi_(i+2) tau + tau_(i+2) rho normalizes to zero, so its
    # Bockstein must vanish identically over every scheme
    for h in [x for x in ALL_MZ if x.p == 2]:
        for i in range(0, 5):
            sq = mul(
                eta(basis_index({}, [i + 1]), h), eta(basis_index({}, [i + 1]), h), h
            )
            rel = sq + mul(
                term_element(2, 1, CoeffMonomial(tau=1)),
                eta(basis_index({i + 2: 1}, []), h),
                h,
            )
            rho = h.scheme.rho_element
            if rho is not None:
                rel = rel + mul(
                    term_element(2, 1, CoeffMonomial().bump(rho)),
                    eta(basis_index({}, [i + 2]), h),
                    h,
                )
            assert rel.is_zero()
            assert beta(rel, h).is_zero()


def test_y_examples():
    assert element_text(y(basis_index({}, [1]), H2)) == "1 | xi1^1 | tau{}"
    assert y(basis_index({2: 3}, []), H2).is_zero()
    with pytest.raises(ValueError):
        y(basis_index({}, [1]), HA2)


def block_of(mono):
    """Block of a coefficient-free monomial: slot i mass = a_{i+1} + [i+1 in U]."""
    m = {}
    for j, e in mono.xi:
        m[j - 1] = m.get(j - 1, 0) + e
    for j in mono.taus:
        m[j - 1] = m.get(j - 1, 0) + 1
    return block(m)


def test_block_of():
    m = SteenrodMonomial(((1, 2), (3, 1)), (2, 3))
    # slot 0: exponent of xi_1 = 2; slot 1: tau_2; slot 2: xi_3 + tau_3 = 2
    assert block_of(m).m == ((0, 2), (1, 1), (2, 2))


def test_beta_preserves_blocks():
    for mono in steenrod_monomials_by_degree(2, 16, 1):
        x = term_element(2, 1, COEFF_ONE, mono)
        b = block_of(mono)
        for (c, m2), _ in oracles.terms(beta(x, H2)):
            assert block_of(m2) == b


def test_block_complex_shapes():
    cx = block_complex(block({}), 2)
    assert [len(b) for b in cx.bases] == [1]
    cx = block_complex(block({0: 1}), 2)
    assert [len(b) for b in cx.bases] == [1, 1]
    assert cx.differentials[1] == [1]
    cx = block_complex(block({0: 1, 1: 1}), 2)
    assert [len(b) for b in cx.bases] == [1, 2, 1]
    names = [idx for t in cx.bases for idx in t]
    assert basis_index({1: 1, 2: 1}, []) in names
    assert basis_index({}, [1, 2]) in names


def test_block_homology_examples():
    assert block_homology(block({}), 2) == [1]
    assert block_homology(block({0: 1}), 2) == [0, 0]
    assert block_homology(block({0: 2, 3: 1}), 2) == [0, 0, 0]
    assert block_homology(block({0: 1, 1: 1}), 3) == [0, 0, 0]


def test_free_generators_examples():
    assert free_bbeta_generators(Bidegree(2, 1), 2) == [basis_index({}, [1])]
    assert free_bbeta_generators(Bidegree(0, 0), 2) == []
    gens = free_bbeta_generators(Bidegree(9, 4), 2)
    at_94 = [g for g in gens if mono_degree(g, 2) + BETA_SHIFT == Bidegree(9, 4)]
    assert at_94 == [basis_index({}, [1, 2])]


@pytest.mark.parametrize("p,bound", [(2, (30, 12)), (3, (30, 12)), (5, (40, 12))])
def test_free_generators_rank_beta_by_split_ranks(monkeypatch, p, bound):
    """beta keeps the coefficient/ideal split, so the sum of split_ranks'
    two ranks is the rank of the beta matrix; free_bbeta_generators reads
    the sum."""
    h = algebra("bare", p)
    for bd in populated_bidegrees(h, *bound):
        want = rank(p, oracles.columns(oracles.beta_matrix(bd, h)))
        assert sum(split_ranks(bd, h)[2:]) == want, bd
    assert free_bbeta_generators(Bidegree(*bound), p)
    for bd in populated_bidegrees(h, *bound):
        ker_beta_basis(bd, h)
    # one rank too many, and the y classes no longer span the image
    real = bockstein.split_ranks
    monkeypatch.setattr(bockstein, "split_ranks",
                        lambda bd, h: (*real(bd, h)[:3], real(bd, h)[3] + 1))
    with pytest.raises(AssertionError, match="do not span im beta"):
        free_bbeta_generators(Bidegree(*bound), p)


def test_u_maximal_filter():
    # eta degree (9,4) also holds xi_2 tau_1, excluded: max supp a = 2 > max U = 1
    assert mono_degree(basis_index({2: 1}, [1]), 2) == Bidegree(9, 4)
    bucket = monomial_index(2, 5, 1)[Bidegree(9, 4)]
    assert [index_of(bucket[i]) for i in bockstein._u_maximal_at(Bidegree(9, 4), 2)] == [
        basis_index({1: 1}, [2]),
        basis_index({1: 3}, [1]),
    ]


def test_ker_beta_examples():
    kb = ker_beta_basis(Bidegree(2, 1), H2)
    texts = [element_text(oracles.vector_element(v, list(kb.labels), 2)) for v in kb.constructive]
    assert texts == ["1 | xi1^1 | tau{}"]
    kb = ker_beta_basis(Bidegree(0, -2), HR)
    texts = [element_text(oracles.vector_element(v, list(kb.labels), 2)) for v in kb.constructive]
    assert "tau^2 | 1 | tau{}" in texts
    assert len(kb.generic.vectors) == len(kb.constructive)


def test_element_vector_sparse_and_rejects_foreign_terms():
    # xi_1 tau_1 at (5, 2), xi_1 alone one bidegree down: not in that basis
    rows = {key: i for i, key in enumerate(bidegree_basis(Bidegree(5, 2), H2))}
    x = eta(basis_index({1: 1}, [1]), H2)
    assert oracles.element_vector(x, rows) == {rows[oracles.terms(x)[0][0]]: 1}
    with pytest.raises(ValueError, match="does not lie"):
        oracles.element_vector(eta(basis_index({1: 1}, []), H2), rows)


def test_constructive_kernel_elements_are_cycles():
    for h in (HR, HZ, HF3, oracles.ODD_PREIMAGE):
        for bd in [Bidegree(1, 0), Bidegree(2, 0), Bidegree(4, 1), Bidegree(0, -3)]:
            labels = list(bidegree_basis(bd, h))
            for vec in constructive_kernel(bd, h):
                assert beta(oracles.vector_element(vec, labels, h.p), h).is_zero()


@pytest.mark.parametrize(
    "h,bd", [(H2, Bidegree(3, 1)), (HR, Bidegree(3, 0)), (HF3, Bidegree(5, 1))]
)
def test_ker_beta_basis_rejects_a_non_cycle(monkeypatch, h, bd):
    """A constructive vector that beta does not kill fails the cycle check."""
    import motsteen.bockstein as bockstein

    j = next(
        j for j, (c, m) in enumerate(bockstein.bidegree_basis(bd, h))
        if not beta(term_element(h.p, 1, c, m), h).is_zero()
    )
    bad = column(h.p, {j: 1})
    real = bockstein.constructive_kernel
    monkeypatch.setattr(bockstein, "constructive_kernel", lambda b, g: real(b, g) + [bad])
    with pytest.raises(AssertionError, match="not a beta cycle"):
        ker_beta_basis(bd, h)


@pytest.mark.parametrize("h,bd", [(HR, Bidegree(1, -2)), (HF3, Bidegree(15, -9))])
@pytest.mark.parametrize("mutation", ["dependent", "short"])
def test_ker_beta_basis_rejects_a_wrong_count_or_a_dependent_set(monkeypatch, h, bd, mutation):
    """Cycles that are dependent, or one too few, fail the agreement check.

    The dependent set has the right count, so only the independence check
    catches it; the short set is independent, so only the count catches it.
    p = 2 runs the packed cycle check, p = 3 the dict one.
    """
    import motsteen.bockstein as bockstein

    real = bockstein.constructive_kernel
    assert len(real(bd, h)) >= 2

    def mutated(b, g):
        vecs = real(b, g)
        return [vecs[0]] + vecs[:-1] if mutation == "dependent" else vecs[1:]

    monkeypatch.setattr(bockstein, "constructive_kernel", mutated)
    with pytest.raises(AssertionError, match="disagrees"):
        ker_beta_basis(bd, h)


def test_kernel_agreement_with_odd_preimages():
    """The U elements beta(r) eta + (-1)^|r| r y are cycles only with the
    sign: on ODD_PREIMAGE, where some preimages r have odd degree, the
    kernels agree on every populated bidegree."""
    h = oracles.ODD_PREIMAGE
    odd = 0
    for bd in populated_bidegrees(h, 16, 8):
        ker_beta_basis(bd, h)  # raises on any disagreement
        for c in bidegree_basis(bd, h).blocks:
            sign, beta_c = bockstein._coeff_beta(c, h)
            odd += sign == -1 and bool(beta_c)
    assert odd


def test_constructive_vectors_are_the_columns_of_beta():
    """One Leibniz block: each constructive vector but a c | 1 cycle is
    column i of block c of beta's columns one bidegree up, beta(c eta), for
    each U-maximal position i, and c y = (-1)^|c| beta(c eta) for a cycle c."""
    negated = {}  # odd-p handle -> vectors negated
    for h in ALL_MZ + [oracles.ODD_PREIMAGE]:
        for bd in populated_bidegrees(h, 10, 7):
            up = bidegree_basis(bd - BETA_SHIFT, h).blocks
            beta_up = dict(zip(up, (cols for _, cols in bockstein._columns(bd - BETA_SHIFT, h))))
            want = []
            for c, (e, start) in bidegree_basis(bd, h).blocks.items():
                sign, beta_c = bockstein._coeff_beta(c, h)
                if e == Bidegree(0, 0):
                    if not beta_c:
                        want.append({start: 1})
                    continue
                flip = sign == -1 and not beta_c
                for i in bockstein._u_maximal_at(e - BETA_SHIFT, h.p):
                    col = oracles.as_dict(beta_up[c][i])
                    want.append({r: -s % h.p for r, s in col.items()} if flip else col)
                    if flip and h.p != 2:
                        key = (h.scheme.id, h.scheme.q)
                        negated[key] = negated.get(key, 0) + 1
            assert [oracles.as_dict(v) for v in constructive_kernel(bd, h)] == want
    assert negated == {("finite-field", 7): 20, ("odd-preimage", None): 27}


@pytest.mark.parametrize(
    "h", ALL_MZ, ids=lambda h: f"{h.scheme.id}-p{h.p}" + (f"-q{h.scheme.q}" if h.scheme.q else "")
)
def test_kernel_agreement_all_schemes(h):
    """Constructive and generic kernel bases agree on every supported base."""
    from motsteen.steenrod import populated_bidegrees

    for bd in populated_bidegrees(h, 10, 7):
        ker_beta_basis(bd, h)  # raises on any disagreement


def test_homology_dims_examples():
    # (dim, rank, ker, im, homology) as the dims rows report them
    rows = beta_report([Bidegree(0, 0), Bidegree(2, 1)], H2)
    fields = ("dim", "rank", "ker", "im", "homology")
    assert [tuple(r[f] for f in fields) for r in rows] == [
        (1, 0, 1, 0, 1),
        (1, 0, 1, 1, 0),
    ]


def test_beta_report_schema_and_notes():
    rep = beta_report([Bidegree(0, 0), Bidegree(2, 1), Bidegree(-1, -1)], HR)
    assert [r["bidegree"] for r in rep] == [[0, 0], [2, 1], [-1, -1]]
    for r in rep:
        assert r["ker"] + r["rank"] == r["dim"]
        assert r["notes"] == []
    # real base at (-1,-1): rho is hit by beta(tau), homology vanishes
    assert rep[2]["dim"] == 1 and rep[2]["homology"] == 0
    assert rep[0]["homology"] == 1


def test_beta_matrix_example():
    # the single Bockstein block at (3, 1): tau_1 -> xi_1, one column with
    # its one entry in row 0, in both column forms
    assert len(bidegree_basis(Bidegree(2, 1), H2)) == 1
    assert list(bockstein._columns(Bidegree(3, 1), H2)) == [(Bidegree(3, 1), [1])]
    # and at p = 3, tau_1 -> xi_1 at (5, 2)
    assert len(bidegree_basis(Bidegree(4, 2), H3)) == 1
    assert list(bockstein._columns(Bidegree(5, 2), H3)) == [(Bidegree(5, 2), [{0: 1}])]


def test_report_splitting_holds_everywhere():
    """Homology equals the coefficient tensor factor and the augmentation
    ideal is acyclic on every populated bidegree of every supported base."""
    from motsteen.steenrod import populated_bidegrees

    for h in ALL_MZ:
        rep = beta_report(populated_bidegrees(h, 10, 8), h)
        for r in rep:
            assert r["notes"] == [], (h.scheme.id, h.p, r)
            assert r["ker"] + r["rank"] == r["dim"]
            assert r["homology"] == r["ker"] - r["im"]
