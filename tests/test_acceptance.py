"""Acceptance criteria, one test per criterion, all exact.

Scheme/prime pairings follow the compatibility rules: the real base at p = 2
uses the rho presentation and at odd p the theta presentation; Z[1/2] exists
at p = 2 only; finite fields require p not dividing q.  Every check is exact
equality; the only tolerated deviations are the documented index
discrepancies of the closed formulas, reported as WARN by the suites.

Where a criterion names an infinite monomial family (coefficient tau-powers
have topological degree zero), the sweep bounds coefficient exponents at
max(p, 2) per generator, which exhausts every residue class mod p of the
derivation coefficients and every Koszul parity; the xi/tau part is swept to
the stated topological degree in full.
"""

import time
from itertools import product

import pytest

from motsteen import algebra, term_element
from motsteen.cli import Config
from motsteen.elements import CoeffMonomial
from motsteen.grading import Bidegree
from motsteen.bockstein import (
    beta,
    block,
    block_homology,
    free_bbeta_generators,
    y,
)
from motsteen.steenrod import basis_index, steenrod_monomials_by_degree
from motsteen.relations import (
    _exponent_vectors,
    product_relation_sweep,
    verify_linear_relation,
    z12_relation_check,
)
from motsteen import verify as V

P2_SCHEMES = [("algclosed", None), ("real-p2", None), ("finite-field", 3),
              ("finite-field", 5), ("z-half", None)]
P3_SCHEMES = [("algclosed", None), ("real-odd", None), ("finite-field", 7)]
ALL_COMBOS = [(2, s, q) for s, q in P2_SCHEMES] + [(3, s, q) for s, q in P3_SCHEMES]


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_01_beta_squared_zero():
    """beta^2 = 0 on every basis monomial with degree <= 40, all schemes."""
    t0 = time.time()
    total = 0
    for p, s, q in ALL_COMBOS:
        cfg = Config(p=p, scheme=s, q=q, dmax=40, wmax=40)
        results = V.suite_beta2(cfg)
        assert results[0][1] == "PASS", results[0][2]
        total += int(results[0][2].split()[0])
    elapsed = time.time() - t0
    report(1, elapsed < 120, f"{total} monomials over {len(ALL_COMBOS)} "
                             f"scheme/prime pairs in {elapsed:.1f}s (< 120s)")


def test_criterion_02_block_acyclicity():
    """Every block with support in {0..4}, masses <= 3, is acyclic unless trivial."""
    t0 = time.time()
    n = 0
    for p in (2, 3):
        for masses in product(range(4), repeat=5):
            b = block({i: m for i, m in enumerate(masses)})
            hom = block_homology(b, p)
            if not b.m:
                assert hom == [1]
            else:
                assert all(v == 0 for v in hom), (p, b, hom)
            n += 1
    elapsed = time.time() - t0
    report(2, elapsed < 60, f"{n} blocks, p in {{2,3}}, {elapsed:.1f}s (< 60s)")


@pytest.mark.parametrize("p,scheme,q", [(2, "real-p2", None), (2, "algclosed", None),
                                        (3, "algclosed", None)])
def test_criterion_03_conjugation(p, scheme, q):
    """chi multiplicative and involutive to degree 20 plus 200 random pairs."""
    cfg = Config(p=p, scheme=scheme, q=q, dmax=20, wmax=10)
    results = {name: (status, detail) for name, status, detail in V.suite_chi(cfg)}
    for name in ("chi(tau) = tau + rho tau_0", "chi(tau_0) = -tau_0",
                 "chi is an involution", "chi is multiplicative"):
        status, detail = results[name]
        assert status == "PASS", f"{name}: {detail}"
    if scheme == "real-p2":
        assert results["chi(rho) = rho"][0] == "PASS"
        assert results["conjugated quadratic relation"][0] == "PASS"
    report(3, True, f"p={p} {scheme}: involution + multiplicativity to degree 20")


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_04_product_relations(p):
    """Oracle product equals the closed formula under one uniform convention."""
    rep, hard = product_relation_sweep(p, max_index=3, max_exp=2)
    assert hard == [], f"cases matched by no convention: {len(hard)}"
    assert rep["uniform_convention"] == "subscript", rep
    assert rep["matches"]["printed"] < rep["cases"]
    assert rep["cases"] == 46656
    assert rep["matches"] == {"subscript": 46656, "printed": {2: 7290, 3: 14580}[p]}
    report(4, True,
           f"p={p}: {rep['cases']} cases uniform under the subscript convention; "
           f"printed variant fails {rep['cases'] - rep['matches']['printed']}")


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_05_linear_relations(p):
    """Signed linear relation family vanishes for all small exponent vectors."""
    signs_seen = set()
    cases = 0
    for a in _exponent_vectors([1, 2, 3], 2):
        for j in range(1, len(a) + 2):
            rep = verify_linear_relation(a, j, p)
            assert rep.ok, (a, j, p)
            for _, signs, _ in rep.signed_cases:
                signs_seen.update(s for _, s in signs)
            cases += 1
    detail = f"p={p}: {cases} (a, j) cases"
    if p > 2 and -1 in signs_seen:
        detail += "; odd-p signs recorded: alternating Koszul signs"
    report(5, True, detail)


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_06_degree_formula(p):
    """|y[a,U]| = (-1,0) + sum a_i (p^i - 1)(2,1) + sum (2 p^j - 1, p^j - 1)."""
    h = algebra("algclosed", p)
    n = 0
    for mono in steenrod_monomials_by_degree(p, 31, 1):
        if not mono.taus:
            continue
        idx = basis_index(dict(mono.xi), mono.taus)
        el = y(idx, h)
        want = Bidegree(-1, 0)
        for i, e in idx.a:
            want = want + Bidegree(2, 1).scaled(e * (p**i - 1))
        for j in idx.U:
            want = want + Bidegree(2 * p**j - 1, p**j - 1)
        if want.d > 30:
            continue
        got = el.homogeneous_bidegree(h.scheme)
        assert got == want, (idx, got, want)
        n += 1
    report(6, n > 0, f"p={p}: {n} indices with degree <= 30, exact match")


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_07_freeness(p):
    """U-maximal y classes independent and spanning im(beta) per bidegree."""
    gens = free_bbeta_generators(Bidegree(30, 30), p)
    report(7, len(gens) > 0, f"p={p}: {len(gens)} generators, rank equalities exact")


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_08_pullback_structure(p):
    """p-torsion of the augmentation ideal; associative, graded-commutative."""
    cfg = Config(p=p, scheme="algclosed", dmax=12, wmax=12)
    results = {name: status for name, status, _ in V.check_pullback(cfg)}
    assert results["pullback augmentation ideal is p-torsion"] == "PASS"
    assert results["pullback product associative"] == "PASS"
    assert results["pullback product graded-commutative"] == "PASS"
    report(8, True, f"p={p}: torsion, associativity, commutativity exact")


def test_criterion_09a_real_kernel_bases():
    """Real base: constructive kernel count equals the generic one, degree <= 25.

    The sweep covers every populated bidegree with |d| <= 25 and |w| <= 13;
    the weight window is the desk-scale knob (the degree bound is the stated
    one), and each slice is checked exactly.
    """
    cfg = Config(p=2, scheme="real-p2", dmax=25, wmax=13)
    results = V.suite_kerbasis(cfg)
    by_name = {n: (s, d) for n, s, d in results}
    s, d = by_name["kernel basis: constructive = generic"]
    assert s == "PASS", d
    report(9, True, f"real base: {d}")


def test_criterion_09b_finite_field():
    """F_49-free finite field case: beta(tau) = eps and matching kernel counts."""
    h = algebra("finite-field", 3, q=7)
    tau = term_element(3, 1, CoeffMonomial(tau=1))
    assert beta(tau, h) == term_element(3, 1, CoeffMonomial(eps=1))
    assert beta(term_element(3, 1, CoeffMonomial(tau=3)), h).is_zero()
    cfg = Config(p=3, scheme="finite-field", q=7, dmax=20, wmax=12)
    results = {n: (s, d) for n, s, d in V.suite_kerbasis(cfg)}
    s, d = results["kernel basis: constructive = generic"]
    assert s == "PASS", d
    assert results["finite field Bockstein: beta(tau) = eps, beta(tau^p) = 0"][0] == "PASS"
    report(9, True, f"finite field q=7, p=3: {d}")


def test_criterion_09c_z_half_relations():
    """Z[1/2]: the displayed relation table passes with one documented WARN."""
    results = z12_relation_check()
    fails = [(n, d) for n, s, d in results if s == "FAIL"]
    warns = [(n, d) for n, s, d in results if s == "WARN"]
    assert fails == [], fails
    assert len(warns) <= 1, warns
    assert warns and "i-1+k" in warns[0][1]
    report(9, True, f"Z[1/2]: {len(results)} relations, one documented index WARN")


@pytest.mark.parametrize("p,scheme,q", [(2, "algclosed", None), (2, "real-p2", None),
                                        (3, "algclosed", None)])
def test_criterion_10_mz_presentation_injective(p, scheme, q):
    """The conjugated-generator embedding is injective per bidegree, degree <= 20."""
    cfg = Config(p=p, scheme=scheme, q=q, dmax=20, wmax=10)
    [(name, s, d)] = V.check_chi_embedding(cfg, algebra(scheme, p, q, ambient="a"))
    assert name == "integral-form embedding injective"
    assert s == "PASS", d
    report(10, True, f"p={p} {scheme}: {d}")
