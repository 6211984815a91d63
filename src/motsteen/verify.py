"""Named verification suites driven by the command line front end.

Each suite runs a family of exact checks within the configured degree bounds
and returns (name, status, detail) triples with status PASS, WARN, or FAIL.
WARN is reserved for the documented index discrepancies of the closed
formulas (the delta shift in the product relation, the unsigned linear sum,
the eps coordinate index over Z[1/2]); everything else must hold exactly.
"""

from __future__ import annotations

import itertools
from functools import cache

from .grading import Bidegree
from .elements import (
    COEFF_ONE, STEENROD_ONE, CoeffMonomial, Element, SteenrodMonomial, _coeff_zero,
    _mul_packed, _pack, algebra, element_text, mono_degree, mul, term_element,
)
from .steenrod import (
    _chi_packed, _conjugate_packed, _degree_budget, _mz_image_packed,
    bidegree_basis, conjugate, index_of, monomial_index, populated_bidegrees,
    steenrod_monomials_by_degree, window_budget,
)
from .bockstein import (
    _u_maximal_at, beta, block, block_homology, free_bbeta_generators, ker_beta_basis, y,
)
from .linalg import column, rank


def _coeff_sweep(scheme, cap=None):
    """Packed coefficient monomials with small per-generator exponents.

    Exponents up to max(p, 2) exhaust every residue class mod p of the
    derivation coefficients and both Koszul parities, so the sweep exercises
    every sign path of the coefficient Bockstein.
    """
    cap = cap or max(scheme.p, 2)
    ranges = []
    for name in ("theta", "eps", "rho", "tau"):
        if name in scheme.gens:
            top = min(cap, scheme.caps.get(name, cap))
            ranges.append(range(top + 1))
        else:
            ranges.append(range(1))
    out = []
    for t, e, r, x in itertools.product(*ranges):
        c = CoeffMonomial(theta=t, eps=e, rho=r, tau=x)
        if not _coeff_zero(c, scheme):
            out.append(_pack((c, STEENROD_ONE)))
    return out


def _status(ok):
    return "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------


def suite_beta2(config):
    """beta o beta = 0 on every swept basis monomial of the mz form."""
    h = config.handle()
    dmax = config.dmax
    coeffs = _coeff_sweep(h.scheme)
    monos = steenrod_monomials_by_degree(h.p, dmax, 1)
    checked = 0
    for mono in monos:
        for c in coeffs:
            x = Element(h.p, {c + mono: 1})
            bb = beta(beta(x, h), h)
            if not bb.is_zero():
                return [(
                    "beta^2 = 0",
                    "FAIL",
                    f"beta^2({element_text(x)}) = {element_text(bb)}",
                )]
            checked += 1
    return [(
        "beta^2 = 0",
        "PASS",
        f"{checked} monomials, degree <= {dmax}, scheme {h.scheme.id}, p = {h.p}",
    )]


def check_chi_generators(config, h):
    """The verbatim values of chi on tau, rho and tau_0."""
    p = h.p
    results = []
    tau_c = term_element(p, 1, CoeffMonomial(tau=1))
    expect = tau_c
    rho = h.scheme.rho_element
    if rho is not None:
        expect = expect + term_element(
            p, 1, CoeffMonomial().bump(rho), SteenrodMonomial((), (0,))
        )
    if "tau" in h.scheme.gens:
        results.append(
            ("chi(tau) = tau + rho tau_0", _status(conjugate(tau_c, h) == expect), "")
        )
    if "rho" in h.scheme.gens:
        rho_c = term_element(p, 1, CoeffMonomial(rho=1))
        results.append(("chi(rho) = rho", _status(conjugate(rho_c, h) == rho_c), ""))
    t0 = term_element(p, 1, CoeffMonomial(), SteenrodMonomial((), (0,)))
    results.append(
        ("chi(tau_0) = -tau_0", _status(conjugate(t0, h) == t0.scaled(-1)), "")
    )
    return results


def check_chi_involution(config, h):
    """chi(chi(x)) = x on coefficient-twisted monomials."""
    dmax = min(config.dmax, 20)
    monos = steenrod_monomials_by_degree(h.p, dmax, 0)
    coeffs = _coeff_sweep(h.scheme, cap=2)
    failure = None
    n_inv = 0
    for mono in monos:
        for c in coeffs:
            x = {c + mono: 1}
            if _conjugate_packed(_conjugate_packed(x, h), h) != x:
                failure = element_text(Element(h.p, x))
                break
            n_inv += 1
        if failure:
            break
    return [
        ("chi is an involution", _status(failure is None),
         f"{n_inv} monomials, degree <= {dmax}" if failure is None
         else f"fails at {failure}")
    ]


def _chi_fails_on(x, z, h):
    """The text of x * z if chi(xz) != chi(x) chi(z) on the packed monomials x, z."""
    xa, za = {x: 1}, {z: 1}
    chi = _conjugate_packed
    if chi(_mul_packed(xa, za, h), h) != _mul_packed(chi(xa, h), chi(za, h), h):
        return " * ".join(element_text(Element(h.p, {k: 1})) for k in (x, z))


def check_chi_multiplicative(config, h):
    """chi(xz) = chi(x) chi(z): exhaustive on coefficient-free pairs with total
    degree <= dmax, plus 200 seeded random coefficient-twisted pairs."""
    import random

    dmax = min(config.dmax, 20)
    p = h.p
    monos = steenrod_monomials_by_degree(p, dmax, 0)
    coeffs = _coeff_sweep(h.scheme, cap=2)
    degrees = [mono_degree(index_of(m), p).d for m in monos]
    failure = None
    n_mult = 0
    for m1, d1 in zip(monos, degrees):
        if failure:
            break
        for m2, d2 in zip(monos, degrees):
            if d1 + d2 > dmax:
                continue
            failure = _chi_fails_on(m1, m2, h)
            if failure:
                break
            n_mult += 1
    rng = random.Random(20260811)
    for _ in range(200):
        if failure:
            break
        failure = _chi_fails_on(rng.choice(coeffs) + rng.choice(monos),
                                rng.choice(coeffs) + rng.choice(monos), h)
        n_mult += 1
    return [
        ("chi is multiplicative", _status(failure is None),
         f"{n_mult} pairs" if failure is None else f"fails at {failure}")
    ]


def check_chi_quadratic_relation(config, h):
    """p = 2: chi(tau_i)^2 = chi(xi_{i+1}) tau + chi(tau_{i+1}) rho for i <= 4."""
    p = h.p
    if p != 2:
        return []
    tau_c = term_element(p, 1, CoeffMonomial(tau=1))
    rho = h.scheme.rho_element

    def chi(xi=(), taus=()):
        return conjugate(term_element(p, 1, COEFF_ONE, SteenrodMonomial(xi, taus)), h)

    ok = True
    for i in range(0, 5):
        chi_tau = chi(taus=(i,))
        lhs = mul(chi_tau, chi_tau, h)
        rhs = mul(chi(xi=((i + 1, 1),)), tau_c, h)
        if rho is not None:
            rho_c = term_element(p, 1, CoeffMonomial().bump(rho))
            rhs = rhs + mul(chi(taus=(i + 1,)), rho_c, h)
        if lhs != rhs:
            ok = False
            break
    return [("conjugated quadratic relation", _status(ok), "i <= 4")]


def _embedding_rank(src, h):
    """Rank of the images of the mz basis monomials src in the full algebra;
    rows are the monomials that actually appear in the images."""
    rows = {}
    return rank(h.p, [column(h.p, {rows.setdefault(key, len(rows)): s for key, s in
                                   _mz_image_packed(k, h).items()})
                      for k in src])


def _diagonal_invertible(e, h):
    """Whether D_e is invertible: chi on the mz bucket e, read through
    _chi_packed and the handle's memo, restricted to the bucket's own ints."""
    bucket = monomial_index(h.p, e.d - e.w, 1)[e]
    rows = {m: i for i, m in enumerate(bucket)}
    return rank(h.p, [column(h.p, {r: s for key, s in _chi_packed(m, h).items()
                                   if (r := rows.get(key)) is not None})
                      for m in bucket]) == len(bucket)


def check_chi_embedding(config, h):
    """The integral-form embedding is injective per bidegree (rank test).

    On the rows that are the source keys the images are block-triangular:
    the image of c | m is c chi(m), and a term of chi(m) with a nonzero
    coefficient part lands in a block of larger coefficient exponent sum or
    is killed, so each diagonal block is the D_e of c's bucket e, ranked
    once.  If all are invertible the bidegree is injective; any other ranks
    its whole images, so the verdict is the rank test's alone.
    """
    dmax = min(config.dmax, 20)
    hmz = config.handle()
    name = "integral-form embedding injective"
    certified = cache(lambda e: _diagonal_invertible(e, h))
    bidegrees = populated_bidegrees(hmz, dmax, config.wmax)
    for bd in bidegrees:
        src = bidegree_basis(bd, hmz)
        if (not all(certified(e) for e, _ in src.blocks.values())
                and _embedding_rank(src, h) != len(src)):
            return [(name, "FAIL", f"rank drop at {bd}")]
    return [(name, "PASS", f"{len(bidegrees)} bidegrees, degree <= {dmax}")]


def suite_chi(config):
    """Conjugation: fixed generators, involution, multiplicativity, embedding.

    Each check sweeps to degree min(dmax, 20) and takes the one full-algebra
    handle h built here, so that their memo lookups meet the same object.
    """
    h = algebra(config.scheme, config.p, config.q, ambient="a")
    checks = (check_chi_generators, check_chi_involution, check_chi_multiplicative,
              check_chi_quadratic_relation, check_chi_embedding)
    return [row for check in checks for row in check(config, h)]


def _torsion_probe_indices(p):
    """The first 8 U-maximal indices (a, U) of topological degree <= 12.

    Taken in monomial order; d - w <= d on every xi/tau monomial, so the
    buckets up to budget 12 hold them all, at the _u_maximal_at positions.
    """
    buckets = monomial_index(p, 12, 1)
    return sorted(
        index_of(buckets[eb][i]) for eb in buckets if eb.d <= 12 for i in _u_maximal_at(eb, p)
    )[:8]


def check_product_formula(config):
    """The closed product formula vs the multiplication oracle, both conventions."""
    from .relations import product_relation_sweep

    report, hard = product_relation_sweep(config.p, max_index=3, max_exp=2)
    if hard:
        aU, bT, failures = hard[0]
        return [("product relation", "FAIL",
                 f"no convention matches y{aU} * y{bT}: {failures}")]
    uniform = report["uniform_convention"]
    results = [("product relation", _status(uniform == "subscript"),
                f"{report['cases']} cases, oracle matches the {uniform} convention")]
    printed = report["matches"]["printed"]
    if printed < report["cases"]:
        results.append(
            ("product relation delta convention", "WARN",
             f"subscript-indexed deltas verified on all {report['cases']} cases; "
             f"the off-by-one variant fails {report['cases'] - printed} of them")
        )
    return results


def check_pullback(config):
    """The pullback model on an algebraically closed base: p-torsion of the
    augmentation ideal, associativity, graded commutativity."""
    from .integral import IntCoeffRing, PullbackElement, pb_mul, pb_torsion

    p = config.p
    results = []
    h = algebra("algclosed", p)
    ring = IntCoeffRing(h.scheme)
    gens = [pb_torsion(y(idx, h), h, ring) for idx in _torsion_probe_indices(p)]
    tau_pb = PullbackElement(
        ring.element(1, ("tau", 1)), term_element(p, 1, CoeffMonomial(tau=1)), h
    )
    torsion_ok = all(g.scaled(p).is_zero() for g in gens)
    results.append(
        ("pullback augmentation ideal is p-torsion", _status(torsion_ok),
         f"{len(gens)} generators")
    )
    probe = gens + [tau_pb]
    assoc_ok = True
    comm_ok = True
    for a in probe:
        for b in probe:
            ab = pb_mul(a, b)
            sign = -1 if (a.bidegree().d & 1) and (b.bidegree().d & 1) else 1
            ba = pb_mul(b, a).scaled(sign)
            if ba.k != ab.k or ba.z != ab.z:
                comm_ok = False
            for c in probe[:4]:
                if pb_mul(ab, c).k != pb_mul(a, pb_mul(b, c)).k:
                    assoc_ok = False
    results.append(("pullback product associative", _status(assoc_ok), ""))
    results.append(("pullback product graded-commutative", _status(comm_ok), ""))
    return results


def suite_products(config):
    """check_product_formula, then check_pullback unless some product matches
    neither convention."""
    results = check_product_formula(config)
    if results[0][2].startswith("no convention matches"):
        return results
    return results + check_pullback(config)


def suite_linear(config):
    """The linear relation family among the Bockstein classes."""
    from .relations import _exponent_vectors, verify_linear_relation

    p = config.p
    ok = True
    literal_misses = 0
    cases = 0
    detail = ""
    for a in _exponent_vectors([1, 2, 3], 2):
        supp = sorted(a)
        for j in range(1, len(supp) + 2):
            rep = verify_linear_relation(a, j, p)
            cases += 1
            if not rep.ok:
                ok = False
                detail = f"a = {a}, j = {j}"
                break
            if rep.literal_sum_zero is False:
                literal_misses += 1
        if not ok:
            break
    results = [(
        "linear relations (signed family)", _status(ok),
        detail or f"{cases} (a, j) cases, exponents <= 2, support in {{1,2,3}}",
    )]
    if ok and literal_misses:
        results.append(
            ("linear relation unsigned sum", "WARN",
             f"the Koszul-signed family is exact; the unsigned all-subsets sum "
             f"vanishes only at its top-support instance ({literal_misses} "
             f"cases require the signed form)")
        )
    return results


def suite_blocks(config):
    """Acyclicity of every nontrivial block complex in the swept range."""
    p = config.p
    bad = None
    n = 0
    for masses in itertools.product(range(4), repeat=5):
        b = block({i: m for i, m in enumerate(masses)})
        hom = block_homology(b, p)
        ok = hom == [1] if not b.m else all(v == 0 for v in hom)
        n += 1
        if not ok:
            bad = (b, hom)
            break
    return [(
        "block acyclicity", _status(bad is None),
        f"{n} blocks, support in {{0..4}}, masses <= 3" if bad is None
        else f"block {bad[0].m} has homology {bad[1]}",
    )]


def suite_kerbasis(config):
    """Generic vs constructive kernel bases, and freeness of the boundaries."""
    h = config.handle()
    results = []
    dmax = min(config.dmax, 25)
    n = 0
    detail = ""
    ok = True
    fb = min(config.dmax, 30)
    # one enumeration covers every xi/tau monomial the suite reads: the eta
    # buckets e + (1, 0) of the constructive kernel, one past the window's
    # budget, and the eta of the freeness check, of degree <= fb + 1
    monomial_index(h.p, max(window_budget(h, dmax, config.wmax) + 1,
                            _degree_budget(h.p, fb + 1, 1)), h.min_tau)
    for bd in populated_bidegrees(h, dmax, config.wmax):
        try:
            ker_beta_basis(bd, h)
        except AssertionError as e:
            ok = False
            detail = str(e)
            break
        n += 1
    results.append(
        ("kernel basis: constructive = generic", _status(ok),
         detail or f"{n} bidegrees, degree <= {dmax}, scheme {h.scheme.id}")
    )
    try:
        gens = free_bbeta_generators(Bidegree(fb, config.wmax), config.p)
        results.append(
            ("boundary classes free on U-maximal set", "PASS",
             f"{len(gens)} generators within ({fb}, {config.wmax})")
        )
    except AssertionError as e:
        results.append(("boundary classes free on U-maximal set", "FAIL", str(e)))
    if h.scheme.coeff_bockstein.get("tau") == "eps":
        tau_c = term_element(h.p, 1, CoeffMonomial(tau=1))
        eps_c = term_element(h.p, 1, CoeffMonomial(eps=1))
        ok1 = beta(tau_c, h) == eps_c
        ok2 = beta(term_element(h.p, 1, CoeffMonomial(tau=h.p)), h).is_zero()
        results.append(
            ("finite field Bockstein: beta(tau) = eps, beta(tau^p) = 0",
             _status(ok1 and ok2), "")
        )
    return results


def suite_z12(config):
    from .relations import z12_relation_check

    if config.scheme != "z-half":
        return [("z12 relation table", "FAIL", "requires --scheme zhalf")]
    return z12_relation_check(w_table=config.w_fn)


_RUNNERS = {"beta2": suite_beta2, "chi": suite_chi, "products": suite_products,
            "linear": suite_linear, "blocks": suite_blocks, "kerbasis": suite_kerbasis,
            "z12": suite_z12}
SUITES = (*_RUNNERS, "all")


def run_suite(suite, config):
    """One suite, or "all": every suite in table order, z12 on z-half only."""
    if suite == "all":
        return [row for name, run in _RUNNERS.items()
                if name != "z12" or config.scheme == "z-half" for row in run(config)]
    if suite not in _RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    return _RUNNERS[suite](config)
