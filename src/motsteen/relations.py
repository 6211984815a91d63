"""Verification of the multiplicative and linear relations among Bockstein classes.

The product of two Bockstein classes y[a,U] y[b,T] is linear in further y
classes.  Two delta-index conventions are in circulation for the closed
formula: exponent vectors indexed by the generator subscript itself
("subscript": the Bockstein against tau_k bumps a_k, and tau_j^2 bumps
a_{j+1}), or offset by one ("printed": delta_{k-1} and delta_j).
product_relation_sweep evaluates the formula under both conventions on
every pair of indices in a window over the algebraically closed base, where
rho = 0, and compares each against the multiplication oracle
beta(eta[a,U]) * beta(eta[b,T]); the report says which convention
reproduces the oracle.  The formula reads a and b only through a + b, so the
sweep expands it once per key (a + b, U, T) and convention, into a packed
accumulator {int: scalar} summed from tau^k * y products, and reuses it for
every pair sharing the key.  Each y class is computed once, as
elements._beta_packed of the packed eta, the oracle is the packed product
of the two, and each case compares packed dicts; failure
text is built only for a case that no convention matches.

The linear relations among the y with |U| = j are generated by expanding
beta(beta(eta)) = 0: for every V inside supp(a) with |V| = j + 1,

    sum over k in V of sign(k, V) * y[a - delta_(V-k), V - k] = 0,

with sign(k, V) the Koszul sign (-1)^(number of elements of V below k).
The all-subsets sum with unit coefficients is its V = supp(a) instance and
vanishes only there; verify_linear_relation checks the signed family
exactly and reports whether the literal unsigned sum happens to vanish.

Over an algebraically closed base the closed formula, the signed linear
relations and the freeness of the U-maximal classes {y[a,U] : max supp a <=
max U} (bockstein.free_bbeta_generators) present the algebra that `present`
prints.  The suites products, linear and kerbasis check each fact on its
own; a rewrite to the U-maximal normal form would only chain the three.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .elements import (
    STEENROD_ONE, CoeffMonomial, Element, _add, _beta_packed, _mul_packed, _pack, algebra,
    element_text, mul,
)
from .bockstein import beta, y
from .steenrod import basis_index, eta
from .integral import IntCoeffRing, PullbackElement, fiber_coordinate, pb_mul, q_map


def shuffle_sign(A, B):
    """Sign of merging two disjoint ascending tuples into ascending order."""
    inv = sum(1 for a in A for b in B if a > b)
    return -1 if inv & 1 else 1


def position_sign(k, V):
    """Koszul sign of extracting k from the ascending tuple V."""
    below = sum(1 for v in V if v < k)
    return -1 if below & 1 else 1


def _bump(a_map, j, by=1):
    out = dict(a_map)
    out[j] = out.get(j, 0) + by
    if out[j] == 0:
        del out[j]
    return out


def _amap(idx):
    return dict(idx.a)


# ---------------------------------------------------------------------------
# The product formula


class ConventionError(ValueError):
    """The printed convention walked off the exponent lattice (slot 0)."""


def product_formula_terms(aU, bT, p, convention):
    """Formal terms [(tau_power, scalar, BasisIndex)] of the closed formula.

    convention "subscript": k-bump at delta_k, intersection bumps at j+1;
    convention "printed": k-bump at delta_(k-1), intersection bumps at j.
    Raises ConventionError when a bump lands on the nonexistent slot 0.
    The exponent vectors a and b are read only through a + b.
    """
    shift = 0 if convention == "subscript" else -1
    a, U = _amap(aU), aU.U
    b, T = _amap(bT), bT.U
    ab = dict(a)
    for j, e in b.items():
        ab[j] = ab.get(j, 0) + e
    out = []

    def bump_checked(m, j):
        if j + shift < 1:
            raise ConventionError(f"delta index {j + shift} touches slot 0")
        return _bump(m, j + shift)

    if p == 2:
        for k in U:
            rest = tuple(u for u in U if u != k)
            inter = tuple(sorted(set(rest) & set(T)))
            sym = tuple(sorted(set(rest) ^ set(T)))
            idx = bump_checked(ab, k)
            for j in inter:
                # tau_j^2 = tau * xi_(j+1): the exponent bump sits one above j
                idx = bump_checked(idx, j + 1)
            out.append((len(inter), 1, basis_index(idx, sym)))
        return out

    inter = tuple(sorted(set(U) & set(T)))
    if len(inter) > 1:
        return []
    if not inter:
        for k in T:
            rest = tuple(t for t in T if t != k)
            sign = shuffle_sign(tuple(sorted(set(U) | {k})), rest)
            idx = bump_checked(ab, k)
            out.append((0, sign, basis_index(idx, tuple(sorted(set(U) | set(rest))))))
        return out
    k = inter[0]
    sign = shuffle_sign(
        tuple(u for u in U if u != k), tuple(t for t in T if t != k)
    )
    idx = bump_checked(ab, k)
    out.append((0, sign, basis_index(idx, tuple(sorted(set(U) | set(T) - {k})))))
    return out


def product_relation_sweep(p, max_index=3, max_exp=2):
    """Exhaustive convention comparison over a finite index range.

    Runs over the algebraically closed base, where rho = 0.  Returns the
    report dict and the cases no convention matches, as (aU, bT, failures)
    with failures {convention: reason}.
    """
    h = algebra("algclosed", p)
    idxs = list(range(1, max_index + 1))
    subsets = [U for r in range(len(idxs) + 1) for U in combinations(idxs, r)]
    vectors = _exponent_vectors(idxs, max_exp)
    # one row per exponent vector, one column per subset
    indices = [[basis_index(a, U) for U in subsets] for a in vectors]
    ys = {}  # BasisIndex -> packed y class, the formula's indices included
    # the packed tau^k of a formula term, k <= max_index
    tau_powers = [_pack((CoeffMonomial(tau=k), STEENROD_ONE)) for k in range(max_index + 1)]
    # (a + b, U, T) -> {convention: packed formula or the refusal's text}; a
    # stored ConventionError would keep expand's frame, and so this one, alive
    formulas = {}

    def y_packed(idx):
        if idx not in ys:
            ys[idx] = _beta_packed(eta(idx, h).terms, h)
        return ys[idx]

    def expand(aU, bT):
        outcomes = {}
        for convention in ("subscript", "printed"):
            try:
                terms = product_formula_terms(aU, bT, p, convention)
            except ConventionError as e:
                outcomes[convention] = str(e)
                continue
            acc = {}
            for tau_pow, scalar, idx in terms:
                tau = {tau_powers[tau_pow]: scalar % p}
                for k, s in _mul_packed(tau, y_packed(idx), h).items():
                    _add(acc, k, s, p)
            outcomes[convention] = acc
        return outcomes

    per_convention = {"subscript": 0, "printed": 0}
    hard = []
    total = 0
    for a, a_row in zip(vectors, indices):
        for b, b_row in zip(vectors, indices):
            ab = tuple(a.get(j, 0) + b.get(j, 0) for j in idxs)
            for aU in a_row:
                ya = y_packed(aU)
                for bT in b_row:
                    total += 1
                    oracle = _mul_packed(ya, y_packed(bT), h)
                    key = ab, aU.U, bT.U
                    if key not in formulas:
                        formulas[key] = expand(aU, bT)
                    outcomes = formulas[key]
                    matched = False
                    for conv, el in outcomes.items():
                        if el == oracle:  # a refusal's text equals no dict
                            per_convention[conv] += 1
                            matched = True
                    if not matched:
                        hard.append((aU, bT, _failures(outcomes, oracle, p)))
    report = {
        "p": p,
        "cases": total,
        "matches": per_convention,
        "uniform_convention": next(
            (c for c, n in per_convention.items() if n == total), None
        ),
    }
    return report, hard


def _failures(outcomes, oracle, p):
    """convention -> why it differs from the oracle, for a case no convention matches."""
    def text(acc):
        return element_text(Element(p, acc))

    return {
        conv: el if isinstance(el, str)
        else f"formula gives {text(el)}, oracle {text(oracle)}"
        for conv, el in outcomes.items()
    }


def _exponent_vectors(idxs, max_exp):
    if not idxs:
        return [{}]
    rest = _exponent_vectors(idxs[1:], max_exp)
    out = []
    for e in range(max_exp + 1):
        for r in rest:
            m = dict(r)
            if e:
                m[idxs[0]] = e
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# Linear relations


@dataclass
class LinearRelationReport:
    a: tuple
    j: int
    p: int
    beta_closed: bool          # beta(y) = 0 for every y with |U| = j
    signed_cases: list         # (V, signs, vanished) for each |V| = j+1
    literal_sum_zero: bool | None  # the unsigned all-subsets sum; None if empty

    @property
    def ok(self):
        return self.beta_closed and all(v for _, _, v in self.signed_cases)


def verify_linear_relation(a, j, p):
    """Check the degree-j linear relations among the y over one exponent vector.

    Exact verification in the coefficient-free model: each y with index
    (a - delta_U, U), |U| = j, is killed by the Bockstein, and each signed
    (j+1)-subset sum vanishes identically.  The unsigned sum is reported as
    well; it vanishes only at V = supp(a).
    """
    if j < 1:
        raise ValueError("j must be at least 1")
    h = algebra("bare", p)
    amap = {k: v for k, v in dict(a).items() if v}
    supp = tuple(sorted(amap))
    beta_closed = True
    literal = Element.zero(p)
    any_term = False
    for U in combinations(supp, j):
        idx = basis_index({k: amap[k] - (1 if k in U else 0) for k in amap}, U)
        y_el = y(idx, h)
        any_term = True
        literal = literal + y_el
        if not beta(y_el, h).is_zero():
            beta_closed = False
    signed_cases = []
    for V in combinations(supp, j + 1):
        total = Element.zero(p)
        signs = []
        for k in V:
            U = tuple(v for v in V if v != k)
            s = position_sign(k, V)
            signs.append((k, s))
            idx = basis_index(
                {t: amap[t] - (1 if t in U else 0) for t in amap}, U
            )
            total = total + y(idx, h).scaled(s)
        signed_cases.append((V, signs, total.is_zero()))
    return LinearRelationReport(
        tuple(sorted(amap.items())), j, p,
        beta_closed, signed_cases,
        literal.is_zero() if any_term else None,
    )


# ---------------------------------------------------------------------------
# The Z[1/2] relation table


def z12_relation_check(w_table=None):
    """Verify the displayed relation table of the Z[1/2] fiber product.

    Every relation is checked by normalizing in the integral coefficient
    ring and comparing reductions/projections of both sides; the eps-times-
    tau-coordinate relation is checked under both the printed index (j-1+k)
    and the index forced by the projections (i-1+k).  The rho*rho, eps*eps
    and rho*eps rows are decided on the q-images, multiplied by
    elements.mul, so the integral product table is held to a model it does
    not share.  Returns a list of (name, status, detail) with status
    PASS/WARN/FAIL.
    """
    imax, jmax, kmax = 3, 2, 2  # the window of the table: generator and coordinate indices
    h = algebra("z-half", 2)
    ring = IntCoeffRing(h.scheme, w_table)
    results = []

    def check(name, ok, detail=""):
        results.append((name, "PASS" if ok else "FAIL", detail))

    def product(a, b):
        """(a*b, q(a) q(b), whether a*b reduces to q(a) q(b) and has its additive order)."""
        ab = a * b
        model = mul(q_map(a, h), q_map(b, h), h)
        ok = q_map(ab, h) == model and ab.scaled(2).is_zero() and ab.is_zero() == model.is_zero()
        return ab, model, ok

    for i in range(0, imax):
        r = ring.element(1, ("rho", 0, 2 * i + 1))
        check(f"2*rho_{2*i+1} = 0", r.scaled(2).is_zero())
    for i in range(1, imax):
        e = ring.element(1, ("eps", 2 * i))
        check(f"w_{2*i}*eps_{2*i} = 0", e.scaled(ring.w(2 * i)).is_zero())
        check(
            f"w_{2*i} is a power of two",
            ring.w(2 * i) > 0 and (ring.w(2 * i) & (ring.w(2 * i) - 1)) == 0,
        )
    for i in range(1, imax + 1):
        for j in range(1, imax + 1):
            ei = ring.element(1, ("eps", i))
            ej = ring.element(1, ("eps", j))
            _, model, ok = product(ei, ej)
            check(f"eps_{i}*eps_{j} = 0", ok and model.is_zero())
            if i % 2 == 1:
                _, model, ok = product(ring.element(1, ("rho", 0, i)), ej)
                check(f"rho_{i}*eps_{j} = 0", ok and model.is_zero())
    for i in range(0, imax):
        for j in range(0, imax):
            ab, lhs, ok_l = product(
                ring.element(1, ("rho", 0, 2 * i + 1)), ring.element(1, ("rho", 0, 2 * j + 1))
            )
            c, rhs, ok_r = product(
                ring.element(1, ("rho", 0, 1)), ring.element(1, ("rho", 0, 2 * (i + j) + 1))
            )
            check(
                f"rho_{2*i+1}*rho_{2*j+1} = rho_1*rho_{2*(i+j)+1}",
                ok_l and ok_r and ab == c and lhs == rhs and not lhs.is_zero(),
            )
    # fiber coordinates
    for j in range(1, jmax + 1):
        for k in range(0, kmax + 1):
            for kind in ("tau_ji", "xi_ji"):
                t = fiber_coordinate(kind, j, k, h, ring)
                check(f"2*{kind}({j},{k}) = 0", t.scaled(2).is_zero())
    rho1_z = ring.element(1, ("rho", 0, 1))
    rho1 = PullbackElement(rho1_z, q_map(rho1_z, h), h)
    for i in range(0, imax):
        for j in range(1, jmax + 1):
            for k in range(0, kmax + 1):
                for kind in ("tau_ji", "xi_ji"):
                    z = ring.element(1, ("rho", 0, 2 * i + 1))
                    rho_l = PullbackElement(z, q_map(z, h), h)
                    lhs = pb_mul(rho_l, fiber_coordinate(kind, j, k, h, ring))
                    rhs = pb_mul(rho1, fiber_coordinate(kind, j, 2 * i + k, h, ring))
                    check(
                        f"rho_{2*i+1}*{kind}({j},{k}) = rho_1*{kind}({j},{2*i+k})",
                        lhs.z == rhs.z and lhs.k == rhs.k,
                    )
    # the eps relation: printed index (j-1+k) vs projection-forced (i-1+k)
    printed_ok = True
    corrected_ok = True
    first_anomaly = None
    for i in range(1, imax + 1):
        ze = ring.element(1, ("eps", i))
        eps_l = PullbackElement(ze, q_map(ze, h), h)
        z1 = ring.element(1, ("eps", 1))
        eps1 = PullbackElement(z1, q_map(z1, h), h)
        for j in range(1, jmax + 1):
            for k in range(0, kmax + 1):
                for kind in ("tau_ji", "xi_ji"):
                    lhs = pb_mul(eps_l, fiber_coordinate(kind, j, k, h, ring))
                    rhs_corr = pb_mul(eps1, fiber_coordinate(kind, j, i - 1 + k, h, ring))
                    rhs_printed = pb_mul(eps1, fiber_coordinate(kind, j, j - 1 + k, h, ring))
                    if not (lhs.z == rhs_corr.z and lhs.k == rhs_corr.k):
                        corrected_ok = False
                    if not (lhs.z == rhs_printed.z and lhs.k == rhs_printed.k):
                        printed_ok = False
                        if first_anomaly is None:
                            first_anomaly = f"eps_{i}*{kind}({j},{k})"
    if corrected_ok and not printed_ok:
        results.append(
            (
                "eps_i*coordinate index",
                "WARN",
                f"printed index j-1+k fails (first at {first_anomaly}); "
                "projection-forced index i-1+k validates",
            )
        )
    elif corrected_ok and printed_ok:
        results.append(("eps_i*coordinate index", "PASS", "both indexings agree"))
    else:
        results.append(
            ("eps_i*coordinate index", "FAIL", "projection-forced index fails")
        )
    return results
