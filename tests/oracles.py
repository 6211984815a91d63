"""Reference implementations kept as test oracles.

These are the earlier, duplicated code paths that motsteen replaced with one
path each: two enumeration recursions (one bounded on d - w, one on d), a
per-bidegree re-scan of every monomial for bases and populated bidegrees,
a dimension report that rebuilds the Bockstein matrix of the augmentation
ideal and of the coefficient ring beside the full one, a Bockstein
that builds raw terms and sends them through normalize, and the generic
column-major elimination over F_p that once also served p = 2.  They carry
no memo, and they build their matrices on their own bases, so
test_oracles.py can hold the single-path code to them on small windows.
"""

from motsteen.bockstein import _beta_coeff_monomial
from motsteen.elements import (
    SteenrodMonomial,
    Term,
    coeff_degree,
    monomial_key,
    normalize,
    term_element,
)
from motsteen.grading import BETA_SHIFT, Bidegree, tau_degree, xi_degree
from motsteen.linalg import FpMatrix
from motsteen.steenrod import coeff_degree_populated, coeff_monomials, index_of


def _rref(M):
    """Reduced row echelon form; returns (rows, pivots) with pivots col->row.

    rows is a list of dicts col -> value covering the nonzero rows.  Columns
    are scanned left to right and each takes the lowest unused row that is
    nonzero there as its pivot, at every prime.
    """
    p = M.p
    rows = [{} for _ in range(M.nrows)]
    for (r, c), v in M.entries.items():
        rows[r][c] = v

    pivots = {}
    used = [False] * M.nrows
    for col in range(M.ncols):
        pivot = None
        for r in range(M.nrows):
            if not used[r] and rows[r].get(col):
                pivot = r
                break
        if pivot is None:
            continue
        used[pivot] = True
        pivots[col] = pivot
        inv = pow(rows[pivot][col], p - 2, p) if p > 2 else 1
        if inv != 1:
            rows[pivot] = {c: (v * inv) % p for c, v in rows[pivot].items()}
        prow = rows[pivot]
        for r in range(M.nrows):
            if r == pivot:
                continue
            f = rows[r].get(col)
            if not f:
                continue
            row = rows[r]
            for c, v in prow.items():
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return rows, pivots


def rank(M):
    return len(_rref(M)[1])


def kernel_basis(M):
    """Basis vectors of the null space {v : M v = 0}, one per free column."""
    rows, pivots = _rref(M)
    free = [c for c in range(M.ncols) if c not in pivots]
    vectors = []
    for fc in free:
        v = [0] * M.ncols
        v[fc] = 1
        for col, r in pivots.items():
            # pivot row: x_col + sum_{free c} a_c x_c = 0
            a = rows[r].get(fc, 0)
            if a:
                v[col] = (-a) % M.p
        vectors.append(tuple(v))
    return vectors


def _enumerate(gens, budget):
    out = []

    def rec(i, left, xi, taus):
        if i == len(gens):
            out.append(SteenrodMonomial(tuple(xi), tuple(taus)))
            return
        kind, j, cost = gens[i]
        if kind == "xi":
            e = 0
            while e * cost <= left:
                rec(i + 1, left - e * cost, xi + [(j, e)] if e else xi, taus)
                e += 1
        else:
            rec(i + 1, left, xi, taus)
            if cost <= left:
                rec(i + 1, left - cost, xi, taus + [j])

    rec(0, budget, [], [])
    out.sort(key=lambda m: (m.xi, m.taus))
    return out


def steenrod_monomials(p, budget, min_tau):
    """All (xi, taus) monomials with d - w <= budget."""
    gens = []
    j = 1
    while p**j - 1 <= budget:
        gens.append(("xi", j, p**j - 1))
        j += 1
    j = min_tau
    while p**j <= budget:
        gens.append(("tau", j, p**j))
        j += 1
    return _enumerate(gens, budget)


def steenrod_monomials_by_degree(p, dmax, min_tau):
    """All (xi, taus) monomials with topological degree <= dmax."""
    gens = []
    j = 1
    while 2 * (p**j - 1) <= dmax:
        gens.append(("xi", j, 2 * (p**j - 1)))
        j += 1
    j = min_tau
    while 2 * p**j - 1 <= dmax:
        gens.append(("tau", j, 2 * p**j - 1))
        j += 1
    return _enumerate(gens, dmax)


def _degree(mono, p):
    bd = Bidegree(0, 0)
    for j, e in mono.xi:
        bd = bd + xi_degree(p, j).scaled(e)
    for j in mono.taus:
        bd = bd + tau_degree(p, j)
    return bd


def bidegree_basis(bd, h):
    """The basis of one bidegree, by a scan over every monomial of the budget."""
    d, w = bd
    out = []
    if d - w >= 0:
        for mono in steenrod_monomials(h.p, d - w, h.min_tau):
            md = _degree(mono, h.p)
            if md.d < d or md.w < w:
                continue
            for c in coeff_monomials(Bidegree(d - md.d, w - md.w), h.scheme):
                out.append((c, mono))
    out.sort(key=monomial_key)
    return out


def populated_bidegrees(h, dmax, wmax):
    eta_degs = {
        _degree(mono, h.p)
        for mono in steenrod_monomials(h.p, dmax + wmax, h.min_tau)
    }
    out = []
    for d in range(-dmax, dmax + 1):
        for w in range(-wmax, wmax + 1):
            bd = Bidegree(d, w)
            if any(coeff_degree_populated(bd - e, h.scheme) for e in eta_degs):
                out.append(bd)
    return out


def u_maximal_by_degree(p, budget):
    out = {}
    for mono in steenrod_monomials(p, budget, 1):
        if not mono.taus:
            continue
        idx = index_of(mono)
        max_a = max((j for j, e in idx.a), default=0)
        if max_a <= max(idx.U):
            out.setdefault(_degree(mono, p), []).append(idx)
    return out


def free_bbeta_generators(bound, p):
    """The U-maximal indices with |y| within the bound, without the span check."""
    dmax, wmax = bound
    found = {}
    for mono in steenrod_monomials(p, dmax + 1, 1):
        if not mono.taus:
            continue
        idx = index_of(mono)
        if max((j for j, e in idx.a), default=0) > max(idx.U):
            continue
        yb = _degree(mono, p) + BETA_SHIFT
        if yb.d <= dmax and yb.w <= wmax:
            found.setdefault(yb, []).append(idx)
    return [i for _, idxs in sorted(found.items()) for i in idxs]


def beta(x, h):
    """The Bockstein of a normalized homogeneous element, via normalize."""
    if x.p != h.p:
        raise ValueError("element prime does not match the handle")
    x.homogeneous_bidegree(h.scheme)  # rejects mixed degrees
    p = h.p
    raw = []
    for (c, m), s in x.terms.items():
        # coefficient part
        for cs, nc in _beta_coeff_monomial(c, h):
            raw.append(Term((s * cs) % p, nc, m))
        # xi/tau part: pass the whole coefficient, then earlier tau factors
        sign_c = -1 if coeff_degree(c, h.scheme).d & 1 else 1
        for t, j in enumerate(m.taus):
            sign = sign_c * (-1 if t & 1 else 1)
            taus = m.taus[:t] + m.taus[t + 1 :]
            xi = dict(m.xi)
            if j > 0:
                xi[j] = xi.get(j, 0) + 1
            # beta(tau_0) = 1 in the full algebra
            mono = SteenrodMonomial(tuple(sorted(xi.items())), taus)
            raw.append(Term((s * sign) % p, c, mono))
    return normalize(raw, h)


def _matrix(src, dst, h):
    rows = {key: i for i, key in enumerate(dst)}
    entries = {}
    for col, (c, mono) in enumerate(src):
        img = beta(term_element(h.p, 1, c, mono), h)
        for key, s in img.terms.items():
            entries[(rows[key], col)] = s  # KeyError if beta leaves dst
    return FpMatrix(h.p, len(dst), len(src), entries)


def beta_matrix(bd, h):
    return _matrix(bidegree_basis(bd, h), bidegree_basis(bd + BETA_SHIFT, h), h)


def homology_dims(bd, h):
    """(dim, rank, ker, im, homology) of the Bockstein at one bidegree."""
    M = beta_matrix(bd, h)
    r = rank(M)
    dim = M.ncols
    im_rank = rank(beta_matrix(bd - BETA_SHIFT, h))
    return dim, r, dim - r, im_rank, dim - r - im_rank


def _ideal_basis(bd, h):
    return [(c, m) for (c, m) in bidegree_basis(bd, h) if not m.is_one()]


def _ideal_rank(bd, h):
    src = _ideal_basis(bd, h)
    return len(src), rank(_matrix(src, _ideal_basis(bd + BETA_SHIFT, h), h))


def coeff_homology_dim(bd, h):
    """Bockstein homology of the coefficient ring alone at one bidegree."""
    scheme = h.scheme
    src = coeff_monomials(bd, scheme)
    dst = coeff_monomials(bd + BETA_SHIFT, scheme)
    pre = coeff_monomials(bd - BETA_SHIFT, scheme)

    def mat(cols, rows_list):
        rows = {c: i for i, c in enumerate(rows_list)}
        entries = {}
        for col, c in enumerate(cols):
            for s, nc in _beta_coeff_monomial(c, h):
                entries[(rows[nc], col)] = s
        return FpMatrix(h.p, len(rows_list), len(cols), entries)

    r1 = rank(mat(src, dst))
    r2 = rank(mat(pre, src))
    return len(src) - r1 - r2


def beta_report(bidegrees, h):
    report = []
    for bd in bidegrees:
        dim, r, ker, im, hom = homology_dims(bd, h)
        notes = []
        if hom != coeff_homology_dim(bd, h):
            notes.append("homology does not match the coefficient tensor factor")
        ideal_dim, ideal_rank = _ideal_rank(bd, h)
        ideal_im = _ideal_rank(bd - BETA_SHIFT, h)[1]
        if ideal_dim - ideal_rank != ideal_im:
            notes.append("augmentation ideal has im != ker here")
        report.append(
            {
                "bidegree": [bd.d, bd.w],
                "dim": dim,
                "rank": r,
                "ker": ker,
                "im": im,
                "homology": hom,
                "notes": notes,
            }
        )
    return report
