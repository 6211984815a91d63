"""The Bockstein differential, its block decomposition, and kernel bases.

beta is the degree (-1, 0) derivation with beta(tau_j) = xi_j (xi_0 = 1 in
the full algebra), beta(xi_j) = 0, extended by the Leibniz rule with Koszul
sign (-1)^d on passing a factor of topological degree d.  In the mz form the
coefficient symbols additionally carry the scheme's coefficient Bockstein
(e.g. beta(tau) = rho over the reals at p = 2); in the full algebra the
coefficient symbols are Bockstein-free.  beta is a checked wrapper, as mul
and conjugate are, around elements._beta_packed, which runs on mul's packed
ints: the image of a normalized term needs no tau_j^2 rewrite, only the
coefficient relations.  Terms are taken last to first; each gives its tau
bits from high to low, then its coefficient generators from high to low.

The coefficient-free model splits as a tensor product of two-term acyclic
complexes: block slot i >= 0 holds xi_{i+1}-exponent-plus-tau_{i+1} mass m_i,
and the block complex on a block vector m has basis all eta[m - chi_U, U]
with U inside the support, graded by tau count.  Its homology vanishes unless
m = 0, which beta_report and the kernel-basis machinery exploit.

Each basis is laid out in coefficient blocks, c | m for one coefficient
monomial c and every m of one xi/tau bucket (the blocks of a
steenrod.Basis, keyed by the packed c), so beta has one assembly,
_columns, block by block by the Leibniz rule beta(c m) = (-1)^|c| c
beta(m) + beta(c) m: the memo
_bucket_beta(e) holds beta(1 | m) for the bucket e as columns over the
bucket e - (1, 0), which c's block shifts to its own start in the target,
and each term of beta(c) adds an identity block.  _coeff_beta(c) =
((-1)^|c|, beta(c | 1)) comes from beta itself, on the packed c.

One builder, _beta_columns(src, dst, h), makes every column beta(1 | m):
elements._beta_packed on the packed monomial m of src, read over the
positions of dst by linalg.column.  Bases hold packed ints, so no basis is
packed or unpacked on the way.  Each column lists its entries in beta's
order, so _columns holds the matrix per-monomial beta calls would build,
column by column.  beta's columns, the kernel vectors and the y classes are
all Leibniz blocks of them, built by linalg.block_columns.  _bucket_beta
reads the builder on one bucket; block_complex reads it on the tau-count
bases of one block and keeps no memo, as each differential is read once.

split_ranks reduces beta at one bidegree to four numbers: the dims of the
bidegree and of its coefficient part (Steenrod part 1), and beta's ranks on
the coefficient ring and the augmentation ideal.  The basis is C (x) M, the
coefficients C times the xi/tau monomials M, so by Kunneth the ranks follow
from b(cb), beta's on C at cb (_coeff_ranks), and r(e), beta's on the bucket
e (_bucket_ranks), each taken once: no bidegree is eliminated.  beta_report
reads a dims row off those numbers at bd and at bd + (1, 0): the rank, the
image, and both splitting checks.  ker_beta_basis walks the blocks once per
bidegree: the generic kernel (linalg.kernel_basis) and the check of the
constructive (Z u U) basis, which constructive_kernel lays out block by
block as vectors over the basis positions, read the same columns.  The
columns must kill each constructive vector, and the vectors must be
independent and as many as the generic kernel's: then they span it.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .grading import BETA_SHIFT, Bidegree
from .elements import (
    _W, _XI_SHIFT, COEFF_ONE, STEENROD_ONE, Element, SteenrodMonomial, _beta_fields, _beta_packed,
    _checked, _pack, algebra,
)
from .linalg import FpBasis, block_columns, column, image, kernel_basis, rank
from .steenrod import (
    Basis, _degree_budget, basis_table, bidegree_basis, coeff_monomials, eta,
    index_of, monomial_index, u_maximal,
)

_ONE = Bidegree(0, 0)  # the bucket of the monomial 1
_TAU0 = _ONE - BETA_SHIFT  # the bucket of tau_0, whose beta is 1


def beta(x, h):
    """The Bockstein of a normalized homogeneous element.

    A checked wrapper around elements._beta_packed, as mul is around
    _mul_packed: a term foreign to h is refused first, with mul's errors,
    then an element of two or more terms must be homogeneous.  The result
    lists its terms in the order that normalizing them would give.
    """
    if x.p != h.p:
        raise ValueError("element prime does not match the handle")
    acc = _checked(x.terms, h)
    if len(acc) > 1:
        x.homogeneous_bidegree(h.scheme)  # rejects mixed degrees
    return Element(h.p, _beta_packed(acc, h))


@cache
def y(idx, h):
    """The Bockstein class beta(eta[a, U]), computed by the derivation."""
    if h.ambient != "mz":
        raise ValueError("y classes live in the mz form")
    return beta(eta(idx, h), h)


@cache
def _coeff_beta(c, h):
    """The Koszul sign (-1)^|c| and beta(c | 1) as its items (packed c',
    scalar), for the packed coefficient monomial c.  The sign is the parity
    of the odd coefficient fields of c."""
    sign = -1 if (c & _beta_fields(h)[0]).bit_count() & 1 else 1
    return sign, beta(Element(h.p, {c: 1}), h).terms.items()


@cache
def _coeff_ranks(cb, h):
    """(dim, rank of beta) on C(cb): its _coeff_beta columns, rows numbered as
    they come.  Read off coeff_monomials: cb = bd - e can have |w| > wmax."""
    src, rows = coeff_monomials(cb, h.scheme), {}
    return len(src), rank(h.p, [
        column(h.p, {rows.setdefault(k, len(rows)): s
                     for k, s in _coeff_beta(_pack((c, STEENROD_ONE)), h)[1]})
        for c in src])


# ---------------------------------------------------------------------------
# Blocks


class Block(NamedTuple):
    m: tuple  # sorted ((slot i >= 0, mass), ...), masses > 0


def block(masses):
    return Block(tuple(sorted((i, v) for i, v in dict(masses).items() if v)))


class BlockComplex(NamedTuple):
    blk: Block
    p: int
    bases: tuple       # bases[t] = the packed monomials of tau count t, in BasisIndex order
    differentials: tuple  # differentials[t]: C_t -> C_{t-1} as its columns, linalg's form


def block_complex(blk, p):
    """The finite subcomplex of the coefficient-free model spanned by one block."""
    h = algebra("bare", p)
    # (move of xi_j to tau_j for j in U, |U|) for each U on the slots from i on,
    # in the order of the xi exponents a that U leaves: xi_j^(v - 1) before
    # xi_j^v, and no xi_j (v = 1) after it unless no xi at all is left
    order, no_xi = [(0, 0)], True  # no_xi: the first U of order leaves no xi
    for i, v in reversed(blk.m):
        j = i + 1
        taken = [(d + (1 << j) - (1 << _XI_SHIFT + _W * j), t + 1) for d, t in order]
        order = (taken + order if v > 1 else taken[:1] + order + taken[1:] if no_xi
                 else order + taken)
        no_xi = no_xi and v == 1
    top = _pack((COEFF_ONE, SteenrodMonomial(tuple((i + 1, v) for i, v in blk.m), ())))
    bases = [tuple(top + d for d, t in order if t == u) for u in range(len(blk.m) + 1)]
    diffs = [None] + [list(_beta_columns(bases[t], bases[t - 1], h)) for t in range(1, len(bases))]
    return BlockComplex(blk, p, tuple(bases), tuple(diffs))


def block_homology(blk, p):
    """Exact homology dimensions of the block complex, by tau count."""
    cx = block_complex(blk, p)
    n = len(cx.bases) - 1
    ranks = [0] * (n + 2)
    for t in range(1, n + 1):
        ranks[t] = rank(p, cx.differentials[t])
    out = []
    for t in range(n + 1):
        dim = len(cx.bases[t])
        out.append(dim - ranks[t] - ranks[t + 1])
    return out


# ---------------------------------------------------------------------------
# Per-bidegree matrices and kernel bases


def _beta_columns(src, dst, h):
    """beta(1 | m) for each packed monomial m of src, in linalg's column
    form over the positions of dst, entries in beta's order."""
    rows = {k: i for i, k in enumerate(dst)}
    cols = (_beta_packed({m: 1}, h) for m in src)
    return (column(h.p, {rows[k]: s for k, s in col.items()}) for col in cols)


@cache
def _bucket_beta(e, h):
    """beta(1 | m) for each m of the bucket e, as _beta_columns over the
    bucket e - (1, 0)."""
    buckets = monomial_index(h.p, e.d - e.w, h.min_tau)
    return tuple(_beta_columns(buckets[e], buckets.get(e + BETA_SHIFT, ()), h))


@cache
def _bucket_ranks(e, h):
    """(size, rank of beta) on the bucket e: _bucket_beta(e) ranked."""
    return len(_bucket_beta(e, h)), rank(h.p, _bucket_beta(e, h))


@cache
def _u_maximal_at(eb, p):
    """The positions of the U-maximal monomials in the mz bucket eb."""
    bucket = monomial_index(p, eb.d - eb.w, 1).get(eb, ())
    return tuple(i for i, m in enumerate(bucket) if u_maximal(index_of(m)))


def _columns(bd, h):
    """beta's columns at bd, block by block, by beta(c m) = (-1)^|c| c beta(m)
    + beta(c) m: (e, columns) for each block c | bucket e of bd, the columns
    in basis order.  Column j of the block is column j of _bucket_beta(e),
    shifted to the start of c's block in the bd - (1, 0) basis (c has no
    block there exactly when the bucket e - (1, 0) is empty, and so is every
    column), plus s at the start of nc's block + j for each term s nc of
    beta(c), nc's bucket being e again, and the bucket part scaled by
    (-1)^|c|: the linalg.block_columns of the bucket's columns."""
    dst = bidegree_basis(bd + BETA_SHIFT, h).blocks
    for c, (e, _) in bidegree_basis(bd, h).blocks.items():
        sign, beta_c = _coeff_beta(c, h)
        cols = _bucket_beta(e, h)
        at = dst[c][1] if c in dst else 0
        yield e, block_columns(h.p, cols, at, sign, [(dst[nc][1], s) for nc, s in beta_c],
                               range(len(cols)))


def free_bbeta_generators(bound, p):
    """All U-maximal indices with |y| within the componentwise bound.

    Asserts per bidegree that the corresponding y vectors are independent
    and span the image of the differential there (in the coefficient-free
    model).  Each y[a, U] is its _bucket_beta column, shifted to the start
    of the block of 1: a linalg.block_columns with no diagonal.
    """
    h = algebra("bare", p)
    dmax, wmax = bound
    # |eta| = |y| + (1, 0) has d <= dmax + 1, so d - w <= this budget
    buckets = monomial_index(p, _degree_budget(p, dmax + 1, 1), 1)
    ybs = sorted(yb for eb in buckets
                 if (yb := eb + BETA_SHIFT).d <= dmax and yb.w <= wmax and _u_maximal_at(eb, p))
    basis_table(h, dmax + 1, wmax)  # split_ranks reads yb + (1, 0)
    found = []
    for yb in ybs:
        eb = yb - BETA_SHIFT
        start = bidegree_basis(yb, h).blocks[0][1]  # the block of 1
        maximal = _u_maximal_at(eb, p)
        vecs = block_columns(p, _bucket_beta(eb, h), start, 1, (), maximal)
        if rank(p, vecs) != len(vecs):
            raise AssertionError(f"U-maximal y classes dependent at {yb}")
        # beta keeps the coefficient/ideal split, so its rank is the sum of the two
        if sum(split_ranks(eb, h)[2:]) != len(vecs):
            raise AssertionError(f"U-maximal y classes do not span im beta at {yb}")
        found += [index_of(buckets[eb][i]) for i in maximal]
    return found


class KernelBases(NamedTuple):
    bidegree: Bidegree
    labels: Basis         # the ambient monomial basis of the bidegree, a block view
    generic: FpBasis      # kernel of beta's columns, in linalg's column form
    constructive: list    # vectors over labels' positions: the Z u U construction


def constructive_kernel(bd, h):
    """The Z u U kernel basis of one bidegree, as vectors over the positions
    of its basis, in linalg's column form.

    Z: coefficient cycles c times (1 or a U-maximal y class).
    U: beta(r) eta[a,U] + (-1)^{deg r} r y[a,U] for coefficient preimages r
    (beta(r | 1) != 0 in the _coeff_beta memo) and U-maximal eta; the sign
    is the one forced by the Leibniz rule (it agrees with the stated one at
    p = 2).  Block by block: c | 1 gives the vector at c's start, and c | e
    one vector per U-maximal position i of the eta bucket eb = e + (1, 0),
    the Leibniz block of _bucket_beta(eb) at c's start, as in _columns: for
    a preimage c it is column i of block c of _columns(bd + (1, 0)),
    beta(c eta), and for a cycle c it is c y, that column times (-1)^|c|.
    c, r and the terms of beta(r) are nonzero and stand before the Steenrod
    part, so no coefficient relation or Koszul sign arises.
    """
    if h.ambient != "mz":
        raise ValueError("y classes live in the mz form")
    p = h.p
    blocks = bidegree_basis(bd, h).blocks
    out = []
    for c, (e, start) in blocks.items():
        sign, beta_c = _coeff_beta(c, h)
        if e == _ONE:
            if not beta_c:
                out.append(column(p, {start: 1}))
            continue
        eb = e - BETA_SHIFT
        if maximal := _u_maximal_at(eb, p):
            diagonal = [(blocks[nc][1], s) for nc, s in beta_c]
            out += block_columns(p, _bucket_beta(eb, h), start, sign if diagonal else 1,
                                 diagonal, maximal)
    return out


def ker_beta_basis(bd, h):
    """Generic and constructive kernel bases of one bidegree; asserts agreement.

    beta's columns (_columns) are built once; the generic kernel is
    kernel_basis of them, and three checks on them decide agreement.  The
    columns kill each constructive vector, so the vectors span a subspace
    of ker beta: linalg.image of each vector on the columns is 0.  They
    are independent, and there are as many as the generic kernel has
    vectors, its nullity.  Independent vectors of the kernel as many as
    its dimension span it, so the two bases span the same space.
    """
    p = h.p
    cols = [col for _, block_cols in _columns(bd, h) for col in block_cols]
    generic = kernel_basis(p, cols)
    vecs = constructive_kernel(bd, h)
    if any(image(p, cols, vec) for vec in vecs):
        raise AssertionError("constructive kernel element is not a beta cycle")
    n = len(generic.vectors)
    if len(vecs) != n or rank(p, vecs) != len(vecs):
        raise AssertionError(
            f"constructive kernel disagrees with the generic kernel at {bd}: "
            f"{len(vecs)} constructive vs {n} generic"
        )
    return KernelBases(bd, bidegree_basis(bd, h), generic, vecs)


# ---------------------------------------------------------------------------
# Reports


def split_ranks(bd, h):
    """(dim, coefficient dim, coefficient rank, ideal rank) of beta at bd.

    The blocks over the bucket of 1 span C(bd), those over each other
    bucket e the ideal's part C(bd - e) (x) M(e); beta(tau_0) = 1 crosses
    that split in the full algebra, and a block over tau_0's bucket raises.
    By Kunneth, the n - b(bd - e) - b(bd - e + (1, 0)) homology classes of
    C(bd - e), n its dim, give r(e) each, its b(bd - e) pairs b' -> beta(b')
    |M(e)| each.  No rank comes from exactness, which dims' notes test."""
    basis = bidegree_basis(bd, h)
    ideal = 0
    for e in dict.fromkeys(e for e, _ in basis.blocks.values()):
        if e == _ONE:
            continue
        size, r = _bucket_ranks(e, h)
        if e == _TAU0 and r:
            raise ValueError(f"beta crosses the coefficient/ideal split at {bd}")
        n, b = _coeff_ranks(Bidegree(bd.d - e.d, bd.w - e.w), h)
        up = _coeff_ranks(Bidegree(bd.d + 1 - e.d, bd.w - e.w), h)[1] if r else 0
        ideal += (n - b - up) * r + b * size
    return (len(basis), *_coeff_ranks(bd, h), ideal)


def beta_report(bidegrees, h, ranks=None):
    """Per-bidegree rows of (dim, rank, ker, im, homology), with notes.

    ranks(bd) supplies the four numbers of split_ranks at bd (split_ranks
    itself by default); each is asked for once per call and serves
    both as the rank at bd and as the image at bd - (1,0).  A note flags
    any bidegree where the homology does not match the coefficient-ring
    homology (the tensor splitting) or where the augmentation-ideal part
    fails im = ker; both are read off the two blocks of the same matrix.
    Bidegrees with an empty basis get no row.
    """
    if ranks is None:
        def ranks(bd):
            return split_ranks(bd, h)

    stats = {}

    def at(bd):
        if bd not in stats:
            stats[bd] = ranks(bd)
        return stats[bd]

    report = []
    for bd in bidegrees:
        if not bidegree_basis(bd, h):
            continue
        dim, coeff_dim, coeff_rank, ideal_rank = at(bd)
        _, _, coeff_im, ideal_im = at(bd - BETA_SHIFT)
        r = coeff_rank + ideal_rank
        im = coeff_im + ideal_im
        hom = dim - r - im
        notes = []
        if hom != coeff_dim - coeff_rank - coeff_im:
            notes.append("homology does not match the coefficient tensor factor")
        if dim - coeff_dim - ideal_rank != ideal_im:
            notes.append("augmentation ideal has im != ker here")
        report.append(
            {
                "bidegree": [bd.d, bd.w],
                "dim": dim,
                "rank": r,
                "ker": dim - r,
                "im": im,
                "homology": hom,
                "notes": notes,
            }
        )
    return report
