"""Exact sparse linear algebra over F_p: ranks, images and kernel bases.

Every vector is in the column form: an integer at p = 2, bit r for
coordinate r, and a sparse dict {coordinate: residue in 1..p-1} at odd p;
other modules build it only by column and block_columns.  A matrix is the
list of its columns.  Every elimination inserts vectors one at a time into
an echelon form keyed by each vector's lowest nonzero coordinate; over odd p
a stored vector is scaled to 1 there.  A rank inserts any iterable of
vectors.  A kernel inserts the columns, each carrying a tracking part that
records the combination of columns it has become: a column that reduces to
zero leaves its tracking part as a kernel vector.  With no back-substitution
these are the vectors of the unique reduced row echelon form, so kernel
bases are reproducible bit for bit.
"""

from __future__ import annotations


class FpBasis:
    def __init__(self, p, ambient_dim, vectors):
        self.p, self.ambient_dim = p, ambient_dim
        self.vectors = vectors  # ints at p = 2, sparse dicts {coordinate: residue} at odd p

    def __len__(self):
        return len(self.vectors)


def column(p, entries):
    """The vector {coordinate: nonzero residue} in the column form."""
    if p == 2:
        return sum(1 << r for r in entries)
    return entries


def block_columns(p, columns, at, scale, diagonal, positions):
    """The Leibniz block: for each j in positions, scale (+-1) * columns[j]
    moved down by at, plus the residue s at t + j for each (t, s) in diagonal,
    rows that miss each other and the moved column, as distinct blocks do."""
    if p == 2:
        bits = 0
        for t, _ in diagonal:
            bits |= 1 << t
        return [columns[j] << at | bits << j for j in positions]
    out = []
    for j in positions:
        vec = {at + r: scale * s % p for r, s in columns[j].items()}
        for t, s in diagonal:
            vec[t + j] = s
        out.append(vec)
    return out


def _gf2_echelon(rows):
    """Echelon form of GF(2) vectors packed into integers, by insertion.

    Each row is reduced by the stored rows until its lowest set bit is a
    column with no pivot yet, and is stored there.  Returns {pivot col:
    row}; every stored row has its pivot as lowest set bit.
    """
    pivots = {}
    for row in rows:
        while row:
            col = (row & -row).bit_length() - 1
            hit = pivots.get(col)
            if hit is None:
                pivots[col] = row
                break
            row ^= hit
    return pivots


def _subtract(row, f, prow, p):
    """row -= f * prow in place, over F_p."""
    for c, v in prow.items():
        nv = (row.get(c, 0) - f * v) % p
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)


def _echelon(p, rows):
    """Echelon form of sparse F_p rows by insertion, as {pivot col: row}.

    The odd-p twin of _gf2_echelon: each row is reduced by the stored rows
    until its lowest column has no pivot yet, then scaled to 1 there and
    stored.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            hit = pivots.get(col)
            if hit is None:
                inv = pow(row[col], p - 2, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                break
            _subtract(row, row[col], hit, p)
    return pivots


def rank(p, vectors):
    """Rank of the span of vectors in the column form, from any iterable."""
    return len(_gf2_echelon(vectors) if p == 2 else _echelon(p, vectors))


def image(p, columns, vec):
    """The combination sum_i vec_i * columns[i], in the column form."""
    if p == 2:
        img = 0
        while vec:
            low = vec & -vec
            img ^= columns[low.bit_length() - 1]
            vec ^= low
        return img
    img = {}
    for c, s in vec.items():
        _subtract(img, -s, columns[c], p)
    return img


def kernel_basis(p, columns):
    """Basis of the null space of the matrix with the given columns; size =
    number of columns - rank.

    The columns, in the column form, are inserted in order, each carrying
    a tracking part, 1 at its own index: it is reduced by the stored
    pivots, keyed by their lowest row, the same operations applied to the
    tracking part, and stored as a pivot (at odd p scaled, with its
    tracking part, to 1 at the pivot row) once its lowest row has none.  A column that
    reduces to zero leaves its tracking part as a kernel vector, in the
    column form: 1 at the column f and minus the unique combination of the
    pivot columns before f that equals column f.  That is the vector the
    reduced row echelon form gives for the free column f, so the basis
    does not depend on how it was reached.
    """
    vectors = []
    pivots = {}  # lowest row -> (reduced column, its tracking part)
    n = 0
    if p == 2:
        for n, col in enumerate(columns, 1):
            track = 1 << n - 1
            while col:
                low = col & -col
                hit = pivots.get(low)
                if hit is None:
                    pivots[low] = col, track
                    break
                col ^= hit[0]
                track ^= hit[1]
            else:
                vectors.append(track)
        return FpBasis(p, n, vectors)
    for n, col in enumerate(columns, 1):
        col, track = dict(col), {n - 1: 1}
        while col:
            row = min(col)
            hit = pivots.get(row)
            if hit is None:
                inv = pow(col[row], p - 2, p)
                pivots[row] = ({c: v * inv % p for c, v in col.items()},
                               {c: v * inv % p for c, v in track.items()})
                break
            f = col[row]
            _subtract(col, f, hit[0], p)
            _subtract(track, f, hit[1], p)
        else:
            vectors.append(track)
    return FpBasis(p, n, vectors)
