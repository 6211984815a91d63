"""Exact sparse linear algebra over F_p: ranks and kernel bases.

A vector is a sparse dict {coordinate: residue in 1..p-1}, or over GF(2)
an integer, one bit per coordinate.  Every elimination inserts vectors
one at a time into an echelon form keyed by each vector's lowest nonzero
coordinate; over odd p a stored vector is scaled to 1 there.  A rank
inserts a matrix's rows, or any iterable of vectors.  A kernel inserts
the columns, each carrying a tracking part that records the combination
of columns it has become: a column that reduces to zero leaves its
tracking part as a kernel vector.  With no back-substitution these are
the vectors of the unique reduced row echelon form, so kernel bases are
reproducible bit for bit.
"""

from __future__ import annotations


class DimensionMismatch(ValueError):
    pass


class FpMatrix:
    """An nrows x ncols matrix over F_p as {(row, col): residue in 1..p-1}."""

    def __init__(self, p, nrows, ncols, entries=None):
        """Check the entries in place: inside the shape, each a residue in 1..p-1."""
        self.p, self.nrows, self.ncols = p, nrows, ncols
        self.entries = entries = {} if entries is None else entries
        for (r, c), v in entries.items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise DimensionMismatch(f"entry ({r},{c}) outside {nrows}x{ncols}")
            if not 0 < v < p:
                raise ValueError(f"entry ({r},{c}) = {v} is not a residue in 1..{p - 1}")

    def __repr__(self):
        return f"FpMatrix({self.p}, {self.nrows}, {self.ncols}, {self.entries!r})"


class FpBasis:
    def __init__(self, p, ambient_dim, vectors):
        self.p, self.ambient_dim = p, ambient_dim
        self.vectors = vectors  # ints at p = 2, sparse dicts {coordinate: residue} at odd p

    def __len__(self):
        return len(self.vectors)


def _rows(M):
    rows = {}
    for (r, c), v in M.entries.items():
        rows.setdefault(r, {})[c] = v
    return rows.values()


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


def gf2_rank(packed):
    """Rank of the span of GF(2) vectors packed into integers, bit c the
    coordinate c."""
    return len(_gf2_echelon(packed))


def rank_of_columns(p, vectors):
    """Rank of the span of sparse vectors {coordinate: residue}."""
    if p == 2:
        return gf2_rank(sum(1 << c for c in vec) for vec in vectors)
    return len(_echelon(p, vectors))


def rank(M):
    return rank_of_columns(M.p, _rows(M))


def kernel_basis(p, columns):
    """Basis of the null space of the matrix with the given columns; size =
    number of columns - rank.

    A column is an int at p = 2, bit r for row r, and a sparse dict {row:
    residue} at odd p.  The columns are inserted in order, each carrying a
    tracking part, 1 at its own index: it is reduced by the stored pivots,
    keyed by their lowest row, the same operations applied to the tracking
    part, and stored as a pivot (at odd p scaled, with its tracking part,
    to 1 at the pivot row) once its lowest row has none.  A column that
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
