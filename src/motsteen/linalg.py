"""Exact sparse linear algebra over F_p: ranks and kernel bases.

A vector is a sparse dict {coordinate: residue in 1..p-1}, and a matrix
is eliminated as an iterable of such rows.  Both eliminations insert the
rows one at a time into an echelon form keyed by each row's lowest
nonzero column.  Over GF(2) a row is packed into an integer, one bit per
coordinate; over odd p it stays a dict, scaled to 1 at its pivot.  When a
kernel is asked for, back-substitution, highest pivot first, ends in the
unique reduced row echelon form, so kernel bases are reproducible bit for
bit.
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
        self.vectors = vectors  # sparse dicts {coordinate: residue}

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


def _gf2_rref(rows):
    """Reduced row echelon form of GF(2) rows packed into integers, as
    {pivot col: row}.

    Back-substitution runs highest pivot first, so every row it subtracts
    is already reduced and holds no pivot bit but its own.
    """
    rows = _gf2_echelon(rows)
    mask = 0
    for c in rows:
        mask |= 1 << c
    for c in sorted(rows, reverse=True):
        row = rows[c]
        hits = (row & mask) ^ (1 << c)
        while hits:
            low = hits & -hits
            row ^= rows[low.bit_length() - 1]
            hits ^= low
        rows[c] = row
    return rows


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


def _rref(p, rows):
    """Reduced row echelon form over odd p as {pivot col: {col: value}}.

    As in _gf2_rref, back-substitution runs highest pivot first.
    """
    pivots = _echelon(p, rows)
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for c in [c for c in row if c != col and c in pivots]:
            _subtract(row, row[c], pivots[c], p)
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


def kernel_basis(M):
    """Basis of the null space {v : M v = 0}; size = ncols - rank.

    One sparse vector per free column f, in column order: 1 at f, and -a
    at each pivot column whose reduced row holds a at f.  The reduced row
    echelon form is unique, so the basis does not depend on how it was
    reached.  At p = 2 each row of M is packed straight from its entries
    into an int, and each free column's vector is read off the reduced ints.
    """
    p = M.p
    if p == 2:
        rows = [0] * M.nrows
        for r, c in M.entries:
            rows[r] |= 1 << c
        reduced = _gf2_rref(rows)
    else:
        reduced = _rref(p, _rows(M))
    at_free = {c: {c: 1} for c in range(M.ncols) if c not in reduced}
    for col, row in reduced.items():
        if p == 2:
            row ^= 1 << col
            while row:
                low = row & -row
                at_free[low.bit_length() - 1][col] = 1
                row ^= low
            continue
        for c, a in row.items():
            if c != col:
                at_free[c][col] = (-a) % p
    return FpBasis(p, M.ncols, list(at_free.values()))
