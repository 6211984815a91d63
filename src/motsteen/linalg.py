"""Exact sparse linear algebra over F_p: ranks and kernel bases.

Two eliminations, one per kind of prime.  Over GF(2), rows are packed into
integers and inserted one at a time into an echelon form keyed by the
lowest set bit.  Over odd p, a column-major elimination on dict rows.  Both
end in the unique reduced row echelon form when a kernel is asked for, so
kernel bases are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class DimensionMismatch(ValueError):
    pass


@dataclass
class FpMatrix:
    p: int
    nrows: int
    ncols: int
    entries: dict = field(default_factory=dict)  # (row, col) -> residue in 1..p-1

    def __post_init__(self):
        clean = {}
        for (r, c), v in self.entries.items():
            if not (0 <= r < self.nrows and 0 <= c < self.ncols):
                raise DimensionMismatch(f"entry ({r},{c}) outside {self.nrows}x{self.ncols}")
            v %= self.p
            if v:
                clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def from_columns(cls, p, cols, nrows):
        entries = {}
        for j, col in enumerate(cols):
            for i, v in enumerate(col):
                if v % p:
                    entries[(i, j)] = v % p
        return cls(p, nrows, len(cols), entries)


@dataclass
class FpBasis:
    p: int
    ambient_dim: int
    vectors: list           # tuples of length ambient_dim

    def __len__(self):
        return len(self.vectors)


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


def _gf2_rows(M):
    bits = {}
    for r, c in M.entries:
        bits[r] = bits.get(r, 0) | (1 << c)
    return bits.values()


def _gf2_rref(M):
    """Reduced row echelon form over GF(2) as {pivot col: {col: 1}}.

    Back-substitution runs highest pivot first, so every row it subtracts
    is already reduced and holds no pivot bit but its own.
    """
    rows = _gf2_echelon(_gf2_rows(M))
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
    out = {}
    for c, row in rows.items():
        out[c] = entries = {}
        while row:
            low = row & -row
            entries[low.bit_length() - 1] = 1
            row ^= low
    return out


def _rref(M):
    """Reduced row echelon form over odd p as {pivot col: {col: value}}.

    Columns are scanned left to right; each takes the lowest unused row
    that is nonzero there as its pivot.
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
        inv = pow(rows[pivot][col], p - 2, p)
        if inv != 1:
            rows[pivot] = {c: (v * inv) % p for c, v in rows[pivot].items()}
        prow = pivots[col] = rows[pivot]
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
    return pivots


def rank_of_columns(p, vectors):
    """Rank of the span of dense coordinate vectors."""
    if p == 2:
        # byte-per-entry packing is a GF(2)-linear injection, so it keeps
        # the rank; residues are already reduced to 0/1
        return len(_gf2_echelon(int.from_bytes(bytes(vec), "little") for vec in vectors))
    n = len(vectors[0]) if vectors else 0
    return rank(FpMatrix.from_columns(p, vectors, n))


def rank(M):
    if M.p == 2:
        return len(_gf2_echelon(_gf2_rows(M)))
    return len(_rref(M))


def kernel_basis(M):
    """Basis of the null space {v : M v = 0}; size = ncols - rank.

    One vector per free column f, in column order: 1 at f, and -a at each
    pivot column whose reduced row holds a at f.  The reduced row echelon
    form is unique, so the basis does not depend on how it was reached.
    """
    p = M.p
    reduced = _gf2_rref(M) if p == 2 else _rref(M)
    at_free = {c: {c: 1} for c in range(M.ncols) if c not in reduced}
    for col, row in reduced.items():
        for c, a in row.items():
            if c != col:
                at_free[c][col] = (-a) % p
    vectors = []
    for entries in at_free.values():
        v = [0] * M.ncols
        for c, a in entries.items():
            v[c] = a
        vectors.append(tuple(v))
    return FpBasis(p, M.ncols, vectors)
