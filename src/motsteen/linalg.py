"""Exact sparse linear algebra over F_p.

Gaussian elimination with a deterministic pivot rule (columns left to right,
lowest available row) so that ranks, kernel bases and image bases are
reproducible bit for bit.  Over GF(2) rows are packed into integers.
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
    def from_rows(cls, p, rows):
        entries = {}
        ncols = max((len(r) for r in rows), default=0)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v % p:
                    entries[(i, j)] = v % p
        return cls(p, len(rows), ncols, entries)

    @classmethod
    def from_columns(cls, p, cols, nrows):
        entries = {}
        for j, col in enumerate(cols):
            for i, v in enumerate(col):
                if v % p:
                    entries[(i, j)] = v % p
        return cls(p, nrows, len(cols), entries)

    def column(self, j):
        col = [0] * self.nrows
        for (r, c), v in self.entries.items():
            if c == j:
                col[r] = v
        return tuple(col)

    def transpose(self):
        return FpMatrix(
            self.p, self.ncols, self.nrows,
            {(c, r): v for (r, c), v in self.entries.items()},
        )

    def mul_vec(self, vec):
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"vector length {len(vec)} != {self.ncols} columns")
        out = [0] * self.nrows
        for (r, c), v in self.entries.items():
            out[r] = (out[r] + v * vec[c]) % self.p
        return tuple(out)


@dataclass
class FpBasis:
    p: int
    ambient_dim: int
    vectors: list           # tuples of length ambient_dim
    labels: list | None = None      # parallel monomial labels for the ambient basis
    certificates: list | None = None  # for image bases: source column indices

    def __len__(self):
        return len(self.vectors)


def _rref_gf2(M):
    """GF(2) reduced echelon by insertion on bitset rows.

    The reduced row echelon form is unique, so this produces the same pivot
    set and pivot-row contents as column-major elimination; only the
    placement of untouched zero rows differs, which nothing downstream
    reads.
    """
    packed = [0] * M.nrows
    for (r, c), _ in M.entries.items():
        packed[r] |= 1 << c
    piv_bits = {}  # pivot col -> fully reduced row bits
    for row in packed:
        for c, bits in piv_bits.items():
            if row >> c & 1:
                row ^= bits
        if row:
            c = (row & -row).bit_length() - 1
            for pc, pb in piv_bits.items():
                if pb >> c & 1:
                    piv_bits[pc] = pb ^ row
            piv_bits[c] = row
    rows = []
    pivots = {}
    for c in sorted(piv_bits):
        b = piv_bits[c]
        row = {}
        while b:
            low = b & -b
            row[low.bit_length() - 1] = 1
            b ^= low
        pivots[c] = len(rows)
        rows.append(row)
    return rows, pivots


def _rref(M):
    """Reduced row echelon form; returns (rows, pivots) with pivots col->row.

    rows is a list of dicts col -> value covering the nonzero rows.
    """
    p = M.p
    if p == 2:
        return _rref_gf2(M)
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


def _gf2_rank(rows):
    """Rank of GF(2) vectors packed into integers, by insertion elimination."""
    pivots = {}
    for row in rows:
        while row:
            col = (row & -row).bit_length() - 1
            hit = pivots.get(col)
            if hit is None:
                pivots[col] = row
                break
            row ^= hit
    return len(pivots)


def rank_of_columns(p, vectors):
    """Rank of the span of dense coordinate vectors."""
    if p == 2:
        # byte-per-entry packing is a GF(2)-linear injection, so it keeps
        # the rank; residues are already reduced to 0/1
        return _gf2_rank(int.from_bytes(bytes(vec), "little") for vec in vectors)
    n = len(vectors[0]) if vectors else 0
    return rank(FpMatrix.from_columns(p, vectors, n))


def rank(M):
    if M.p == 2:
        bits = {}
        for (r, c), _ in M.entries.items():
            bits[r] = bits.get(r, 0) | (1 << c)
        return _gf2_rank(bits.values())
    _, pivots = _rref(M)
    return len(pivots)


def kernel_basis(M):
    """Basis of the null space {v : M v = 0}; size = ncols - rank."""
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
    return FpBasis(M.p, M.ncols, vectors)


def image_basis(M):
    """Basis of the column space: the original pivot columns, in column order.

    Each basis vector keeps its source column index as a preimage
    certificate; M applied to the matching standard vector reproduces it.
    """
    _, pivots = _rref(M)
    cols = sorted(pivots)
    vectors = []
    for j in cols:
        v = M.column(j)
        unit = [0] * M.ncols
        unit[j] = 1
        if M.mul_vec(unit) != v:
            raise AssertionError("image certificate failed to reproduce its column")
        vectors.append(v)
    return FpBasis(M.p, M.nrows, vectors, certificates=cols)


def in_span(vec, basis):
    """Decide v in span(basis); returns (True, coords) or (False, None)."""
    if len(vec) != basis.ambient_dim:
        raise DimensionMismatch(
            f"vector length {len(vec)} != ambient dimension {basis.ambient_dim}"
        )
    p = basis.p
    n = len(basis.vectors)
    # augmented system [B | v] over the basis coordinates
    M = FpMatrix(
        p, basis.ambient_dim, n + 1,
        {
            **{(i, j): bv[i] for j, bv in enumerate(basis.vectors) for i in range(basis.ambient_dim) if bv[i] % p},
            **{(i, n): vec[i] for i in range(basis.ambient_dim) if vec[i] % p},
        },
    )
    rows, pivots = _rref(M)
    if n in pivots:
        return False, None
    coords = [0] * n
    for col, r in pivots.items():
        coords[col] = rows[r].get(n, 0)
    if tuple(FpMatrix.from_columns(p, [bv for bv in basis.vectors], basis.ambient_dim).mul_vec(coords)) != tuple(v % p for v in vec):
        return False, None
    return True, tuple(coords)
