"""Exact F_p linear algebra: ranks, images and kernels, in the column form."""

import random

from hypothesis import example, given, settings, strategies as st

import oracles
from motsteen.linalg import block_columns, column, image, kernel_basis, rank
from oracles import Matrix


def dense_column(M, j):
    col = [0] * M.nrows
    for (r, c), v in M.entries.items():
        if c == j:
            col[r] = v
    return tuple(col)


def rank_of(M):
    return rank(M.p, oracles.columns(M))


def transpose(M):
    return Matrix(M.p, M.ncols, M.nrows, {(c, r): v for (r, c), v in M.entries.items()})


def mul_vec(M, vec):
    out = [0] * M.nrows
    for (r, c), v in M.entries.items():
        out[r] = (out[r] + v * vec[c]) % M.p
    return tuple(out)


def test_rank_trivial():
    assert rank(2, []) == 0
    assert rank(2, [1, 2, 4]) == 3  # the 3 x 3 identity
    assert rank(2, [1]) == 1  # a single Bockstein block
    assert rank(3, [{0: 1}, {1: 2}, {2: 1}]) == 3


def test_kernel_trivial():
    eye = Matrix(3, 3, 3, {(i, i): 1 for i in range(3)})
    assert oracles.dense(kernel_basis(eye.p, oracles.columns(eye))) == []
    m = Matrix(2, 1, 2, {(0, 0): 1, (0, 1): 1})
    assert oracles.dense(kernel_basis(m.p, oracles.columns(m))) == [(1, 1)]


def test_kernel_bockstein_block_example():
    # beta on span{xi_1 tau_2, xi_2 tau_1}: both map to xi_1 xi_2
    m = Matrix(2, 1, 2, {(0, 0): 1, (0, 1): 1})
    kb = kernel_basis(m.p, oracles.columns(m))
    assert oracles.dense(kb) == [(1, 1)]


def _random_sparse(rng, p, n, m, fill):
    entries = {}
    for _ in range(int(n * m * fill)):
        entries[(rng.randrange(n), rng.randrange(m))] = rng.randrange(1, p)
    return Matrix(p, n, m, entries)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for n, m, fill in [(20, 30, 0.1), (60, 60, 0.05), (200, 200, 0.01)]:
            M = _random_sparse(rng, p, n, m, fill)
            assert rank_of(M) == rank_of(transpose(M))


def test_kernel_vectors_annihilated_and_dims_add_up():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(6):
            M = _random_sparse(rng, p, 25, 35, 0.15)
            kb = kernel_basis(M.p, oracles.columns(M))
            assert len(kb) + rank_of(M) == M.ncols
            for v in oracles.dense(kb):
                assert all(x == 0 for x in mul_vec(M, v))


def test_dense_fallback_path():
    rng = random.Random(13)
    M = _random_sparse(rng, 3, 15, 15, 0.6)  # dense input through the one sparse path
    assert rank_of(M) == rank_of(transpose(M))
    kb = kernel_basis(M.p, oracles.columns(M))
    for v in oracles.dense(kb):
        assert all(x == 0 for x in mul_vec(M, v))


def test_kernel_image_orthogonality_on_composites():
    # two consecutive Bockstein matrices compose to zero; kernel contains image
    rng = random.Random(17)
    p = 3
    A = _random_sparse(rng, p, 12, 18, 0.2)
    kb = kernel_basis(A.p, oracles.columns(A))
    B = Matrix(  # maps into ker(A)
        p, A.ncols, len(kb), {(r, j): v for j, vec in enumerate(kb.vectors) for r, v in vec.items()}
    )
    for j in range(B.ncols):
        col = dense_column(B, j)
        assert all(x == 0 for x in mul_vec(A, col))


@st.composite
def sparse_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, 12))
    cells = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(m - 1, 0)))
    entries = draw(st.dictionaries(cells, st.integers(1, p - 1), max_size=n * m // 3))
    return Matrix(p, n, m, entries)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sparse_matrices())
@example(Matrix(2, 0, 0, {}))
@example(Matrix(3, 0, 4, {}))
@example(Matrix(5, 4, 0, {}))
def test_elimination_properties(M):
    kb = kernel_basis(M.p, oracles.columns(M))
    r = rank_of(M)
    assert len(kb) + r == M.ncols
    assert all(not any(mul_vec(M, v)) for v in oracles.dense(kb))
    assert r == rank_of(transpose(M))
    assert oracles.dense(kb) == oracles.kernel_basis(M)
    assert r == oracles.rank(M)


@st.composite
def column_lists(draw):
    """(p, nrows, columns) in kernel_basis's forms, ints at p = 2 and dicts at
    odd p; some columns are zero and some repeat an earlier column."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 10))
    fresh = st.dictionaries(st.integers(0, max(n - 1, 0)), st.integers(1, p - 1),
                            max_size=n)
    cols = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat"]))
        if kind == "repeat" and cols:
            col = dict(draw(st.sampled_from(cols)))
            if draw(st.booleans()):  # a nonzero multiple of it
                f = draw(st.integers(1, p - 1))
                col = {r: v * f % p for r, v in col.items()}
        else:
            col = draw(fresh) if n and kind == "fresh" else {}
        cols.append(col)
    if p == 2:
        cols = [sum(1 << r for r in col) for col in cols]
    return p, n, cols


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(column_lists())
@example((2, 0, []))
@example((3, 3, []))
@example((2, 2, [0, 0, 3, 3, 1]))
@example((5, 2, [{}, {0: 2, 1: 1}, {0: 4, 1: 2}, {1: 3}, {}]))
def test_kernel_of_columns_equals_the_dense_rref_kernel(case):
    # the column-insertion kernel is the reduced row echelon form's, vector
    # for vector and in order, each vector in the columns' own form
    p, n, cols = case
    M = oracles.matrix(p, n, cols)
    kb = kernel_basis(p, iter(cols))
    assert kb.ambient_dim == len(cols)
    assert all(isinstance(v, int if p == 2 else dict) for v in kb.vectors)
    assert oracles.dense(kb) == oracles.kernel_basis(M)
    assert len(kb) + oracles.rank(M) == len(cols)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(column_lists())
@example((2, 0, []))
@example((5, 3, []))
@example((2, 3, [0, 0]))
@example((3, 2, [{}, {0: 2}, {0: 1}, {}]))
def test_rank_of_vectors_equals_the_dense_rank(case):
    # one rank for the column form, from a list or a generator, with zero
    # vectors and multiples among the vectors, which it leaves as they were
    p, n, cols = case
    before = [v if p == 2 else dict(v) for v in cols]
    want = oracles.rank(oracles.matrix(p, n, cols))
    assert rank(p, cols) == want
    assert rank(p, (v for v in cols)) == want
    assert cols == before


@st.composite
def column_combinations(draw):
    """(p, nrows, columns, vec): columns as column_lists draws them and a
    vector in the same form over the column indices."""
    p, n, cols = draw(column_lists())
    scalars = draw(st.lists(st.integers(0, p - 1), min_size=len(cols), max_size=len(cols)))
    vec = {i: s for i, s in enumerate(scalars) if s}
    return p, n, cols, sum(1 << i for i in vec) if p == 2 else vec


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(column_combinations())
@example((2, 0, [], 0))
@example((3, 2, [], {}))
@example((2, 2, [3, 3, 1], 3))
@example((5, 2, [{0: 2, 1: 1}, {0: 3, 1: 4}], {0: 1, 1: 1}))
def test_image_is_the_dense_product(case):
    # the combination sum_i vec_i * columns[i], in the columns' own form
    p, n, cols, vec = case
    got = image(p, cols, vec)
    assert isinstance(got, int if p == 2 else dict)
    got = oracles.as_dict(got)
    assert all(0 <= r < n and 0 < s < p for r, s in got.items())
    weights = oracles.as_dict(vec)
    product = mul_vec(oracles.matrix(p, n, cols), [weights.get(i, 0) for i in range(len(cols))])
    assert tuple(got.get(r, 0) for r in range(n)) == product


@st.composite
def leibniz_blocks(draw):
    """(p, nrows, columns, at, scale, diagonal, positions) for block_columns:
    columns as column_lists draws them, moved to the block at `at`, and
    identity blocks as wide as the list of columns starting at each t of
    diagonal, the blocks apart in a random order with random gaps."""
    p, n, cols = draw(column_lists())
    k = draw(st.integers(0, 3))
    sizes = [n] + [len(cols)] * k
    starts, nrows = [0] * (k + 1), 0
    for b in draw(st.permutations(range(k + 1))):
        nrows += draw(st.integers(0, 2))
        starts[b], nrows = nrows, nrows + sizes[b]
    diagonal = [(t, draw(st.integers(1, p - 1))) for t in starts[1:]]
    positions = sorted(draw(st.sets(st.sampled_from(range(len(cols))))) if cols else ())
    return p, nrows, cols, starts[0], draw(st.sampled_from([1, -1])), diagonal, positions


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(leibniz_blocks())
@example((2, 0, [], 0, 1, [], []))
@example((5, 3, [], 1, -1, [(0, 2)], []))
@example((3, 5, [{0: 1, 1: 2}, {}, {2: 2}], 2, -1, [], [0, 2]))
@example((2, 6, [3, 1], 4, 1, [(0, 1), (2, 1)], []))
def test_column_builders_are_the_dense_leibniz_block(case):
    # column j of the block is scale * columns[j] moved down by at, plus s
    # at t + j for each (t, s) of the diagonal, in the column form
    p, nrows, cols, at, scale, diagonal, positions = case
    entries = {t: s for t, s in diagonal}
    assert oracles.as_dict(column(p, dict(entries))) == entries
    got = block_columns(p, cols, at, scale, diagonal, positions)
    assert len(got) == len(positions)
    for j, vec in zip(positions, got):
        assert isinstance(vec, int if p == 2 else dict)
        want = [0] * nrows
        for r, s in oracles.as_dict(cols[j]).items():
            want[at + r] = (want[at + r] + scale * s) % p
        for t, s in diagonal:
            want[t + j] = (want[t + j] + s) % p
        vec = oracles.as_dict(vec)
        assert all(0 < s < p for s in vec.values())
        assert [vec.get(r, 0) for r in range(nrows)] == want
