"""Exact F_p linear algebra: ranks, kernels, images, span membership."""

import random

import pytest

from motsteen.linalg import (
    DimensionMismatch,
    FpBasis,
    FpMatrix,
    image_basis,
    in_span,
    kernel_basis,
    rank,
)


def test_rank_trivial():
    assert rank(FpMatrix(2, 0, 0)) == 0
    eye = FpMatrix(2, 3, 3, {(i, i): 1 for i in range(3)})
    assert rank(eye) == 3
    assert rank(FpMatrix(2, 1, 1, {(0, 0): 1})) == 1  # a single Bockstein block


def test_kernel_trivial():
    eye = FpMatrix(3, 3, 3, {(i, i): 1 for i in range(3)})
    assert kernel_basis(eye).vectors == []
    m = FpMatrix(2, 1, 2, {(0, 0): 1, (0, 1): 1})
    assert kernel_basis(m).vectors == [(1, 1)]


def test_kernel_bockstein_block_example():
    # beta on span{xi_1 tau_2, xi_2 tau_1}: both map to xi_1 xi_2
    m = FpMatrix(2, 1, 2, {(0, 0): 1, (0, 1): 1})
    kb = kernel_basis(m)
    assert kb.vectors == [(1, 1)]


def test_image_basis():
    assert image_basis(FpMatrix(5, 3, 3)).vectors == []
    eye = FpMatrix(5, 2, 2, {(0, 0): 1, (1, 1): 1})
    assert image_basis(eye).vectors == [(1, 0), (0, 1)]
    m = FpMatrix(2, 1, 2, {(0, 0): 1, (0, 1): 1})
    ib = image_basis(m)
    assert ib.vectors == [(1,)]
    assert ib.certificates == [0]


def test_in_span():
    basis = FpBasis(2, 3, [(1, 0, 1), (0, 1, 1)])
    ok, coords = in_span((0, 0, 0), basis)
    assert ok and coords == (0, 0)
    ok, coords = in_span((1, 1, 0), basis)
    assert ok and coords == (1, 1)
    ok, coords = in_span((1, 0, 0), basis)
    assert not ok and coords is None
    empty = FpBasis(2, 2, [])
    assert in_span((1, 0), empty) == (False, None)
    assert in_span((0, 0), empty)[0]


def test_in_span_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        in_span((1, 0), FpBasis(2, 3, [(1, 0, 0)]))


def test_in_span_odd_p_coordinates():
    basis = FpBasis(5, 2, [(1, 2), (0, 1)])
    ok, coords = in_span((3, 4), basis)  # 3*(1,2) + 3*(0,1)
    assert ok and coords == (3, 3)
    ok, _ = in_span((2, 4), basis)
    assert ok  # the basis spans F_5^2
    single = FpBasis(5, 2, [(1, 2)])
    ok, coords = in_span((4, 3), single)
    assert ok and coords == (4,)
    assert in_span((1, 0), single) == (False, None)


def test_entry_bounds_checked():
    with pytest.raises(DimensionMismatch):
        FpMatrix(2, 1, 1, {(1, 0): 1})


def _random_sparse(rng, p, n, m, fill):
    entries = {}
    for _ in range(int(n * m * fill)):
        entries[(rng.randrange(n), rng.randrange(m))] = rng.randrange(1, p)
    return FpMatrix(p, n, m, entries)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for n, m, fill in [(20, 30, 0.1), (60, 60, 0.05), (200, 200, 0.01)]:
            M = _random_sparse(rng, p, n, m, fill)
            assert rank(M) == rank(M.transpose())


def test_kernel_vectors_annihilated_and_dims_add_up():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(6):
            M = _random_sparse(rng, p, 25, 35, 0.15)
            kb = kernel_basis(M)
            assert len(kb) + rank(M) == M.ncols
            for v in kb.vectors:
                assert all(x == 0 for x in M.mul_vec(v))


def test_image_certificates_reproduce_columns():
    rng = random.Random(9)
    for p in (2, 3):
        M = _random_sparse(rng, p, 30, 30, 0.2)
        ib = image_basis(M)
        assert len(ib) == rank(M)
        for v, j in zip(ib.vectors, ib.certificates):
            unit = [0] * M.ncols
            unit[j] = 1
            assert M.mul_vec(unit) == v


def test_dense_fallback_path():
    rng = random.Random(13)
    M = _random_sparse(rng, 3, 15, 15, 0.6)  # dense input through the one sparse path
    assert rank(M) == rank(M.transpose())
    kb = kernel_basis(M)
    for v in kb.vectors:
        assert all(x == 0 for x in M.mul_vec(v))


def test_kernel_image_orthogonality_on_composites():
    # two consecutive Bockstein matrices compose to zero; kernel contains image
    rng = random.Random(17)
    p = 3
    A = _random_sparse(rng, p, 12, 18, 0.2)
    kb = kernel_basis(A)
    B = FpMatrix.from_columns(p, kb.vectors, A.ncols)  # maps into ker(A)
    for j in range(B.ncols):
        col = B.column(j)
        assert all(x == 0 for x in A.mul_vec(col))
