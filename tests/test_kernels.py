import itertools

import numpy as np
import pytest

from hbvm import kernels

WEIGHTS = {
    2: np.array([1.0]),
    4: np.array([4.0 / 3.0, -1.0 / 12.0]),
    6: np.array([3.0 / 2.0, -3.0 / 20.0, 1.0 / 90.0]),
}


def dense_circulant(weights, n):
    mat = np.zeros((n, n))
    for i in range(n):
        mat[i, i] = 2.0 * np.sum(weights)
        for r in range(1, weights.size + 1):
            mat[i, (i - r) % n] -= weights[r - 1]
            mat[i, (i + r) % n] -= weights[r - 1]
    return mat


def dense_tridiag(n, corner):
    mat = np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1) + np.diag(np.full(n - 1, -1.0), -1)
    mat[0, 0] = mat[-1, -1] = 1.0 + corner
    return mat


@pytest.mark.parametrize("order", [2, 4, 6])
def test_circulant_matches_dense(order, rng):
    n = 17
    q = rng.standard_normal(n)
    dense = dense_circulant(WEIGHTS[order], n)
    np.testing.assert_allclose(kernels.circulant_apply(WEIGHTS[order], q), dense @ q, atol=1e-13)
    stages = rng.standard_normal((4, n))
    np.testing.assert_allclose(kernels.circulant_apply_batch(WEIGHTS[order], stages), stages @ dense.T, atol=1e-13)


def rolled_circulant(weights, q):
    """The circulant stencil with np.roll shifts: the oracle the sliced kernel must equal bitwise."""
    out = np.zeros_like(q)
    for r in range(1, weights.size + 1):
        fwd = np.roll(q, -r, axis=-1) - q
        bwd = q - np.roll(q, r, axis=-1)
        out -= weights[r - 1] * (fwd - bwd)
    return out


@pytest.mark.parametrize("order", [2, 4, 6])
@pytest.mark.parametrize("shape", [(), (5,), (5, 2)], ids=["vector", "stages", "nls-fields"])
def test_circulant_bitwise_equals_rolled(order, shape, rng):
    # n = order + 1 is the smallest grid build_periodic allows; constant rows, +0 and -0 among them, make
    # every difference a zero, and the kernel's sum starts from its first term, not from zeros
    for n in (order + 1, 17):
        size = shape + (n,)
        for q in (rng.standard_normal(size), np.full(size, rng.standard_normal()), np.zeros(size), np.full(size, -0.0)):
            got = kernels.circulant_apply(WEIGHTS[order], q)
            want = rolled_circulant(WEIGHTS[order], q)
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # signed zeros too


@pytest.mark.parametrize("order", [2, 4, 6])
def test_circulant_on_mixed_signed_zeros(order):
    # every row of +0 and -0 on 7 nodes: the values equal the rolled form's, and a sign differs only
    # where the kernel docstring says, at a -0 node whose left neighbour is +0
    rows = np.array(list(itertools.product([0.0, -0.0], repeat=7)))
    got = kernels.circulant_apply(WEIGHTS[order], rows)
    want = rolled_circulant(WEIGHTS[order], rows)
    assert np.array_equal(got, want)
    assert not np.signbit(want).any()
    flipped = np.signbit(got)
    assert np.all(np.signbit(rows)[flipped]) and not np.signbit(np.roll(rows, 1, axis=1))[flipped].any()


@pytest.mark.parametrize("corner", [1.0, 0.0])
def test_tridiag_matches_dense(corner, rng):
    n = 13
    q = rng.standard_normal(n)
    dense = dense_tridiag(n, corner)
    np.testing.assert_allclose(kernels.tridiag_diff_apply(q, corner), dense @ q, atol=1e-13)
    stages = rng.standard_normal((3, n))
    np.testing.assert_allclose(kernels.tridiag_diff_apply_batch(stages, corner), stages @ dense.T, atol=1e-13)


def test_tridiag_solve_roundtrip(rng):
    n = 40
    diag = 2.5 + rng.random(n)
    off = -0.7
    rhs = rng.standard_normal((3, n))
    sol = kernels.tridiag_solve_batch(diag, off, rhs)
    back = diag[None, :] * sol
    back[:, :-1] += off * sol[:, 1:]
    back[:, 1:] += off * sol[:, :-1]
    np.testing.assert_allclose(back, rhs, atol=1e-12)
