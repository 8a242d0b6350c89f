import numpy as np
import pytest

from snl import linalg
from snl.errors import NumericError, ShapeError, SymmetryError


def test_as_matrix_promotes_vector():
    m = linalg.as_matrix([1.0, 2.0, 3.0])
    assert m.shape == (3, 1)
    assert m.dtype == np.float64


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ShapeError):
        linalg.as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(NumericError):
        linalg.as_matrix([[1.0, np.nan]])


def test_rel_error_zero_for_equal():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert linalg.rel_error(a, a) == 0.0
    assert linalg.rel_error(a, 2 * a) == pytest.approx(0.5)


# The eigh tests below keep the names of the Jacobi-solver tests they took
# over, as the "jacobi-reconstruction" verify group keeps its name.


def test_jacobi_identity():
    dec = linalg.eigh(np.eye(4))
    assert np.allclose(dec.eigenvalues, 1.0)
    assert np.allclose(dec.eigenvectors @ dec.eigenvectors.T, np.eye(4))


def test_jacobi_diagonal_sorted_ascending():
    dec = linalg.eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [-1.0, 2.0, 3.0])


def test_jacobi_reconstruction_and_against_numpy():
    rng = np.random.default_rng(1)
    for n in (2, 5, 16):
        s = rng.normal(size=(n, n))
        s = 0.5 * (s + s.T)
        dec = linalg.eigh(s)
        u, lam = dec.eigenvectors, dec.eigenvalues
        assert np.max(np.abs(u @ np.diag(lam) @ u.T - s)) < 1e-12 * max(1.0, np.abs(s).max())
        assert np.max(np.abs(u.T @ u - np.eye(n))) < 1e-12
        assert abs(np.sum(lam) - np.trace(s)) < 1e-12 * max(1.0, np.abs(s).max())
        # the eigenvalue-only LAPACK driver
        ref = np.linalg.eigvalsh(s)
        assert np.max(np.abs(lam - ref)) < 1e-10


def test_jacobi_sign_convention_and_determinism():
    rng = np.random.default_rng(2)
    s = rng.normal(size=(8, 8))
    s = 0.5 * (s + s.T)
    d1 = linalg.eigh(s)
    d2 = linalg.eigh(s)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
    for j in range(8):
        col = d1.eigenvectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_jacobi_rejects_asymmetric():
    with pytest.raises(SymmetryError):
        linalg.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_sign_fix_flips_lapack_vectors():
    # the loop form of the sign convention, applied to LAPACK's raw output
    rng = np.random.default_rng(5)
    s = rng.normal(size=(12, 12))
    s = 0.5 * (s + s.T)
    _, raw = np.linalg.eigh(s)
    want = raw.copy()
    flipped = 0
    for j in range(12):
        if raw[int(np.argmax(np.abs(raw[:, j]))), j] < 0.0:
            want[:, j] = -raw[:, j]
            flipped += 1
    assert flipped > 0  # the case must exercise the fix
    assert np.array_equal(linalg.eigh(s).eigenvectors, want)


def test_eigh_rejects_non_square():
    with pytest.raises(ShapeError):
        linalg.eigh(np.zeros((2, 3)))


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 7))
    path = tmp_path / "m.csv"
    linalg.save_csv(m, path)
    assert np.array_equal(linalg.load_csv(path), m)


def test_binary_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.normal(size=(5, 3))
    path = tmp_path / "m.mat"
    linalg.save_binary(m, path)
    assert np.array_equal(linalg.load_binary(path), m)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ShapeError):
        linalg.load_binary(path)


def test_load_matrix_autodetects(tmp_path):
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    linalg.save_csv(m, tmp_path / "a.csv")
    linalg.save_binary(m, tmp_path / "a.mat")
    assert np.array_equal(linalg.load_matrix(tmp_path / "a.csv"), m)
    assert np.array_equal(linalg.load_matrix(tmp_path / "a.mat"), m)


def test_load_csv_ragged(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ShapeError):
        linalg.load_csv(path)
