"""Validated dense 64-bit matrices, a deterministic symmetric eigensolver
and matrix serialization.

Matrices are plain ``numpy.ndarray`` objects of dtype float64; ``as_matrix``
is the validating constructor used at API boundaries; past them the package
multiplies with NumPy's ``@``. ``eigh`` is LAPACK's symmetric eigensolver
with a fixed eigenvector sign. All operations here are pure functions and
safe for concurrent use.
"""

from dataclasses import dataclass
import struct

import numpy as np

from .errors import NumericError, ShapeError, SymmetryError

BINARY_MAGIC = b"SNLMAT01"


def as_matrix(values) -> np.ndarray:
    """Validate and return a 2-D float64 array (finite entries required)."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise NumericError("matrix contains non-finite entries")
    return a


def as_stack(values) -> np.ndarray:
    """Validate and return a (B, rows, cols) float64 stack of matrices
    (finite entries required); the batched counterpart of ``as_matrix``."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 3:
        raise ShapeError(f"expected a (B, rows, cols) stack, got ndim={a.ndim}")
    # min and max propagate NaN and reach any infinity, so two reductions
    # find a non-finite entry without a full-size boolean temporary
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise NumericError("matrix stack contains non-finite entries")
    return a


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius relative error ||a - b||_F / max(||b||_F, 1e-30)."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ShapeError(f"rel_error: shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30))


@dataclass
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(s: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix (LAPACK, via ``np.linalg.eigh``).

    Eigenvalues are ascending. Each eigenvector column is sign-fixed so its
    largest-magnitude entry is positive (the first such entry on a tie),
    making the output deterministic.
    """
    s = as_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise ShapeError(f"eigh: matrix is not square ({s.shape})")
    if float(np.max(np.abs(s - s.T))) > 1e-12:
        raise SymmetryError("eigh: input is not symmetric within 1e-12")
    vals, u = np.linalg.eigh(0.5 * (s + s.T))
    lead = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    u[:, lead < 0.0] *= -1.0
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=u)


# --- serialization -----------------------------------------------------------

def save_csv(m: np.ndarray, path) -> None:
    """Write a matrix as CSV, one row per line, 17 significant digits."""
    m = as_matrix(m)
    with open(path, "w") as fh:
        for row in m:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_csv(path) -> np.ndarray:
    with open(path) as fh:
        try:
            rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
        except ValueError as exc:
            raise ShapeError(f"{path}: non-numeric CSV cell ({exc})") from None
    if not rows:
        raise ShapeError(f"{path}: empty CSV matrix")
    if len({len(r) for r in rows}) != 1:
        raise ShapeError(f"{path}: ragged CSV rows")
    return as_matrix(np.array(rows))


def save_binary(m: np.ndarray, path) -> None:
    """Write the flat little-endian binary format (magic SNLMAT01)."""
    m = as_matrix(m)
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())


def load_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != BINARY_MAGIC:
            raise ShapeError(f"{path}: bad magic {magic!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise ShapeError(f"{path}: truncated header")
        rows, cols = struct.unpack("<QQ", header)
        payload = fh.read()
    if len(payload) < 8 * rows * cols:
        raise ShapeError(f"{path}: truncated payload")
    if len(payload) > 8 * rows * cols:
        raise ShapeError(f"{path}: {len(payload) - 8 * rows * cols} bytes after the payload")
    data = np.frombuffer(payload, dtype="<f8")
    return as_matrix(data.reshape(rows, cols).astype(np.float64))


def load_matrix(path) -> np.ndarray:
    """Load a matrix file, auto-detecting binary (by magic) vs CSV."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic == BINARY_MAGIC:
        return load_binary(path)
    return load_csv(path)
