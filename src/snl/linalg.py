"""Dense 64-bit matrix arithmetic and a cyclic Jacobi eigensolver.

Matrices are plain ``numpy.ndarray`` objects of dtype float64; ``as_matrix``
is the validating constructor used at API boundaries. All operations here
are pure functions and safe for concurrent use.
"""

from dataclasses import dataclass
import struct

import numpy as np

from .errors import ConvergenceError, NumericError, ShapeError, SymmetryError

BINARY_MAGIC = b"SNLMAT01"

# Stopping criterion for the Jacobi sweep loop: off-diagonal Frobenius norm.
JACOBI_OFF_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


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


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a fixed left-to-right summation order per cell.

    Each output entry accumulates a[i,k]*b[k,j] for k = 0..K-1 in that
    order, so results are bit-identical to a naive triple loop.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ ({a.shape} x {b.shape})")
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


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


def _offdiag_norm(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rounds of disjoint index pairs (p < q) that together cover every
    pair once: the circle method, with a dummy index for odd n."""
    m = n + n % 2
    idx = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = sorted(
            (min(i, j), max(i, j))
            for i, j in zip(idx[: m // 2], reversed(idx[m // 2 :]))
            if max(i, j) < n
        )
        if pairs:
            p, q = np.array(pairs).T
            rounds.append((p, q))
        idx = [idx[0], idx[-1]] + idx[1:-1]
    return rounds


def jacobi_eigh(s: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Each sweep visits every off-diagonal pair once, in rounds of disjoint
    pairs (round-robin order); the rotations of one round act on disjoint
    rows and columns, so they are applied together. Sweeps run until the
    off-diagonal Frobenius norm drops below 1e-12 or 100 sweeps elapse
    (then ``ConvergenceError``). Eigenvalues are sorted ascending; each
    eigenvector column is sign-fixed so its largest-magnitude entry is
    positive, making the output deterministic.
    """
    s = as_matrix(s)
    n, m = s.shape
    if n != m:
        raise ShapeError(f"jacobi_eigh: matrix is not square ({s.shape})")
    if float(np.max(np.abs(s - s.T))) > 1e-12:
        raise SymmetryError("jacobi_eigh: input is not symmetric within 1e-12")

    a = 0.5 * (s + s.T)
    u = np.eye(n)
    rounds = _round_robin(n)
    converged = _offdiag_norm(a) < JACOBI_OFF_TOL
    for _ in range(JACOBI_MAX_SWEEPS):
        if converged:
            break
        for p, q in rounds:
            apq = a[p, q]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                # tau**2 overflows past 1e150; there t = 1/(2 tau)
                t = np.where(
                    np.abs(tau) > 1e150,
                    0.5 / tau,
                    np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau)),
                )
            t = np.where(apq == 0.0, 0.0, t)
            c = 1.0 / np.sqrt(1.0 + t * t)
            sn = t * c
            col_p, col_q = a[:, p], a[:, q]
            a[:, p] = c * col_p - sn * col_q
            a[:, q] = sn * col_p + c * col_q
            row_p, row_q = a[p, :], a[q, :]
            a[p, :] = c[:, None] * row_p - sn[:, None] * row_q
            a[q, :] = sn[:, None] * row_p + c[:, None] * row_q
            a[p, q] = 0.0
            a[q, p] = 0.0
            u_p, u_q = u[:, p], u[:, q]
            u[:, p] = c * u_p - sn * u_q
            u[:, q] = sn * u_p + c * u_q
        converged = _offdiag_norm(a) < JACOBI_OFF_TOL
    if not converged:
        raise ConvergenceError(
            f"jacobi_eigh: off-diagonal norm {_offdiag_norm(a):.3e} after "
            f"{JACOBI_MAX_SWEEPS} sweeps"
        )

    vals = np.diag(a).copy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    u = u[:, order]
    for j in range(n):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0.0:
            u[:, j] = -u[:, j]
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
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
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
        rows, cols = struct.unpack("<QQ", fh.read(16))
        data = np.frombuffer(fh.read(8 * rows * cols), dtype="<f8")
    if data.size != rows * cols:
        raise ShapeError(f"{path}: truncated payload")
    return as_matrix(data.reshape(rows, cols).astype(np.float64))


def load_matrix(path) -> np.ndarray:
    """Load a matrix file, auto-detecting binary (by magic) vs CSV."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic == BINARY_MAGIC:
        return load_binary(path)
    return load_csv(path)
