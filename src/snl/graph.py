"""Fully-connected graph construction from feature maps.

Affinity kernels, symmetrization, degree normalizations, the criss-cross
mask, and the (position, channel) flattening vec(Z) that defines the
compact-generalized variant's signal; the block core, which holds Z
channel-first as Z^T, takes vec(Z) as a free reshape of it.
"""

from dataclasses import dataclass
import functools

import numpy as np

from . import linalg
from .errors import (
    AffinityOverflowError,
    DegenerateVertexError,
    KernelDomainError,
    NumericError,
    PreconditionError,
    ShapeError,
)

KERNELS = ("dot", "exp_dot")
NORMALIZATIONS = ("none", "random_walk", "symmetric")

# exp_dot overflow guard: exponent after 1/sqrt(C_s) scaling
EXP_GUARD = 700.0

# A (V, V) pass is memory-bound at large V: on a 2-core x86-64 VM (2 MiB
# of L2 per core) an in-place multiply of two 8 MiB arrays took 0.8 ms
# against 1.3 ms for an in-place exp of one. So the exp_dot kernel and
# the block backward (``blocks``) run in row panels of at most this many
# bytes when one matrix holds at least two of them (V >= 256), and work
# on each panel while it is still in cache. At V = 1024 (B = 1, 32 rows a
# panel) the blocks_n1024 mix ran at 0.891-0.924x of whole (V, V) passes
# in three runs of ``scripts/block_pairs.py`` (58 of 60 rounds won,
# BENCH_19.json). Smaller matrices stay whole: cut into row halves, a
# B = 32, V = 64 SGD step ran 1.10-1.11x slower, and at V = 192-196
# panels showed no steady gain (0.80-1.12x over runs).
PANEL_BYTES = 256 * 1024
# A stack of more than this many matrices stays whole as well: each panel
# takes one small product per matrix, and past 32 of them that dispatch
# outweighs the cache (``block_pairs.py --stacks``, two runs: 1.08-1.13x
# at B = 64, V = 256, and 1.57-1.65x at B = 126, V = 182, one row a
# panel). Stacks of 2-32 matrices of V = 256-1024 ran at 0.70-1.07x,
# most below 1.
PANEL_MATRICES = 32


def _check_grid(height, width) -> None:
    """Raise ``ShapeError`` unless height and width are integers of at
    least 1; bool is an int subclass but no grid side."""
    for side in (height, width):
        if not isinstance(side, (int, np.integer)) or isinstance(side, bool):
            raise ShapeError(f"grid sides must be integers, got {height!r}x{width!r}")
    if height < 1 or width < 1:
        raise ShapeError(f"a {height}x{width} grid has no positions")


@dataclass
class FeatureMap:
    """A spatial signal: (H*W) x C matrix in row-major grid order."""

    height: int
    width: int
    channels: int
    values: np.ndarray

    def __post_init__(self):
        _check_grid(self.height, self.width)
        self.values = linalg.as_matrix(self.values)
        n = self.height * self.width
        if self.values.shape != (n, self.channels):
            raise ShapeError(
                f"feature map values {self.values.shape} do not match "
                f"H*W x C = ({n}, {self.channels})"
            )

    @property
    def n_positions(self) -> int:
        return self.height * self.width


@dataclass
class AffinityMatrix:
    """Pairwise-similarity matrix with its normalization, as the public
    graph API passes it.

    ``values`` is one (N, N) matrix or a (B, N, N) stack of B graphs; the
    functions below treat each graph of a stack alone. The constructor
    validates ``values``; the block core carries plain arrays.
    """

    values: np.ndarray
    normalization: str = "none"

    def __post_init__(self):
        if np.ndim(self.values) == 3:
            self.values = linalg.as_stack(self.values)
        else:
            self.values = linalg.as_matrix(self.values)
        if self.normalization not in NORMALIZATIONS:
            raise PreconditionError(f"unknown normalization {self.normalization!r}")


def kernel_matrix(phi: np.ndarray, psi: np.ndarray, kernel: str) -> np.ndarray:
    """Raw pairwise-similarity matrix M over the rows of phi and psi.

    dot: M = phi psi^T. exp_dot: M = exp((phi / sqrt(C_s)) psi^T); scaling
    phi, not M, keeps the exponent bounded for unit-scale features. Takes
    (N, C_s) matrices or (B, N, C_s) stacks, giving (N, N) or (B, N, N).

    exp_dot builds M in row panels (``_panels``) when one (N, N) matrix
    holds at least two ``PANEL_BYTES`` (256 KiB, N >= 256) and the stack at
    most ``PANEL_MATRICES`` (32): each panel's product is written straight
    into M, checked against the guard and exponentiated in place while it
    is still in cache. Any other stack is one panel: one product, one max
    and one exp. The panels give the one-product kernel bit for bit, and
    the guard's message names the largest exponent of the whole stack.
    Raises ``ShapeError`` for an empty stack or embeddings with no rows.
    """
    phi = np.asarray(phi, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    if phi.shape != psi.shape or phi.ndim not in (2, 3):
        raise ShapeError(f"affinity: phi {phi.shape} vs psi {psi.shape}")
    if 0 in phi.shape[:-1]:
        raise ShapeError(f"affinity: embeddings {phi.shape} are empty")
    if not (np.isfinite(phi).all() and np.isfinite(psi).all()):
        raise NumericError("affinity: embedded features contain non-finite entries")
    psi_t = psi.swapaxes(-1, -2)
    if kernel == "dot":
        return phi @ psi_t
    if kernel != "exp_dot":
        raise PreconditionError(f"unknown kernel {kernel!r}")
    phi = phi / np.sqrt(phi.shape[-1])
    n = phi.shape[-2]
    m = np.empty(phi.shape[:-1] + (n,))
    for rows in _panels(m.size // (n * n), n):
        s = np.matmul(phi[..., rows, :], psi_t, out=m[..., rows, :])
        top = float(s.max())
        if top > EXP_GUARD:
            # the rows past this panel are not built yet
            top = float((phi[..., rows.stop:, :] @ psi_t).max(initial=top))
            raise AffinityOverflowError(
                f"exp_dot exponent {top:.3g} exceeds guard {EXP_GUARD:g}"
            )
        # in place: every fresh (B, N, N) temporary is another pass over memory
        np.exp(s, out=s)
    return m


def _panels(batch: int, n: int) -> list[slice]:
    """Row ranges of a (batch, N, N) stack: the whole stack when one matrix
    holds less than two ``PANEL_BYTES`` or the stack more than
    ``PANEL_MATRICES`` matrices, else panels of as many rows of every
    matrix as fit in ``PANEL_BYTES`` (at least one row)."""
    if 8 * n * n < 2 * PANEL_BYTES or batch > PANEL_MATRICES:
        return [slice(0, n)]
    rows = max(1, PANEL_BYTES // (8 * batch * n))
    return [slice(i, i + rows) for i in range(0, n, rows)]


def compute_affinity(phi: np.ndarray, psi: np.ndarray, kernel: str) -> AffinityMatrix:
    """Unnormalized affinity matrix from two embedded feature maps."""
    return AffinityMatrix(values=kernel_matrix(phi, psi, kernel))


def _check_square(v: np.ndarray, what: str) -> None:
    if v.shape[-1] != v.shape[-2]:
        raise ShapeError(f"{what}: matrix is not square ({v.shape})")


def symmetrize(m: AffinityMatrix) -> AffinityMatrix:
    """(M + M^T) / 2; output equals its own transpose bit-exactly."""
    v = m.values
    _check_square(v, "symmetrize")
    if m.normalization != "none":
        raise PreconditionError("symmetrize expects an unnormalized affinity")
    values = v + v.swapaxes(-1, -2)
    values *= 0.5
    return AffinityMatrix(values)


def degrees(values: np.ndarray) -> np.ndarray:
    """Row-sum degree vector of an affinity array; validates the
    normalization domain."""
    _check_square(values, "normalize")
    if values.size == 0:
        raise ShapeError(f"degrees: affinity {values.shape} is empty")
    _check_nonnegative(values)
    return _check_degrees(values.sum(axis=-1))


def _check_nonnegative(values: np.ndarray) -> None:
    """Degree normalization's domain: no negative affinity entry."""
    if values.min() < 0.0:
        raise KernelDomainError(
            "affinity has negative entries; degree normalization needs a "
            "nonnegative kernel (use exp_dot)"
        )


def _check_degrees(d: np.ndarray) -> np.ndarray:
    """d, if every degree is strictly positive (above 1e-12)."""
    if d.min() <= 1e-12:
        raise DegenerateVertexError(
            f"vertex degree {float(d.min()):.3g} is not strictly positive"
        )
    return d


def normalize(m: AffinityMatrix, mode: str) -> AffinityMatrix:
    """Degree-normalize an affinity matrix.

    random_walk: D^-1 M (rows sum to 1). symmetric: D^-1/2 M_hat D^-1/2
    of an exactly symmetric input, such as ``symmetrize`` gives; the
    result is exactly symmetric with spectrum inside [-1, 1]: (s_i s_j)
    M_ij with s = D^-1/2, and s s^T formed 64 rows at a time, not as a
    fresh (N, N) array (row then column scaling would round differently
    and break symmetry).
    """
    v = m.values
    if mode == "symmetric" and not np.array_equal(v, v.swapaxes(-1, -2)):
        raise PreconditionError("symmetric normalization requires symmetrize()")
    if mode not in ("random_walk", "symmetric"):
        raise PreconditionError(f"unknown normalization mode {mode!r}")
    values = v.copy()
    d = degrees(values)
    if mode == "random_walk":
        values /= d[..., :, None]
    else:
        s = 1.0 / np.sqrt(d)
        for i in range(0, values.shape[-2], 64):
            values[..., i:i + 64, :] *= s[..., i:i + 64, None] * s[..., None, :]
    return AffinityMatrix(values, mode)


def crisscross_mask(h: int, w: int) -> np.ndarray:
    """N x N binary mask: 1 iff two grid positions share a row or column."""
    return _crisscross(h, w).astype(np.float64)


@functools.lru_cache(maxsize=4)
def _crisscross(h: int, w: int) -> np.ndarray:
    """The criss-cross mask as a read-only bool array, built once per grid
    (about 4 ms at 32x32 on a 2-core x86-64 VM); it holds N^2 bytes."""
    if h < 1 or w < 1:
        raise ShapeError(f"crisscross_mask: invalid grid ({h}, {w})")
    rows = np.repeat(np.arange(h), w)
    cols = np.tile(np.arange(w), h)
    mask = (rows[:, None] == rows[None, :]) | (cols[:, None] == cols[None, :])
    mask.flags.writeable = False
    return mask


def flatten_spatial_channel(z: np.ndarray) -> np.ndarray:
    """Column-major vectorization: entry (i + j*N) = Z[i, j], as a column.

    Takes an (N, C) matrix or a (B, N, C) stack, giving (N*C, 1) or
    (B, N*C, 1).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    return z.swapaxes(-1, -2).reshape(z.shape[:-2] + (-1, 1))


def unflatten_spatial_channel(v: np.ndarray, n: int, c: int) -> np.ndarray:
    """Inverse of ``flatten_spatial_channel``."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        v = v[:, None]
    if v.shape[-2] * v.shape[-1] != n * c:
        raise ShapeError(f"unflatten: {v.shape[-2] * v.shape[-1]} values for {n}x{c}")
    return v.reshape(v.shape[:-2] + (c, n)).swapaxes(-1, -2)


def heatmap_image(row: np.ndarray, h: int, w: int) -> np.ndarray:
    """One affinity row as an 8-bit grayscale grid, min-max normalized."""
    row = np.asarray(row, dtype=np.float64).ravel()
    if row.size != h * w:
        raise ShapeError(f"heatmap: row of length {row.size} for {h}x{w} grid")
    lo, hi = float(np.min(row)), float(np.max(row))
    if hi - lo < 1e-300:
        scaled = np.zeros_like(row)
    else:
        scaled = (row - lo) / (hi - lo)
    return np.clip(np.rint(scaled * 255.0), 0, 255).astype(np.uint8).reshape(h, w)


def write_pgm(image: np.ndarray, path) -> None:
    """Write an 8-bit grayscale image as binary PGM (P5)."""
    image = np.asarray(image, dtype=np.uint8)
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
