"""Fully-connected graph construction from feature maps.

Affinity kernels, symmetrization, degree normalizations, the scaled
Laplacian, the criss-cross mask, and the (position, channel) flattening
used by the compact-generalized variant.
"""

from dataclasses import dataclass

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


@dataclass
class FeatureMap:
    """A spatial signal: (H*W) x C matrix in row-major grid order."""

    height: int
    width: int
    channels: int
    values: np.ndarray

    def __post_init__(self):
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

    def to_grid(self) -> np.ndarray:
        return self.values.reshape(self.height, self.width, self.channels)

    @classmethod
    def from_grid(cls, grid: np.ndarray) -> "FeatureMap":
        h, w, c = grid.shape
        return cls(h, w, c, grid.reshape(h * w, c))


@dataclass
class AffinityMatrix:
    """Pairwise-similarity matrix with kernel / normalization provenance.

    ``values`` is one (N, N) matrix or a (B, N, N) stack of B graphs; the
    functions below treat each graph of a stack alone. ``degrees`` is the
    degree vector (N,) or (B, N) a normalization divided by.
    """

    values: np.ndarray
    kernel: str
    normalization: str = "none"
    symmetrized: bool = False
    mask_applied: bool = False
    degrees: np.ndarray | None = None

    def __post_init__(self):
        if np.ndim(self.values) == 3:
            self.values = linalg.as_stack(self.values)
        else:
            self.values = linalg.as_matrix(self.values)
        if self.kernel not in KERNELS:
            raise PreconditionError(f"unknown kernel {self.kernel!r}")
        if self.normalization not in NORMALIZATIONS:
            raise PreconditionError(f"unknown normalization {self.normalization!r}")


def _derived(m: AffinityMatrix, **changes) -> AffinityMatrix:
    """``m`` with fields replaced, skipping re-validation: symmetrizing and
    normalizing an affinity that passed its checks keep it finite."""
    out = object.__new__(AffinityMatrix)
    out.__dict__.update(m.__dict__, **changes)
    return out


def kernel_matrix(phi: np.ndarray, psi: np.ndarray, kernel: str) -> np.ndarray:
    """Raw pairwise-similarity matrix M over the rows of phi and psi.

    dot: M = phi psi^T. exp_dot: M = exp(phi psi^T / sqrt(C_s)), the
    scaling keeping the exponent bounded for unit-scale features. Takes
    (N, C_s) matrices or (B, N, C_s) stacks, giving (N, N) or (B, N, N).
    """
    phi = np.asarray(phi, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    if phi.shape != psi.shape or phi.ndim not in (2, 3):
        raise ShapeError(f"affinity: phi {phi.shape} vs psi {psi.shape}")
    if not (np.isfinite(phi).all() and np.isfinite(psi).all()):
        raise NumericError("affinity: embedded features contain non-finite entries")
    s = phi @ psi.swapaxes(-1, -2)
    if kernel == "dot":
        return s
    if kernel == "exp_dot":
        # in place: every fresh (B, N, N) temporary is another pass over memory
        s /= np.sqrt(phi.shape[-1])
        m = float(s.max())
        if m > EXP_GUARD:
            raise AffinityOverflowError(
                f"exp_dot exponent {m:.3g} exceeds guard {EXP_GUARD:g}"
            )
        return np.exp(s, out=s)
    raise PreconditionError(f"unknown kernel {kernel!r}")


def compute_affinity(phi: np.ndarray, psi: np.ndarray, kernel: str) -> AffinityMatrix:
    """Unnormalized affinity matrix from two embedded feature maps."""
    return AffinityMatrix(values=kernel_matrix(phi, psi, kernel), kernel=kernel)


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
    return _derived(m, values=values, symmetrized=True)


def degrees(m: AffinityMatrix) -> np.ndarray:
    """Row-sum degree vector; validates the normalization domain."""
    v = m.values
    _check_square(v, "normalize")
    if v.min() < 0.0:
        raise KernelDomainError(
            "affinity has negative entries; degree normalization needs a "
            "nonnegative kernel (use exp_dot)"
        )
    d = v.sum(axis=-1)
    if d.min() <= 1e-12:
        raise DegenerateVertexError(
            f"vertex degree {float(d.min()):.3g} is not strictly positive"
        )
    return d


def normalize(m: AffinityMatrix, mode: str) -> AffinityMatrix:
    """Degree-normalize an affinity matrix.

    random_walk: D^-1 M (rows sum to 1). symmetric: D^-1/2 M_hat D^-1/2
    of a symmetrized input; the result is exactly symmetric with spectrum
    inside [-1, 1]. The result keeps the degree vector D in ``degrees``.
    """
    if mode == "symmetric" and not m.symmetrized:
        raise PreconditionError("symmetric normalization requires symmetrize()")
    if mode not in ("random_walk", "symmetric"):
        raise PreconditionError(f"unknown normalization mode {mode!r}")
    d = degrees(m)
    if mode == "random_walk":
        values = m.values / d[..., :, None]
    else:
        s = 1.0 / np.sqrt(d)
        values = s[..., :, None] * s[..., None, :]
        values *= m.values
    return _derived(m, values=values, normalization=mode, degrees=d)


def scaled_laplacian(a: AffinityMatrix) -> np.ndarray:
    """Scaled Laplacian -A, using L = I - A and the lambda_max = 2 bound."""
    if a.normalization not in ("random_walk", "symmetric"):
        raise PreconditionError("scaled_laplacian requires a normalized affinity")
    return -a.values


def crisscross_mask(h: int, w: int) -> np.ndarray:
    """N x N binary mask: 1 iff two grid positions share a row or column."""
    if h < 1 or w < 1:
        raise ShapeError(f"crisscross_mask: invalid grid ({h}, {w})")
    rows = np.repeat(np.arange(h), w)
    cols = np.tile(np.arange(w), h)
    same_row = rows[:, None] == rows[None, :]
    same_col = cols[:, None] == cols[None, :]
    return (same_row | same_col).astype(np.float64)


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
