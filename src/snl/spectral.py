"""Graph Fourier transform and polynomial graph filtering.

``poly_filter_apply`` is the production path (iterated A-multiplication,
never materializing A^k); ``spectral_oracle`` recomputes the same filter
through an explicit eigendecomposition (``linalg.eigh``) and is the ground
truth the equivalence tests check against. The oracle is independent of
the production path because it takes the eigendecomposition route rather
than iterated products, whichever eigensolver computes it. Public entry
points validate their operands; the products after that use ``@``.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import FilterSpecError, PreconditionError, ShapeError
from .graph import AffinityMatrix


@dataclass
class FilterSpec:
    """Polynomial graph-filter coefficients.

    Exactly one of ``theta`` (scalar coefficients, shared across channels)
    or ``weights`` (one C_s x C_out matrix per order) is populated.
    """

    order: int
    basis: str = "monomial"
    theta: np.ndarray | None = None
    weights: list[np.ndarray] | None = field(default=None)

    def __post_init__(self):
        if self.order < 1:
            raise FilterSpecError(f"order must be >= 1, got {self.order}")
        if self.basis not in ("monomial", "chebyshev"):
            raise FilterSpecError(f"unknown basis {self.basis!r}")
        if (self.theta is None) == (self.weights is None):
            raise FilterSpecError("exactly one of theta/weights must be set")
        if self.theta is not None:
            self.theta = np.asarray(self.theta, dtype=np.float64).ravel()
            if self.theta.size < self.order:
                raise FilterSpecError(
                    f"order {self.order} exceeds coefficient count {self.theta.size}"
                )
        else:
            self.weights = [linalg.as_matrix(w) for w in self.weights]
            if len(self.weights) < self.order:
                raise FilterSpecError(
                    f"order {self.order} exceeds weight count {len(self.weights)}"
                )
            shapes = {w.shape for w in self.weights}
            if len(shapes) != 1:
                raise FilterSpecError(f"weight matrices differ in shape: {shapes}")


def _check_orthonormal(u: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    u = linalg.as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ShapeError(f"basis matrix is not square ({u.shape})")
    dev = float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))
    if dev > tol:
        raise PreconditionError(f"U^T U deviates from I by {dev:.3e} (> {tol:g})")
    return u


def _check_signal(u: np.ndarray, z) -> np.ndarray:
    z = linalg.as_matrix(z)
    if z.shape[0] != u.shape[0]:
        raise ShapeError(f"signal has {z.shape[0]} rows, basis has N = {u.shape[0]}")
    return z


def gft(u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Graph Fourier transform: project z onto the eigenbasis columns of U."""
    u = _check_orthonormal(u)
    return u.T @ _check_signal(u, z)


def inverse_gft(u: np.ndarray, z_hat: np.ndarray) -> np.ndarray:
    u = _check_orthonormal(u)
    return u @ _check_signal(u, z_hat)


def apply_generalized_filter(
    u: np.ndarray, omega_diag: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Diagonal spectral filter: U diag(omega) U^T z."""
    u = _check_orthonormal(u)
    z = _check_signal(u, z)
    omega = np.asarray(omega_diag, dtype=np.float64).ravel()
    if omega.size != u.shape[0]:
        raise ShapeError(f"omega length {omega.size} != N = {u.shape[0]}")
    return u @ (omega[:, None] * (u.T @ z))


def cheb_recursion(l_tilde: np.ndarray, k: int) -> list[np.ndarray]:
    """Chebyshev matrix polynomials T_0..T_{k-1} of the scaled Laplacian."""
    l_tilde = linalg.as_matrix(l_tilde)
    n, m = l_tilde.shape
    if n != m:
        raise ShapeError(f"cheb_recursion: matrix is not square ({l_tilde.shape})")
    if k < 1:
        raise FilterSpecError(f"cheb_recursion: k must be >= 1, got {k}")
    terms = [np.eye(n)]
    if k >= 2:
        terms.append(l_tilde.copy())
    for _ in range(2, k):
        terms.append(2.0 * (l_tilde @ terms[-1]) - terms[-2])
    return terms


def poly_filter_apply(a: AffinityMatrix, z: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """Monomial-basis polynomial filter of the node signal.

    Single-channel: sum_k theta_k A^k Z. Multi-channel: Z W_1 + A Z W_2 +
    sum_{k>=2} A^k Z W_{k+1}. Powers are applied as repeated A*(A^{k-1} Z)
    products, costing O(K N^2 C_s).
    """
    if spec.basis != "monomial":
        raise FilterSpecError("poly_filter_apply expects the monomial basis")
    if a.normalization not in ("random_walk", "symmetric"):
        raise PreconditionError("poly_filter_apply requires a normalized affinity")
    z = linalg.as_matrix(z)
    if a.values.shape[1] != z.shape[0]:
        raise ShapeError(f"filter: A {a.values.shape} vs Z {z.shape}")
    if spec.weights is not None and spec.weights[0].shape[0] != z.shape[1]:
        raise ShapeError(f"filter: Z {z.shape} vs weights {spec.weights[0].shape}")
    cur = z
    if spec.theta is not None:
        out = spec.theta[0] * z
        for k in range(1, spec.order):
            cur = a.values @ cur
            out = out + spec.theta[k] * cur
    else:
        out = z @ spec.weights[0]
        for k in range(1, spec.order):
            cur = a.values @ cur
            out = out + cur @ spec.weights[k]
    return out


def spectral_oracle(a: AffinityMatrix, z: np.ndarray, theta) -> np.ndarray:
    """Exact spectral evaluation of the monomial filter on a symmetric A.

    Eigendecomposes A, forms the response p(lambda) = sum_k theta_k
    lambda^k per eigenvalue, and returns U diag(p) U^T Z. Ground truth for
    ``poly_filter_apply``.
    """
    v = a.values
    if not np.array_equal(v, v.T):
        raise PreconditionError(
            "spectral_oracle requires an exactly symmetric affinity "
            "(non-symmetric operators have complex eigenvalues)"
        )
    z = linalg.as_matrix(z)
    theta = np.asarray(theta, dtype=np.float64).ravel()
    dec = linalg.eigh(v)
    lam = dec.eigenvalues
    response = np.full_like(lam, theta[0])
    power = np.ones_like(lam)
    for k in range(1, theta.size):
        power = power * lam
        response = response + theta[k] * power
    return apply_generalized_filter(dec.eigenvectors, response, z)
