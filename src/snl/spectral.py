"""Graph Fourier transform and polynomial graph filtering.

``_polynomial`` evaluates sum_k A^k z w_k by iterated products, never
forming A^k; ``poly_filter_apply`` (scalar coefficients),
``blocks.generalized_forward`` (one weight matrix per power) and the block
forward all call it. ``spectral_oracle`` recomputes a filter through an
explicit eigendecomposition (LAPACK's, ``np.linalg.eigh``), independent of
the iterated products, and is the ground truth the equivalence tests check
against. Public entry points validate their operands once, where they
enter; the products after that use ``@``.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import FilterSpecError, NumericError, PreconditionError, ShapeError
from .graph import AffinityMatrix


def _coefficients(theta) -> np.ndarray:
    """theta as a flat float64 vector of finite filter coefficients."""
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if not np.all(np.isfinite(theta)):
        raise NumericError(f"filter coefficients must be finite, got {theta}")
    return theta


@dataclass
class FilterSpec:
    """Scalar polynomial graph-filter coefficients theta_0..theta_{order-1},
    shared across channels."""

    order: int
    theta: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise FilterSpecError(f"order must be >= 1, got {self.order}")
        self.theta = _coefficients(self.theta)
        if self.theta.size < self.order:
            raise FilterSpecError(
                f"order {self.order} exceeds coefficient count {self.theta.size}"
            )


# largest |U^T U - I| entry an eigenbasis may have
_ORTHONORMAL_TOL = 1e-9


def _check_orthonormal(u: np.ndarray) -> np.ndarray:
    u = linalg.as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ShapeError(f"basis matrix is not square ({u.shape})")
    dev = float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))
    if dev > _ORTHONORMAL_TOL:
        raise PreconditionError(
            f"U^T U deviates from I by {dev:.3e} (> {_ORTHONORMAL_TOL:g})")
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


def poly_filter_apply(a: AffinityMatrix, z: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """Monomial-basis polynomial filter sum_k theta_k A^k Z of the node
    signal. Powers are applied as repeated A*(A^{k-1} Z) products, costing
    O(K N^2 C_s); ``blocks.generalized_forward`` takes weight matrices.
    """
    if a.normalization not in ("random_walk", "symmetric"):
        raise PreconditionError("poly_filter_apply requires a normalized affinity")
    z = linalg.as_matrix(z)
    if a.values.shape[1] != z.shape[0]:
        raise ShapeError(f"filter: A {a.values.shape} vs Z {z.shape}")
    return _polynomial(a.values, z, list(enumerate(spec.theta[: spec.order])))[0]


def _polynomial(a: np.ndarray, z: np.ndarray, terms, read=None):
    """sum_k read(A^k z) w_k over the (k, w_k) terms, and the powers
    [z, A z, ..., A^K z]: one product with A per power, so A^k is never
    formed and the cost is linear in K. w_k is a matrix applied on the
    right, or a scalar; ``read`` maps a power to the signal the weights act
    on (default: the power). A and z may be (B, ...) stacks, and A may be
    any operator that applies itself with ``@``, such as the block core's
    ``blocks._Affinity``."""
    powers = [z]
    for _ in range(max(k for k, _ in terms)):
        powers.append(a @ powers[-1])
    out = None
    for k, w in terms:
        p = powers[k] if read is None else read(powers[k])
        term = p @ w if isinstance(w, np.ndarray) else w * p
        out = term if out is None else out + term
    return out, powers


def spectral_oracle(a: AffinityMatrix, z: np.ndarray, theta) -> np.ndarray:
    """Exact spectral evaluation of the monomial filter on a symmetric A.

    Eigendecomposes A with LAPACK (``np.linalg.eigh``), forms the response
    p(lambda) = sum_k theta_k lambda^k per eigenvalue, and returns
    U diag(p) U^T Z. Ground truth for ``poly_filter_apply``. Its operands
    are validated once, here: U diag(p) U^T Z does not depend on an
    eigenvector's sign, so LAPACK's basis needs no sign fix and no checks.
    """
    v = a.values
    if v.ndim != 2 or not np.array_equal(v, v.T):
        raise PreconditionError(
            "spectral_oracle requires one exactly symmetric (N, N) affinity "
            "(non-symmetric operators have complex eigenvalues)"
        )
    z = linalg.as_matrix(z)
    if z.shape[0] != v.shape[0]:
        raise ShapeError(f"signal has {z.shape[0]} rows, A has N = {v.shape[0]}")
    theta = _coefficients(theta)
    eigenvalues, u = np.linalg.eigh(v)
    response = np.polynomial.polynomial.polyval(eigenvalues, theta)
    return u @ (response[:, None] * (u.T @ z))
