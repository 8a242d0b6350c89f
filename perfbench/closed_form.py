"""Dense NumPy evaluation of each block variant's closed form.

Written from the formulas of Table 1 of Zhu et al., "Unifying Nonlocal
Blocks for Neural Networks" (arXiv 2108.02451), not from ``snl.blocks``:
affinities are built in one expression and powers of A are materialized
with ``matrix_power``, a different route from the library's iterated
products. The benchmark compares every block output against it.
"""

import numpy as np


def affinity(a: np.ndarray, b: np.ndarray, kernel: str) -> np.ndarray:
    s = a @ b.T
    return s if kernel == "dot" else np.exp(s / np.sqrt(a.shape[1]))


def _random_walk(m: np.ndarray) -> np.ndarray:
    return m / m.sum(axis=1, keepdims=True)


def symmetric_normalized(m: np.ndarray) -> np.ndarray:
    """D^-1/2 (M + M^T)/2 D^-1/2 with D the row sums of the symmetrized M."""
    mh = 0.5 * (m + m.T)
    s = 1.0 / np.sqrt(mh.sum(axis=1))
    return s[:, None] * mh * s[None, :]


def block_output(variant: str, kernel: str, height: int, width: int,
                 x: np.ndarray, w_phi, w_psi, w_z, filters: dict) -> np.ndarray:
    """Y = X + F(A, Z) for one variant, evaluated densely."""
    phi, psi, z = x @ w_phi, x @ w_psi, x @ w_z
    n = x.shape[0]
    if variant == "CGNL":
        v = z.reshape(-1, 1, order="F")
        a = _random_walk(affinity(v, v, kernel))
        return x + (a @ v).reshape(n, z.shape[1], order="F") @ filters["w"]
    m = affinity(phi, psi, kernel)
    if variant == "CC":
        rows, cols = np.divmod(np.arange(n), width)
        mask = (rows[:, None] == rows[None, :]) | (cols[:, None] == cols[None, :])
        return x + (_random_walk(np.where(mask, m, 0.0)) @ x) @ filters["w"]
    if variant == "A2":
        return x + (m @ z) @ filters["w"]
    if variant in ("NL", "NS", "SNL_A2"):
        az = _random_walk(m) @ z
        if variant == "NL":
            return x + az @ filters["w"]
        if variant == "NS":
            return x + (az - z) @ filters["w"]
        return x + z @ filters["w1"] + az @ filters["w2"]
    a = symmetric_normalized(m)
    if variant == "SNL_A1":
        return x + (a @ z) @ filters["w"]
    if variant == "SNL":
        return x + z @ filters["w1"] + (a @ z) @ filters["w2"]
    if variant == "CHEB_K":
        return x + chebyshev_filter(a, z, filters)
    raise ValueError(f"no closed form for variant {variant!r}")


def chebyshev_filter(a: np.ndarray, z: np.ndarray, filters: dict) -> np.ndarray:
    """sum_k A^k Z W_{k+1}, with each A^k formed explicitly."""
    return sum(
        np.linalg.matrix_power(a, k) @ z @ filters[f"w{k + 1}"]
        for k in range(len(filters))
    )


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))
