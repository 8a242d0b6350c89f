"""Named invariant suites bundling the package's mathematical guarantees.

Each group re-derives an expected result through an independent route
(explicit eigendecomposition, enumeration, closed forms) and checks the
production path against it. The CLI ``verify`` subcommand runs them all.
The block groups draw raw arrays, in the order ``blocks.random_params``
draws them, and run each group's samples (per variant, where the group
spans variants) as one stack through the block core's private entry
``blocks._forward_stack``, with one set of unvalidated parameters per
sample; the closed forms they check against stay per sample. A
non-finite block output raises ``NumericError``, as
``block_forward_batch`` does. No group calls the B=1 ``block_forward``,
so a run leaves no tape held. The production entry, with validated
``BlockParams`` shared across a batch, is checked against single samples
and Table 1 in the tests (``test_batched_core_matches_single_samples``,
``test_criterion_4_unification_table``).
"""

import numpy as np

from . import blocks, graph, linalg, spectral
from .blocks import BlockConfig
from .errors import NumericError
from .graph import AffinityMatrix, FeatureMap


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _random_affinity(rng, n: int, mode: str, c_s: int = 3) -> AffinityMatrix:
    phi = rng.normal(size=(n, c_s))
    psi = rng.normal(size=(n, c_s))
    m = graph.compute_affinity(phi, psi, "exp_dot")
    if mode == "symmetric":
        return graph.normalize(graph.symmetrize(m), "symmetric")
    return graph.normalize(m, mode)


def _random_block_inputs(rng, cfg: BlockConfig, height=3, width=3):
    """One draw of a block's (N, C_in) input and raw parameter arrays: the
    input first, then the arrays of ``blocks.random_params`` in its order."""
    return rng.normal(size=(height * width, cfg.c_in)), blocks._random_arrays(cfg, rng)


def _stacked(draws) -> tuple[np.ndarray, "blocks._ParamStack"]:
    """The inputs and parameters of (x, arrays) draws as (b, ...) stacks,
    which the block core takes in one call; nothing is validated per draw."""
    xs, arrays = zip(*draws)
    w_phi, w_psi, w_z, filters = zip(*arrays)
    return np.stack(xs), blocks._ParamStack(
        np.stack(w_phi), np.stack(w_psi), np.stack(w_z),
        {role: np.stack([f[role] for f in filters]) for role in filters[0]})


def _finite(y: np.ndarray) -> np.ndarray:
    """y, once checked finite: a NaN would drop out of the max of the
    errors that a group compares with its bound."""
    if not np.isfinite(y).all():
        raise NumericError("block output contains non-finite entries")
    return y


def _forward(xs, height: int, width: int, cfg: BlockConfig, params) -> np.ndarray:
    """The block outputs of a stack of inputs, one set of parameters per
    sample, as one core call."""
    return _finite(blocks._forward_stack(xs, height, width, cfg, params)[0])


def _sample(params: "blocks._ParamStack", i: int) -> "blocks._ParamStack":
    """Sample i's parameter matrices of a parameter stack."""
    return blocks._ParamStack(params.w_phi[i], params.w_psi[i], params.w_z[i],
                              {role: w[i] for role, w in params.filters.items()})


def check_matmul_associativity():
    rng = _rng(11)
    worst = 0.0
    for n in (4, 16, 64):
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        c = rng.normal(size=(n, n))
        left = (a @ b) @ c
        right = a @ (b @ c)
        worst = max(worst, linalg.rel_error(left, right))
    return worst <= 1e-12, f"max rel error {worst:.3e}"


def check_jacobi_reconstruction():
    rng = _rng(12)
    worst = 0.0
    for n in (4, 8, 16):
        s = rng.normal(size=(n, n))
        s = 0.5 * (s + s.T)
        dec = linalg.eigh(s)
        u, lam = dec.eigenvectors, dec.eigenvalues
        recon = u @ np.diag(lam) @ u.T
        worst = max(worst, linalg.rel_error(recon, s))
        ortho = float(np.max(np.abs(u.T @ u - np.eye(n))))
        trace_err = abs(np.sum(lam) - np.trace(s)) / max(abs(np.trace(s)), 1e-30)
        if ortho > 1e-10 or trace_err > 1e-9:
            return False, f"orthonormality {ortho:.3e}, trace rel {trace_err:.3e}"
    return worst <= 1e-10, f"max reconstruction rel error {worst:.3e}"


def check_row_stochastic():
    rng = _rng(13)
    worst = 0.0
    for n in (6, 20):
        a = _random_affinity(rng, n, "random_walk")
        ones = np.ones((n, 1))
        worst = max(worst, float(np.max(np.abs(a.values @ ones - ones))))
    return worst <= 1e-10, f"max |A 1 - 1| = {worst:.3e}"


def check_expdot_positive():
    rng = _rng(14)
    lo = np.inf
    for _ in range(5):
        m = graph.compute_affinity(
            rng.normal(size=(10, 3)), rng.normal(size=(10, 3)), "exp_dot"
        )
        lo = min(lo, float(np.min(m.values)))
    return lo > 0.0, f"min affinity entry {lo:.3e}"


def check_rw_sym_spectrum():
    rng = _rng(15)
    worst = 0.0
    for n in (8, 16, 32):
        phi = rng.normal(size=(n, 3))
        m = graph.symmetrize(graph.compute_affinity(phi, rng.normal(size=(n, 3)), "exp_dot"))
        sym = graph.normalize(m, "symmetric")
        rw = graph.normalize(m, "random_walk")
        lam_sym = linalg.eigh(sym.values).eigenvalues
        lam_rw = np.sort(np.linalg.eigvals(rw.values).real)
        worst = max(worst, float(np.max(np.abs(lam_sym - lam_rw))))
    return worst <= 1e-8, f"max eigenvalue gap {worst:.3e}"


def check_crisscross_rowsums():
    for h, w in ((1, 5), (2, 2), (3, 4), (5, 7)):
        c = graph.crisscross_mask(h, w)
        if not np.array_equal(c, c.T):
            return False, f"mask not symmetric for ({h},{w})"
        if not np.all(np.diag(c) == 1.0):
            return False, f"diagonal not all ones for ({h},{w})"
        if not np.all(c.sum(axis=1) == h + w - 1):
            return False, f"row sums != h+w-1 for ({h},{w})"
    return True, "row sums equal h+w-1 on all tested grids"


def check_laplacian_bound():
    rng = _rng(16)
    lo, hi = np.inf, -np.inf
    for n in (8, 16, 24):
        a = _random_affinity(rng, n, "symmetric")
        lam = linalg.eigh(np.eye(n) - a.values).eigenvalues
        lo = min(lo, float(lam[0]))
        hi = max(hi, float(lam[-1]))
    ok = lo >= -1e-9 and hi <= 2.0 + 1e-9
    return ok, f"eigenvalues of I - A in [{lo:.3e}, {hi:.6f}]"


def check_gft_roundtrip():
    rng = _rng(17)
    n = 16
    a = _random_affinity(rng, n, "symmetric")
    u = linalg.eigh(a.values).eigenvectors
    z = rng.normal(size=(n, 1))
    z_hat = spectral.gft(u, z)
    back = spectral.inverse_gft(u, z_hat)
    err = linalg.rel_error(back, z)
    norm_gap = abs(float(np.linalg.norm(z_hat)) - float(np.linalg.norm(z)))
    ok = err <= 1e-12 and norm_gap <= 1e-10
    return ok, f"roundtrip rel {err:.3e}, norm gap {norm_gap:.3e}"


def check_spectral_equivalence():
    rng = _rng(18)
    worst = 0.0
    for n, k in ((8, 3), (16, 6), (32, 4)):
        a = _random_affinity(rng, n, "symmetric")
        z = rng.normal(size=(n, 2))
        theta = rng.normal(size=k)
        spec = spectral.FilterSpec(order=k, theta=theta)
        fast = spectral.poly_filter_apply(a, z, spec)
        exact = spectral.spectral_oracle(a, z, theta)
        worst = max(worst, linalg.rel_error(fast, exact))
    return worst <= 1e-8, f"max rel error vs spectral oracle {worst:.3e}"


def check_chebyshev_basis_change():
    rng = _rng(19)
    n, k = 12, 5
    a = _random_affinity(rng, n, "symmetric")
    z = rng.normal(size=(n, 2))
    theta_hat = rng.normal(size=k)
    # sum_k theta_hat_k T_k(L~) z with the scaled Laplacian L~ = -A, on the
    # spectrum of A: U diag(sum_k theta_hat_k T_k(-lambda)) U^T z
    dec = linalg.eigh(a.values)
    response = np.polynomial.chebyshev.chebval(-dec.eigenvalues, theta_hat)
    cheb_out = spectral.apply_generalized_filter(dec.eigenvectors, response, z)
    # same polynomial in the monomial basis of A = -L~
    theta_lt = np.polynomial.chebyshev.cheb2poly(theta_hat)
    theta_a = theta_lt * (-1.0) ** np.arange(k)
    mono_out = spectral.poly_filter_apply(a, z, spectral.FilterSpec(order=k, theta=theta_a))
    err = linalg.rel_error(cheb_out, mono_out)
    return err <= 1e-8, f"basis change rel error {err:.3e}"


def check_filter_automorphism():
    rng = _rng(20)
    n = 10
    phi = rng.normal(size=(n, 3))
    phi[7] = phi[2]  # duplicate features -> swapping 2 and 7 fixes A
    m = graph.symmetrize(graph.compute_affinity(phi, phi, "exp_dot"))
    a = graph.normalize(m, "symmetric")
    perm = np.arange(n)
    perm[2], perm[7] = 7, 2
    p = np.eye(n)[perm]
    if linalg.rel_error(p @ a.values @ p.T, a.values) > 1e-12:
        return False, "constructed permutation is not an automorphism"
    z = rng.normal(size=(n, 2))
    spec = spectral.FilterSpec(order=4, theta=rng.normal(size=4))
    lhs = spectral.poly_filter_apply(a, p @ z, spec)
    rhs = p @ spectral.poly_filter_apply(a, z, spec)
    err = float(np.max(np.abs(lhs - rhs)))
    return err <= 1e-10, f"max commutation error {err:.3e}"


def _table1_affinity(cfg: BlockConfig, x: FeatureMap, params) -> np.ndarray:
    """The dense affinity A of a block as Table 1 of Zhu et al., "Unifying
    Nonlocal Blocks for Neural Networks" (arXiv 2108.02451) writes it: over
    the N positions, or for CGNL over the N*C_s entries of vec(Z). It reads
    nothing from the blocks variant table. It must stay analytic (drop no
    imaginary part): complex inputs give the complex-step derivative."""
    xv, n = x.values, x.n_positions
    phi, psi, z = xv @ params.w_phi, xv @ params.w_psi, xv @ params.w_z
    kernel = ((lambda p, q: p @ q.T) if cfg.kernel == "dot"
              else lambda p, q: np.exp(p @ q.T / np.sqrt(p.shape[1])))
    walk = lambda m: m / m.sum(axis=1, keepdims=True)

    def sym():
        m = kernel(phi, psi)
        m = (m + m.T) / 2.0
        return m / np.sqrt(np.outer(m.sum(axis=1), m.sum(axis=1)))

    row, col = np.divmod(np.arange(n), x.width)
    cross = (row[:, None] == row) | (col[:, None] == col)
    vec = z.T.reshape(-1, 1)  # CGNL: a vertex per (position, channel)
    a = {
        "NL": lambda: walk(kernel(phi, psi)),
        "NS": lambda: walk(kernel(phi, psi)),
        "A2": lambda: kernel(phi, psi),
        "CGNL": lambda: walk(kernel(vec, vec)),
        "CC": lambda: walk(np.where(cross, kernel(phi, psi), 0.0)),
        "SNL": sym,
        "SNL_A1": sym,
        "SNL_A2": lambda: walk(kernel(phi, psi)),
        "CHEB_K": sym,
    }
    return a[cfg.variant]()


def _table1_filter(cfg: BlockConfig, a: np.ndarray, x: FeatureMap, params) -> np.ndarray:
    """Y = X + F(A, Z) of a block as Table 1 writes it, for a given dense A,
    forming each power of A with ``matrix_power``. Analytic in x and the
    parameters, like ``_table1_affinity``; a real A held fixed gives the
    complex-step derivative of a block whose affinity is frozen."""
    xv, n, w = x.values, x.n_positions, params.filters
    z = xv @ params.w_z
    vec = z.T.reshape(-1, 1)
    f = {
        "NL": lambda: a @ z @ w["w"],
        "NS": lambda: (a - np.eye(n)) @ z @ w["w"],
        "A2": lambda: a @ z @ w["w"],
        "CGNL": lambda: (a @ vec).reshape(-1, n).T @ w["w"],
        "CC": lambda: a @ xv @ w["w"],
        "SNL": lambda: z @ w["w1"] + a @ z @ w["w2"],
        "SNL_A1": lambda: a @ z @ w["w"],
        "SNL_A2": lambda: z @ w["w1"] + a @ z @ w["w2"],
        "CHEB_K": lambda: sum(np.linalg.matrix_power(a, k) @ z @ w[f"w{k + 1}"]
                              for k in range(cfg.order)),
    }
    return xv + f[cfg.variant]()


def _table1_forward(cfg: BlockConfig, x: FeatureMap, params) -> np.ndarray:
    """Y = X + F(A, Z) of a block in closed form: Table 1's A, then its filter."""
    return _table1_filter(cfg, _table1_affinity(cfg, x, params), x, params)


def check_unification():
    rng = _rng(21)
    worst = 0.0
    for variant in blocks.VARIANTS:
        cfg = BlockConfig(variant=variant, c_in=4, c_s=2, order=3)
        xs, params = _stacked([_random_block_inputs(rng, cfg, height=3, width=4)
                               for _ in range(3)])
        ys = _forward(xs, 3, 4, cfg, params)
        for i, x in enumerate(xs):
            want = _table1_forward(cfg, FeatureMap(3, 4, cfg.c_in, x), _sample(params, i))
            worst = max(worst, linalg.rel_error(ys[i], want))
    return worst <= 1e-12, f"max block-vs-Table-1 rel error {worst:.3e}"


def check_tied_weight_identities():
    rng = _rng(22)
    worst = 0.0
    cfg = BlockConfig(variant="NL", c_in=4, c_s=2)
    cfg_ns = BlockConfig(variant="NS", c_in=4, c_s=2)
    xs, params = _stacked([_random_block_inputs(rng, cfg) for _ in range(3)])
    t = blocks._build_affinity(xs, 3, 3, cfg, params)
    a = blocks._dense_affinity(t.m, cfg).values
    n = xs.shape[1]
    # NS filters over NL's random-walk A, so one tape's operator serves both
    nl = _finite(blocks._filter(cfg, params, t.a, t.z_node, n)[0])
    ns = _finite(blocks._filter(cfg_ns, params, t.a, t.z_node, n)[0])
    for i, w in enumerate(params.filters["w"]):
        cheb = blocks.generalized_forward(a[i], t.z[i].T, [np.zeros_like(w), w])
        if not np.array_equal(nl[i], cheb):
            worst = max(worst, linalg.rel_error(nl[i], cheb))
        cheb_ns = blocks.generalized_forward(a[i], t.z[i].T, [-w, w])
        if not np.array_equal(ns[i], cheb_ns):
            worst = max(worst, linalg.rel_error(ns[i], cheb_ns))
    return worst <= 1e-12, f"max tied-weight rel error {worst:.3e}"


def _block_affinities(cfg: BlockConfig, xs: np.ndarray, params) -> np.ndarray:
    """The dense affinities of a stack of 3x3 inputs, on the public graph
    route of ``blocks.build_block_affinity``."""
    return blocks._dense_affinity(blocks._build_affinity(xs, 3, 3, cfg, params).m, cfg).values


def check_snl_symmetry():
    rng = _rng(23)
    cfg = BlockConfig(variant="SNL", c_in=4, c_s=2)
    a = _block_affinities(cfg, *_stacked([_random_block_inputs(rng, cfg) for _ in range(20)]))
    if not np.array_equal(a, a.swapaxes(-1, -2)):
        return False, "SNL affinity not exactly symmetric"
    linalg.eigh(a[-1])  # must not raise
    # the motivating defect: random-walk normalization is not symmetric
    cfg_nl = BlockConfig(variant="NL", c_in=4, c_s=2, kernel="dot")
    draws = []
    for _ in range(20):
        x, _ = _random_block_inputs(rng, cfg_nl)  # the parameters used are the next draw
        w_phi, w_psi, w_z, filters = blocks._random_arrays(cfg_nl, rng)
        draws.append((np.abs(x), (np.abs(w_phi), np.abs(w_psi), w_z, filters)))
    a_nl = _block_affinities(cfg_nl, *_stacked(draws))
    asym = int(np.sum(np.max(np.abs(a_nl - a_nl.swapaxes(-1, -2)), axis=(1, 2)) > 1e-12))
    return asym >= 18, f"SNL symmetric; NL asymmetric on {asym}/20 dot-kernel inputs"


def _equivariance_error(cfg: BlockConfig, x, arrays, perm, height=3, width=3) -> float:
    """max |f(P x) - P f(x)| of one block, with x and P x as one stack."""
    y = _forward(np.stack([x, x[perm]]), height, width, cfg, blocks._ParamStack(*arrays))
    return float(np.max(np.abs(y[1] - y[0][perm])))


def check_block_equivariance():
    rng = _rng(24)
    worst = 0.0
    for variant in ("NL", "NS", "A2", "SNL", "SNL_A1", "SNL_A2"):
        cfg = BlockConfig(variant=variant, c_in=4, c_s=2)
        x, arrays = _random_block_inputs(rng, cfg)
        worst = max(worst, _equivariance_error(cfg, x, arrays, rng.permutation(len(x))))
    # CC: only grid-structure-preserving permutations (row/column swaps)
    cfg = BlockConfig(variant="CC", c_in=4, c_s=2)
    x, arrays = _random_block_inputs(rng, cfg, height=3, width=4)
    grid_perm = np.arange(12).reshape(3, 4)[[1, 0, 2], :][:, [0, 1, 3, 2]].ravel()
    worst = max(worst, _equivariance_error(cfg, x, arrays, grid_perm, 3, 4))
    return worst <= 1e-10, f"max equivariance error {worst:.3e}"


def check_block_shapes():
    rng = _rng(25)
    for variant in blocks.VARIANTS:
        cfg = BlockConfig(variant=variant, c_in=4, c_s=2, order=3)
        x, params = _stacked([_random_block_inputs(rng, cfg)])
        y = _forward(x, 3, 3, cfg, params)
        if y.shape != x.shape:
            return False, f"{variant}: output {y[0].shape} != input {x[0].shape}"
    return True, "output shape equals input shape for all variants"


# "matmul-associativity" and "jacobi-reconstruction" now check ``@`` and
# ``linalg.eigh`` (LAPACK); the names stay because ``snl verify --filter``
# and the scripts that call it select groups by name.
GROUPS = [
    ("matmul-associativity", check_matmul_associativity),
    ("jacobi-reconstruction", check_jacobi_reconstruction),
    ("affinity-row-stochastic", check_row_stochastic),
    ("expdot-positivity", check_expdot_positive),
    ("rw-sym-spectrum-match", check_rw_sym_spectrum),
    ("crisscross-rowsums", check_crisscross_rowsums),
    ("laplacian-eigenvalue-bound", check_laplacian_bound),
    ("gft-roundtrip", check_gft_roundtrip),
    ("spectral-equivalence", check_spectral_equivalence),
    ("chebyshev-basis-change", check_chebyshev_basis_change),
    ("filter-automorphism", check_filter_automorphism),
    ("unification-table", check_unification),
    ("tied-weight-identities", check_tied_weight_identities),
    ("snl-symmetry", check_snl_symmetry),
    ("block-equivariance", check_block_equivariance),
    ("block-output-shape", check_block_shapes),
]


def run_verify(name_filter: str | None = None) -> list[dict]:
    """Run the invariant groups (optionally only those containing a substring)."""
    results = []
    for name, fn in GROUPS:
        if name_filter and name_filter not in name:
            continue
        passed, detail = fn()
        results.append({"name": name, "passed": bool(passed), "detail": detail})
    return results
