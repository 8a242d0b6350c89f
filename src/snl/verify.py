"""Named invariant suites bundling the package's mathematical guarantees.

Each group re-derives an expected result through an independent route
(explicit eigendecomposition, enumeration, closed forms) and checks the
production path against it. The CLI ``verify`` subcommand runs them all.
"""

import numpy as np

from . import blocks, graph, linalg, spectral
from .blocks import BlockConfig
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
    n = height * width
    x = FeatureMap(height, width, cfg.c_in, rng.normal(size=(n, cfg.c_in)))
    params = blocks.random_params(cfg, rng)
    return x, params


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
    l_tilde = graph.scaled_laplacian(a)
    terms = spectral.cheb_recursion(l_tilde, k)
    cheb_out = sum(theta_hat[i] * (terms[i] @ z) for i in range(k))
    # same polynomial in the monomial basis of A = -L_tilde
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


def _generic_equivalent(x, cfg, params, st):
    """The Table-row instantiation of the generic polynomial routine."""
    a = st.a.values
    v = cfg.variant
    if v in ("NL", "A2", "SNL_A1"):
        w = params.filters["w"]
        return blocks.generalized_forward(a, st.z, [np.zeros_like(w), w])
    if v == "CC":
        w = params.filters["w"]
        return blocks.generalized_forward(a, x.values, [np.zeros_like(w), w])
    if v == "NS":
        w = params.filters["w"]
        return blocks.generalized_forward(a, st.z, [-w, w])
    if v in ("SNL", "SNL_A2"):
        return blocks.generalized_forward(
            a, st.z, [params.filters["w1"], params.filters["w2"]]
        )
    if v == "CGNL":
        flat = blocks.generalized_forward(
            a, st.v, [np.zeros((1, 1)), np.ones((1, 1))]
        )
        o = graph.unflatten_spatial_channel(flat, x.n_positions, cfg.c_s)
        return o @ params.filters["w"]
    ws = [params.filters[f"w{k + 1}"] for k in range(cfg.order)]
    return blocks.generalized_forward(a, st.z, ws)


def check_unification():
    rng = _rng(21)
    worst = 0.0
    for variant in ("NL", "NS", "A2", "CGNL", "CC"):
        cfg = BlockConfig(variant=variant, c_in=4, c_s=2)
        for _ in range(3):
            x, params = _random_block_inputs(rng, cfg)
            st = blocks._affinity_state(x, cfg, params)
            specialized = blocks._operator_forward(x, cfg, params, st)
            generic = _generic_equivalent(x, cfg, params, st)
            if not np.array_equal(specialized, generic):
                worst = max(worst, linalg.rel_error(specialized, generic))
    return worst <= 1e-12, f"max specialized-vs-generic rel error {worst:.3e}"


def check_tied_weight_identities():
    rng = _rng(22)
    worst = 0.0
    for _ in range(3):
        cfg = BlockConfig(variant="NL", c_in=4, c_s=2)
        x, params = _random_block_inputs(rng, cfg)
        st = blocks._affinity_state(x, cfg, params)
        w = params.filters["w"]
        nl = blocks._operator_forward(x, cfg, params, st)
        cheb = blocks.generalized_forward(st.a.values, st.z, [np.zeros_like(w), w])
        if not np.array_equal(nl, cheb):
            worst = max(worst, linalg.rel_error(nl, cheb))
        cfg_ns = BlockConfig(variant="NS", c_in=4, c_s=2)
        params.filters = {"w": w}
        ns = blocks._operator_forward(x, cfg_ns, params, st)
        cheb_ns = blocks.generalized_forward(st.a.values, st.z, [-w, w])
        if not np.array_equal(ns, cheb_ns):
            worst = max(worst, linalg.rel_error(ns, cheb_ns))
    return worst <= 1e-12, f"max tied-weight rel error {worst:.3e}"


def check_snl_symmetry():
    rng = _rng(23)
    cfg = BlockConfig(variant="SNL", c_in=4, c_s=2)
    for _ in range(20):
        x, params = _random_block_inputs(rng, cfg)
        a = blocks.build_block_affinity(x, cfg, params)
        if not np.array_equal(a.values, a.values.T):
            return False, "SNL affinity not exactly symmetric"
    linalg.eigh(a.values)  # must not raise
    # the motivating defect: random-walk normalization is not symmetric
    asym = 0
    cfg_nl = BlockConfig(variant="NL", c_in=4, c_s=2, kernel="dot")
    for _ in range(20):
        x, _ = _random_block_inputs(rng, cfg_nl)
        x = FeatureMap(x.height, x.width, x.channels, np.abs(x.values))
        params = blocks.random_params(cfg_nl, rng)
        params.w_phi = np.abs(params.w_phi)
        params.w_psi = np.abs(params.w_psi)
        a_nl = blocks.build_block_affinity(x, cfg_nl, params)
        if float(np.max(np.abs(a_nl.values - a_nl.values.T))) > 1e-12:
            asym += 1
    return asym >= 18, f"SNL symmetric; NL asymmetric on {asym}/20 dot-kernel inputs"


def check_block_equivariance():
    rng = _rng(24)
    worst = 0.0
    for variant in ("NL", "NS", "A2", "SNL", "SNL_A1", "SNL_A2"):
        cfg = BlockConfig(variant=variant, c_in=4, c_s=2)
        x, params = _random_block_inputs(rng, cfg)
        perm = rng.permutation(x.n_positions)
        y = blocks.block_forward(x, cfg, params).values
        xp = FeatureMap(x.height, x.width, x.channels, x.values[perm])
        yp = blocks.block_forward(xp, cfg, params).values
        worst = max(worst, float(np.max(np.abs(yp - y[perm]))))
    # CC: only grid-structure-preserving permutations (row/column swaps)
    cfg = BlockConfig(variant="CC", c_in=4, c_s=2)
    x, params = _random_block_inputs(rng, cfg, height=3, width=4)
    grid_perm = np.arange(12).reshape(3, 4)[[1, 0, 2], :][:, [0, 1, 3, 2]].ravel()
    y = blocks.block_forward(x, cfg, params).values
    xp = FeatureMap(3, 4, 4, x.values[grid_perm])
    yp = blocks.block_forward(xp, cfg, params).values
    worst = max(worst, float(np.max(np.abs(yp - y[grid_perm]))))
    return worst <= 1e-10, f"max equivariance error {worst:.3e}"


def check_block_shapes():
    rng = _rng(25)
    for variant in blocks.VARIANTS:
        cfg = BlockConfig(variant=variant, c_in=4, c_s=2, order=3)
        x, params = _random_block_inputs(rng, cfg)
        y = blocks.block_forward(x, cfg, params)
        if y.values.shape != x.values.shape:
            return False, f"{variant}: output {y.values.shape} != input {x.values.shape}"
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
