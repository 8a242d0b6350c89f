import copy
import dataclasses

import numpy as np
import pytest

from snl import blocks, gradcheck, graph, harness, linalg, verify
from snl.blocks import BlockConfig, BlockParams
from snl.errors import (
    AffinityOverflowError,
    ConfigError,
    DegenerateVertexError,
    KernelDomainError,
    NumericError,
    PreconditionError,
    ShapeError,
)
from snl.graph import AffinityMatrix, FeatureMap


def make_input(rng, h=3, w=3, c=4, positive=False):
    vals = rng.normal(0.0, 0.5, size=(h * w, c))
    if positive:
        vals = np.abs(vals) + 0.1
    return FeatureMap(h, w, c, vals)


def one_sample_tape(x, cfg, params):
    """The tape of a batched forward on the one-sample stack of ``x``."""
    _, tape = blocks.block_forward_batch(x.values[None], x.height, x.width, cfg, params)
    return tape


def tape_filter(cfg, params, tape):
    """F(A, Z) of a one-sample tape, with A applied as the core applies it."""
    return blocks._filter(cfg, params, tape.a, tape.z_node, tape.x.shape[1])[0][0]


def dense_affinity(cfg, params, xs, h, w):
    """Each sample's dense A from the public route, as a (B, V, V) stack."""
    return np.stack([blocks.build_block_affinity(FeatureMap(h, w, xs.shape[-1], x), cfg, params)
                     .values for x in xs])


def test_config_validation():
    BlockConfig(variant="NL", c_in=4, c_s=2)
    with pytest.raises(ConfigError):
        BlockConfig(variant="BOGUS", c_in=4, c_s=2)
    with pytest.raises(ConfigError):
        BlockConfig(variant="NL", c_in=4, c_s=5)
    with pytest.raises(ConfigError):
        BlockConfig(variant="NL", c_in=4, c_s=2, kernel="rbf")
    with pytest.raises(ConfigError):
        BlockConfig(variant="CHEB_K", c_in=4, c_s=2, order=1)
    BlockConfig(variant="NL", c_in=np.int64(4), c_s=2)
    for bad in [{"c_in": "4"}, {"c_s": True}, {"order": 2.5}, {"kernel": 5},
                {"backprop_affinity": "no"}, {"backprop_affinity": 1}]:
        with pytest.raises(ConfigError):
            BlockConfig(**({"variant": "CHEB_K", "c_in": 4, "c_s": 2} | bad))


def test_config_json_roundtrip_and_unknown_keys():
    cfg = BlockConfig(variant="SNL", c_in=4, c_s=2, order=3, backprop_affinity=False)
    back = BlockConfig.from_json(cfg.to_json())
    assert back == cfg
    with pytest.raises(ConfigError):
        BlockConfig.from_dict({"variant": "NL", "c_in": 4, "c_s": 2, "bogus": 1})
    with pytest.raises(ConfigError):
        BlockConfig.from_dict({"variant": "NL"})
    with pytest.raises(ConfigError):
        BlockConfig.from_json("not json")


def test_filter_roles_and_shapes():
    assert blocks.filter_roles(BlockConfig(variant="NL", c_in=4, c_s=2)) == ["w"]
    assert blocks.filter_roles(BlockConfig(variant="SNL", c_in=4, c_s=2)) == ["w1", "w2"]
    cheb = BlockConfig(variant="CHEB_K", c_in=4, c_s=2, order=4)
    assert blocks.filter_roles(cheb) == ["w1", "w2", "w3", "w4"]
    assert blocks.filter_shape(BlockConfig(variant="NL", c_in=4, c_s=2)) == (2, 4)
    assert blocks.filter_shape(BlockConfig(variant="CC", c_in=4, c_s=2)) == (4, 4)


def test_init_params_zero_filters_gives_identity_block():
    rng = np.random.default_rng(0)
    for variant in blocks.VARIANTS:
        cfg = BlockConfig(variant=variant, c_in=4, c_s=2)
        params = blocks.init_params(cfg, np.random.default_rng(1))
        x = make_input(rng, positive=True)
        y = blocks.block_forward(x, cfg, params)
        assert np.array_equal(y.values, x.values), variant


def test_params_save_load_roundtrip(tmp_path):
    cfg = BlockConfig(variant="SNL", c_in=4, c_s=2)
    params = blocks.random_params(cfg, np.random.default_rng(2))
    blocks.save_params(params, tmp_path)
    back = blocks.load_params(tmp_path)
    for (n1, m1), (n2, m2) in zip(params.items(), back.items()):
        assert n1 == n2
        assert np.array_equal(m1, m2)


def test_check_params_catches_mismatches():
    cfg = BlockConfig(variant="SNL", c_in=4, c_s=2)
    params = blocks.random_params(cfg, np.random.default_rng(3))
    bad = BlockParams(params.w_phi, params.w_psi, params.w_z, {"w1": params.filters["w1"]})
    with pytest.raises(ConfigError):
        blocks.check_params(cfg, bad)
    bad2 = BlockParams(
        np.zeros((4, 3)), params.w_psi, params.w_z, dict(params.filters)
    )
    with pytest.raises(ShapeError):
        blocks.check_params(cfg, bad2)


def test_block_output_shape_matches_input():
    rng = np.random.default_rng(4)
    for variant in blocks.VARIANTS:
        cfg = BlockConfig(variant=variant, c_in=4, c_s=2)
        params = blocks.random_params(cfg, np.random.default_rng(5))
        x = make_input(rng, positive=True)
        y = blocks.block_forward(x, cfg, params)
        assert y.values.shape == x.values.shape


def test_unification_against_generic_polynomial():
    # specialized forward == generic routine instantiated per variant
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = make_input(rng, positive=True)
        for variant in ("NL", "NS", "A2", "CC"):
            cfg = BlockConfig(variant=variant, c_in=4, c_s=2)
            params = blocks.random_params(cfg, np.random.default_rng(seed + 100))
            t = one_sample_tape(x, cfg, params)
            a = blocks.build_block_affinity(x, cfg, params).values
            w = params.filters["w"]
            if variant == "NS":
                weights = [-w, w]
            else:
                weights = [np.zeros_like(w), w]
            want = blocks.generalized_forward(a, t.z_node[0].T, weights)
            got = tape_filter(cfg, params, t)
            assert np.array_equal(got, want) or linalg.rel_error(got, want) <= 1e-12


def test_unification_cgnl_flattened_graph():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = make_input(rng, positive=True)
        cfg = BlockConfig(variant="CGNL", c_in=4, c_s=2)
        params = blocks.random_params(cfg, np.random.default_rng(seed + 200))
        t = one_sample_tape(x, cfg, params)
        a = blocks.build_block_affinity(x, cfg, params).values
        weights = [np.zeros((1, 1)), np.ones((1, 1))]
        fv = blocks.generalized_forward(a, t.v[0].T, weights)
        want = graph.unflatten_spatial_channel(fv, x.n_positions, cfg.c_s) @ params.filters["w"]
        got = tape_filter(cfg, params, t)
        assert np.array_equal(got, want) or linalg.rel_error(got, want) <= 1e-12


def test_tied_weight_identities():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = make_input(rng, positive=True)
        rp = np.random.default_rng(seed + 300)
        nl_cfg = BlockConfig(variant="NL", c_in=4, c_s=2)
        nl_params = blocks.random_params(nl_cfg, rp)
        w = nl_params.filters["w"]
        cheb_cfg = BlockConfig(variant="CHEB_K", c_in=4, c_s=2, order=2)

        # NS(W) == CHEB_K(K=2, W1=-W, W2=W) on the same affinity
        ns_cfg = BlockConfig(variant="NS", c_in=4, c_s=2)
        ns_out = blocks.block_forward(x, ns_cfg, nl_params).values
        t = one_sample_tape(x, ns_cfg, nl_params)
        a = blocks.build_block_affinity(x, ns_cfg, nl_params).values
        cheb_ns = x.values + blocks.generalized_forward(a, t.z[0].T, [-w, w])
        assert linalg.rel_error(ns_out, cheb_ns) <= 1e-12

        # NL(W) == CHEB_K(K=2, W1=0) on the same affinity
        nl_out = blocks.block_forward(x, nl_cfg, nl_params).values
        t = one_sample_tape(x, nl_cfg, nl_params)
        a = blocks.build_block_affinity(x, nl_cfg, nl_params).values
        cheb_nl = x.values + blocks.generalized_forward(a, t.z[0].T, [np.zeros_like(w), w])
        assert linalg.rel_error(nl_out, cheb_nl) <= 1e-12


@pytest.mark.parametrize("variant,change", [
    ("NS", {"terms": ((0, "w", 1.0), (1, "w", 1.0))}),  # the k=0 sign flipped
    ("SNL", {"normalization": "random_walk"}),
    ("CC", {"mask": False}),
])
def test_unification_check_fails_on_a_wrong_table_row(variant, change, monkeypatch):
    # the check compares the table with closed forms, not with itself
    monkeypatch.setattr(blocks, "_held", None)  # restored after the test, like the table
    assert verify.check_unification()[0]
    monkeypatch.setitem(blocks._RECIPES, variant, blocks._RECIPES[variant]._replace(**change))
    passed, detail = verify.check_unification()
    assert not passed, detail


@pytest.mark.parametrize("group", ["unification-table", "tied-weight-identities",
                                   "block-equivariance", "block-output-shape"])
def test_verify_block_group_fails_on_a_non_finite_output(group, monkeypatch):
    # a NaN in the filter output must not drop out of the max of a group's
    # errors: the group raises as block_forward_batch does
    honest = blocks._filter

    def poisoned(*args):
        f, powers = honest(*args)
        return np.full_like(f, np.nan), powers

    monkeypatch.setattr(blocks, "_filter", poisoned)
    with pytest.raises(NumericError, match="non-finite"):
        dict(verify.GROUPS)[group]()


def test_snl_affinity_exactly_symmetric():
    rng = np.random.default_rng(6)
    cfg = BlockConfig(variant="SNL", c_in=4, c_s=2)
    for _ in range(25):
        params = blocks.random_params(cfg, rng)
        x = make_input(rng)
        a = blocks.build_block_affinity(x, cfg, params)
        assert np.array_equal(a.values, a.values.T)


def test_nl_affinity_generally_asymmetric():
    rng = np.random.default_rng(7)
    cfg = BlockConfig(variant="NL", c_in=4, c_s=2)
    asym = 0
    for _ in range(20):
        params = blocks.random_params(cfg, rng)
        x = make_input(rng, positive=True)
        a = blocks.build_block_affinity(x, cfg, params)
        if np.max(np.abs(a.values - a.values.T)) > 1e-12:
            asym += 1
    assert asym >= 19


def test_cgnl_vertex_cap():
    cfg = BlockConfig(variant="CGNL", c_in=4, c_s=4)
    params = blocks.random_params(cfg, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    x = FeatureMap(33, 33, 4, rng.normal(0.0, 0.2, size=(33 * 33, 4)))
    with pytest.raises(PreconditionError):
        blocks.block_forward(x, cfg, params)


def test_permutation_equivariance():
    rng = np.random.default_rng(10)
    x = make_input(rng, positive=True)
    perm = np.random.default_rng(11).permutation(9)
    xp = FeatureMap(3, 3, 4, x.values[perm])
    for variant in ("NL", "NS", "A2", "SNL", "SNL_A1", "SNL_A2"):
        cfg = BlockConfig(variant=variant, c_in=4, c_s=2)
        params = blocks.random_params(cfg, np.random.default_rng(12))
        y = blocks.block_forward(x, cfg, params).values
        yp = blocks.block_forward(xp, cfg, params).values
        assert np.max(np.abs(yp - y[perm])) < 1e-12, variant


@pytest.mark.parametrize("h,w,shape", [(0, 3, (2, 0, 4)), (-1, -3, (2, 3, 4)), (3, 0, (2, 0, 4))])
def test_batch_rejects_grids_without_positions(h, w, shape):
    cfg = BlockConfig(variant="SNL", c_in=4, c_s=2)
    params = blocks.random_params(cfg, np.random.default_rng(15))
    with pytest.raises(ShapeError, match="no positions"):
        blocks.block_forward_batch(np.ones(shape), h, w, cfg, params)


# a float side, even a whole one, and a bool side are no grid
NON_INTEGER_GRIDS = [(2.0, 2), (2, 2.0), (2.5, 1.6), (True, 4), (4, np.True_)]


@pytest.mark.parametrize("variant", blocks.VARIANTS)
def test_grid_sides_must_be_integers(variant):
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2)
    params = blocks.random_params(cfg, np.random.default_rng(16))
    xs = np.random.default_rng(17).normal(0.0, 0.5, size=(2, 4, 4))
    for h, w in NON_INTEGER_GRIDS:
        with pytest.raises(ShapeError, match="integers"):
            blocks.block_forward(FeatureMap(h, w, 4, xs[0]), cfg, params)
        with pytest.raises(ShapeError, match="integers"):
            blocks.block_forward_batch(xs, h, w, cfg, params)
    # NumPy integers are integers
    side = np.int64(2)
    y, _ = blocks.block_forward_batch(xs, side, side, cfg, params)
    assert np.array_equal(blocks.block_forward(FeatureMap(side, side, 4, xs[0]), cfg,
                                               params).values, y[0])


@pytest.mark.parametrize("b,side,pins", [(32, 8, 1), (1, 32, 0), (2, 2, 0)])
def test_batched_calls_past_128_kib_pin_the_allocator(b, side, pins, monkeypatch):
    # a call of more than one sample whose kernel stack passes glibc's
    # default 128 KiB mmap threshold pins it, as a B = 32, N = 64 step
    # does (1 MiB); a one-sample call and a small stack do not
    calls = []
    monkeypatch.setattr(blocks, "_pin_malloc_thresholds", lambda: calls.append(1))
    cfg = BlockConfig(variant="SNL", c_in=4, c_s=2)
    rng = np.random.default_rng(18)
    params = blocks.random_params(cfg, rng)
    blocks.block_forward_batch(rng.normal(0.0, 0.5, size=(b, side * side, 4)), side, side,
                               cfg, params)
    assert len(calls) == pins


def test_backward_upstream_shape_check():
    cfg = BlockConfig(variant="NL", c_in=4, c_s=2)
    params = blocks.random_params(cfg, np.random.default_rng(13))
    x = make_input(np.random.default_rng(14), positive=True)
    with pytest.raises(ShapeError):
        blocks.block_backward(x, cfg, params, np.zeros((3, 4)))


# Batched core: a B=3 stack against three B=1 calls, across every variant,
# both affinity-gradient modes, the dot kernel and a non-square grid.
BATCH_CASES = (
    [(v, "exp_dot", bp, 3, 3) for v in blocks.VARIANTS for bp in (True, False)]
    + [("A2", "dot", bp, 3, 3) for bp in (True, False)]
    + [(v, "exp_dot", True, 3, 4) for v in blocks.VARIANTS]
    + [("A2", "dot", True, 3, 4)]
)


def batch_case(variant, kernel, backprop, h, w, seed=20, b=3, order=3):
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2, order=order, kernel=kernel,
                      backprop_affinity=backprop)
    rng = np.random.default_rng(seed)
    params = blocks.random_params(cfg, rng)
    xs = rng.normal(0.0, 0.5, size=(b, h * w, 4))
    return cfg, params, xs, rng.normal(size=xs.shape)


def rel(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


# 256 KiB, graph.PANEL_BYTES, keeps each case's matrices whole; 1 cuts the
# batched kernel, the symmetric products and the affinity gradient into
# one-row panels, which must agree with whole one-sample calls
@pytest.mark.parametrize("panel_bytes", [256 * 1024, 1])
@pytest.mark.parametrize("variant,kernel,backprop,h,w", BATCH_CASES)
def test_batched_core_matches_single_samples(variant, kernel, backprop, h, w, panel_bytes,
                                             monkeypatch):
    cfg, params, xs, gs = batch_case(variant, kernel, backprop, h, w)
    monkeypatch.setattr(graph, "PANEL_BYTES", panel_bytes)
    monkeypatch.setattr(graph, "SYMMETRIC_PANEL_BYTES", panel_bytes)
    y, tape = blocks.block_forward_batch(xs, h, w, cfg, params)
    gx, grads = blocks.block_backward_batch(tape, cfg, params, gs)
    monkeypatch.undo()
    want_grads = {name: np.zeros_like(mat) for name, mat in params.items()}
    for k in range(xs.shape[0]):
        x = FeatureMap(h, w, 4, xs[k])
        assert rel(y[k], blocks.block_forward(x, cfg, params).values) <= 1e-12
        gx_k, grads_k = blocks.block_backward(x, cfg, params, gs[k])
        assert rel(gx[k], gx_k) <= 1e-12
        for name in want_grads:
            want_grads[name] += grads_k[name]
    assert list(grads) == list(want_grads)
    for name, want in want_grads.items():
        assert rel(grads[name], want) <= 1e-12 or np.array_equal(grads[name], want), name


def assert_matches_finite_differences(cfg, params, xs, gs, h, w):
    """L = sum(G * Y) over the whole stack; every input entry and parameter
    entry checked by central differences. The input's probes run as one
    stack of probes times samples; each parameter probe is one forward.
    Without ``backprop_affinity`` the loss holds each sample's A at its
    base-point value, as the backward does."""
    _, tape = blocks.block_forward_batch(xs, h, w, cfg, params)
    frozen = None if cfg.backprop_affinity else dense_affinity(cfg, params, xs, h, w)

    def losses(vs, p):
        """L of each (B, N, C) stack of vs (S, B, N, C) under parameters p."""
        y, t = blocks.block_forward_batch(vs.reshape((-1,) + xs.shape[1:]), h, w, cfg, p)
        y = y.reshape(vs.shape)
        if frozen is not None:
            z_node = t.z_node.reshape(vs.shape[:2] + t.z_node.shape[1:])
            # the dense A applied to the tape's channel-first signal
            y = vs + blocks._filter(cfg, p, blocks._Affinity(frozen, None, "none"), z_node,
                                    h * w)[0]
        return np.sum(gs * y, axis=(1, 2, 3))

    gx, grads = blocks.block_backward_batch(tape, cfg, params, gs)
    scale = max(np.abs(gx).max(), *(np.abs(g).max() for g in grads.values()))
    num = gradcheck.finite_diff(lambda vs: losses(vs, params), xs, 1e-6)
    assert np.max(np.abs(num - gx)) <= 1e-7 * scale
    for name, mat in params.items():
        def losses_at(probes, name=name):
            out = []
            for v in probes:
                p = copy.deepcopy(params)
                if name in p.filters:
                    p.filters[name] = v
                else:
                    setattr(p, name, v)
                out.append(losses(xs[None], p)[0])
            return np.array(out)
        num = gradcheck.finite_diff(losses_at, mat, 1e-6)
        assert np.max(np.abs(num - grads[name])) <= 1e-7 * scale, name


@pytest.mark.parametrize(
    "variant,kernel", [(v, "exp_dot") for v in blocks.VARIANTS] + [("A2", "dot")]
)
def test_batched_backward_finite_differences(variant, kernel):
    cfg, params, xs, gs = batch_case(variant, kernel, True, 3, 4, seed=21, b=2)
    assert_matches_finite_differences(cfg, params, xs, gs, 3, 4)


@pytest.mark.parametrize("backprop", [True, False])
@pytest.mark.parametrize("order", [5, 8])
def test_cheb_k_high_order_finite_differences(order, backprop):
    # powers up to A^7 go through the reverse recursion of the backward
    cfg, params, xs, gs = batch_case("CHEB_K", "exp_dot", backprop, 3, 4, seed=24, b=2,
                                     order=order)
    assert_matches_finite_differences(cfg, params, xs, gs, 3, 4)


def per_term_polynomial_backward(tape, cfg, params, g, h, w):
    """Reference for ``blocks._polynomial_backward``: each term pushes its
    gradient through A^k on its own, with k products by the dense public
    A^T and k outer products, so K(K-1)/2 of each over a CHEB_K filter. The
    outer products are returned as their factors, concatenated: dL/dA =
    u v^T, with A v and A^T u. On CGNL's flattened graph each power is read
    as an (N, C_s) map before W. The tape's signals and the returned
    gradient and factors are channel-first, (b, c, V); they are transposed
    on the way in and out."""
    n = tape.x.shape[1]
    read = unread = lambda p: p
    if tape.v is not None:
        read = lambda p: graph.unflatten_spatial_channel(p, n, cfg.c_s)
        unread = graph.flatten_spatial_channel
    a_t = blocks._t(dense_affinity(cfg, params, tape.x, h, w))
    powers = [blocks._t(p) for p in tape.powers]
    per_role = {}
    g_zn = np.zeros_like(powers[0])
    us, vs, avs, atus = [], [], [], []
    for k, role, sign in blocks._variant_terms(cfg):
        contrib = sign * (blocks._t(read(powers[k])) @ g).sum(axis=0)
        per_role[role] = contrib if role not in per_role else per_role[role] + contrib
        r = unread(g @ (sign * params.filters[role]).T)
        for j in range(k):
            us.append(r)
            vs.append(powers[k - 1 - j])
            avs.append(powers[k - j])
            r = a_t @ r
            atus.append(r)
        g_zn += r
    g_a = None
    if cfg.backprop_affinity:
        g_a = tuple(blocks._t(np.concatenate(f, axis=-1)) for f in (us, vs, avs, atus))
    return per_role, blocks._t(g_zn), g_a


@pytest.mark.parametrize(
    "variant,kernel,backprop,h,w,order",
    [case + (3,) for case in BATCH_CASES]
    + [("CHEB_K", "exp_dot", bp, 3, 4, k) for k in (5, 8) for bp in (True, False)],
)
def test_backward_matches_per_term_reference(variant, kernel, backprop, h, w, order,
                                             monkeypatch):
    cfg, params, xs, gs = batch_case(variant, kernel, backprop, h, w, order=order)
    _, tape = blocks.block_forward_batch(xs, h, w, cfg, params)
    gx, grads = blocks.block_backward_batch(tape, cfg, params, gs)
    monkeypatch.setattr(blocks, "_polynomial_backward",
                        lambda *args: per_term_polynomial_backward(*args, h, w))
    want_gx, want = blocks.block_backward_batch(tape, cfg, params, gs)
    for got, ref in [(gx, want_gx)] + [(grads[name], want[name]) for name in want]:
        assert np.array_equal(got, ref) or rel(got, ref) <= 1e-12


# The symmetric recipes apply A = S (M + M^T)/2 S as scalings around the
# kernel M, and form dL/dA + (dL/dA)^T as one product of its factors.
SYMMETRIC = ["SNL", "SNL_A1", "CHEB_K"]
# criterion 3's adversarial input scales: unit, large, tiny, underflowing, zero
INPUT_SCALES = [0.5, 10.0, 1e-8, 1e-150, 0.0]


@pytest.mark.parametrize("b,n", [(8, 64), (1, 1024)])  # an N = 64 stack, one 32x32 sample
@pytest.mark.parametrize("c_s", [1, 2, 3, 4])
def test_swapped_product_is_the_transposed_product(b, n, c_s):
    # _Affinity takes channel-first operands q^T and forms M^T q as the
    # swapped product q^T M, thin operand first: A^T g with A = M, and the
    # M^T q half of a symmetric A p
    cfg = BlockConfig(variant="SNL", c_in=4, c_s=c_s)
    rng = np.random.default_rng(30 + c_s)
    params = blocks.random_params(cfg, rng)
    q = rng.normal(size=(b, n, 3))
    q_t = np.ascontiguousarray(blocks._t(q))
    for scale in INPUT_SCALES:
        phi, psi, _ = blocks.embed(scale * rng.normal(size=(b, n, 4)), params)
        for kernel in graph.KERNELS:
            m = graph.kernel_matrix(phi, psi, kernel)
            want = blocks._t(m) @ q
            got = blocks._t(blocks._Affinity(m, None, "none").T @ q_t)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (scale, kernel)
            want = (m @ q + want) / 2
            got = blocks._t(blocks._Affinity(m, np.ones((b, n)), "symmetric") @ q_t)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (scale, kernel)


def symmetric_reference(phi, psi, kernel="exp_dot"):
    return graph.normalize(graph.symmetrize(graph.compute_affinity(phi, psi, kernel)),
                           "symmetric")


def bounded_calls(xs, call_bytes, n_vertices):
    """xs cut into consecutive stacks whose (b, V, V) kernels hold at most
    ``call_bytes`` (at least one sample each), as a caller that bounds its
    own batches cuts them (``harness.EVAL_CHUNK``,
    ``gradcheck._PROBE_CALL_BYTES``)."""
    per_call = max(1, call_bytes // (8 * n_vertices**2))
    return [xs[i:i + per_call] for i in range(0, len(xs), per_call)]


# 256 KiB of kernels holds each case's batch in one call; 0: one sample per
# call
@pytest.mark.parametrize("call_bytes", [256 * 1024, 0])
@pytest.mark.parametrize("h,w,b", [(3, 4, 3), (8, 8, 8), (32, 32, 1)])
@pytest.mark.parametrize("variant", SYMMETRIC)
def test_symmetric_affinity_matches_symmetrize_bitwise(variant, h, w, b, call_bytes):
    # each sample's kernel is the public kernel bit for bit, whatever stack
    # it is built in, and its public normalization is the variant's dense A
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2, order=3)
    rng = np.random.default_rng(31)
    params = blocks.random_params(cfg, rng)
    xs = rng.normal(0.0, 0.5, size=(b, h * w, 4))
    kernels = np.concatenate([blocks.block_forward_batch(part, h, w, cfg, params)[1].m
                              for part in bounded_calls(xs, call_bytes, h * w)])
    for k in range(b):
        phi, psi = xs[k] @ params.w_phi, xs[k] @ params.w_psi
        assert np.array_equal(kernels[k], graph.kernel_matrix(phi, psi, "exp_dot"))
        want = symmetric_reference(phi, psi)
        single = blocks.build_block_affinity(FeatureMap(h, w, 4, xs[k]), cfg, params)
        assert np.array_equal(single.values, want.values)
        assert np.array_equal(single.values, single.values.T)


def dense_affinity_backward(t, recipe, kernel, u, v, av, atu):
    """The gradients of the kernel's two inputs from dL/dS as the backward
    formed it before the factored product: dL/dA densely, each
    normalization's quotient rule on (V, V) arrays (the symmetric one with
    its row and column sums and a transposed add), then the kernel step,
    then one product of the whole dL/dS with each input. M, A and d come
    from the public graph route; the products A v and A^T u are not read.
    The factors, the tape's phi, psi and v and the gradients are
    channel-first, (b, c, V)."""
    g_a = blocks._t(u) @ v
    left, right = (blocks._t(getattr(t, name)) for name in recipe.pair)
    m = graph.compute_affinity(left, right, kernel)
    if t.mask is not None:
        m.values *= t.mask
    if recipe.normalization == "symmetric":
        m = graph.symmetrize(m)
    if recipe.normalization != "none":
        d, a = graph.degrees(m.values), graph.normalize(m, recipe.normalization).values
    if recipe.normalization == "symmetric":
        s = 1.0 / np.sqrt(d)
        ga_a = g_a * a
        row = ga_a.sum(axis=-1)
        col = ga_a.sum(axis=-2)
        g_mhat = s[..., :, None] * s[..., None, :]
        g_mhat *= g_a
        g_mhat -= ((row + col) / (2.0 * d))[..., :, None]
        g_m = 0.5 * (g_mhat + blocks._t(g_mhat))
    elif recipe.normalization == "random_walk":
        r = (g_a * a).sum(axis=-1)
        g_m = (g_a - r[..., :, None]) / d[..., :, None]
        if t.mask is not None:
            g_m *= t.mask
    else:
        g_m = g_a
    if kernel == "exp_dot":
        width = left.shape[-1]
        g_m *= np.exp(left @ blocks._t(right) / np.sqrt(width))
        g_m /= np.sqrt(width)
    return blocks._t(right) @ blocks._t(g_m), blocks._t(left) @ g_m


def assert_matches_dense_backward(cfg, params, xs, gs, h, w, monkeypatch):
    _, tape = blocks.block_forward_batch(xs, h, w, cfg, params)
    gx, grads = blocks.block_backward_batch(tape, cfg, params, gs)
    monkeypatch.setattr(blocks, "_affinity_backward", dense_affinity_backward)
    want_gx, want = blocks.block_backward_batch(tape, cfg, params, gs)
    assert rel(gx, want_gx) <= 1e-12
    for name, ref in want.items():
        assert rel(grads[name], ref) <= 1e-12, name


@pytest.mark.parametrize("h,w,b", [(3, 4, 3), (8, 8, 8)])
@pytest.mark.parametrize("variant,order", [("SNL", 2), ("SNL_A1", 2), ("CHEB_K", 2),
                                           ("CHEB_K", 3), ("CHEB_K", 5)])
def test_symmetric_backward_matches_transposed_form(variant, order, h, w, b, monkeypatch):
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2, order=order)
    rng = np.random.default_rng(32)
    params = blocks.random_params(cfg, rng)
    xs = rng.normal(0.0, 0.5, size=(b, h * w, 4))
    gs = rng.normal(size=xs.shape)
    assert_matches_dense_backward(cfg, params, xs, gs, h, w, monkeypatch)


@pytest.mark.parametrize("h,w,b", [(3, 4, 3), (8, 8, 8)])
@pytest.mark.parametrize("variant,kernel", [
    ("NL", "exp_dot"), ("CC", "exp_dot"), ("CGNL", "exp_dot"), ("SNL_A2", "exp_dot"),
    ("A2", "exp_dot"), ("A2", "dot"), ("NL", "dot"), ("CC", "dot"),
])
def test_affinity_backward_matches_dense_form(variant, kernel, h, w, b, monkeypatch):
    # random walk (CC with its mask) and none, with both kernels; the dot
    # kernel gets nonnegative features so that it can be normalized
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2, kernel=kernel)
    rng = np.random.default_rng(34)
    params = blocks.random_params(cfg, rng)
    xs = rng.normal(0.0, 0.5, size=(b, h * w, 4))
    gs = rng.normal(size=xs.shape)
    if kernel == "dot":
        xs = np.abs(xs) + 0.1
        params.w_phi, params.w_psi = np.abs(params.w_phi), np.abs(params.w_psi)
    assert_matches_dense_backward(cfg, params, xs, gs, h, w, monkeypatch)


# 16x16 grids, and CGNL's flattened 8x8 x c_s = 4 graph: 256 vertices, so
# each matrix (512 KiB) holds two panels and the backward runs in panels
@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("variant,kernel,side,c_s", [
    ("NL", "exp_dot", 16, 2), ("SNL", "exp_dot", 16, 2), ("CC", "exp_dot", 16, 2),
    ("A2", "dot", 16, 2), ("CGNL", "exp_dot", 8, 4),
])
def test_panelled_backward_matches_dense_form(variant, kernel, side, c_s, b, monkeypatch):
    cfg = BlockConfig(variant=variant, c_in=4, c_s=c_s, kernel=kernel)
    assert len(graph._panels(b, blocks._vertices(cfg, side * side))) > 1
    rng = np.random.default_rng(36)
    params = blocks.random_params(cfg, rng)
    xs = rng.normal(0.0, 0.5, size=(b, side * side, 4))
    gs = rng.normal(size=xs.shape)
    assert_matches_dense_backward(cfg, params, xs, gs, side, side, monkeypatch)


def test_training_stacks_run_one_panel(monkeypatch):
    # every kernel, symmetric product and affinity backward of an SGD step
    # (B=32, V=64) and of an evaluation is one panel, the whole stack, as
    # before panels
    seen = []
    panels = graph._panels
    monkeypatch.setattr(graph, "_panels", lambda *args: seen.append(panels(*args)) or seen[-1])
    data = harness.gen_dataset(seed=0, n_samples=64, c=4)
    net = harness.init_toynet(4, BlockConfig(variant="SNL", c_in=4, c_s=2), seed=0)
    harness.train(net, data, steps=2, lr=0.03, seed=0, batch_size=32, eval_every=2)
    assert len(seen) >= 5  # two forwards, two backwards, an evaluation
    assert all(p == [slice(0, 64)] for p in seen)


def axis_sum_affinity_backward(t, recipe, kernel, u, v, av, atu):
    """dL/dS of ``blocks._affinity_factors`` with its row sums rho and r as
    np.sum over the channel-first factors' short axis and each factor
    scaled on its own."""
    d = None if t.d is None else t.d[:, None, :]
    ones = np.ones_like(u[:, :1])
    if recipe.normalization == "symmetric":
        rho = np.sum(u * av + v * atu, axis=-2, keepdims=True) / (4.0 * d)
        s = 1.0 / np.sqrt(d)
        left, right = [0.5 * s * u, 0.5 * s * v, rho, ones], [s * v, s * u, -ones, -rho]
    elif recipe.normalization == "random_walk":
        r = np.sum(u * av, axis=-2, keepdims=True)
        left, right = [u / d, -r / d], [v, ones]
    else:
        left, right = [u], [v]
    left = np.concatenate(left, axis=-2)
    if kernel == "exp_dot":
        left /= np.sqrt(getattr(t, recipe.pair[0]).shape[-2])
    g_s = blocks._t(left) @ np.concatenate(right, axis=-2)
    kept = t.m if kernel == "exp_dot" else t.mask
    return g_s if kept is None else g_s * kept


@pytest.mark.parametrize("b", [1, 3, 32])
@pytest.mark.parametrize("variant,kernel", [
    ("SNL", "exp_dot"), ("CHEB_K", "exp_dot"), ("NL", "exp_dot"), ("CGNL", "exp_dot"),
    ("CC", "exp_dot"), ("CC", "dot"), ("A2", "exp_dot"),
])
def test_affinity_backward_row_sums_match_axis_sums(variant, kernel, b):
    # rho (symmetric) and r (random walk) are products with a ones vector
    # and [s u, s v] one scaling: within 1e-13 of the axis-sum form, entry
    # by entry against the largest entry
    cfg, params, xs, gs = batch_case(variant, kernel, True, 3, 4, seed=35, b=b)
    if kernel == "dot":
        xs = np.abs(xs) + 0.1
        params.w_phi, params.w_psi = np.abs(params.w_phi), np.abs(params.w_psi)
    _, tape = blocks.block_forward_batch(xs, 3, 4, cfg, params)
    _, _, factors = blocks._polynomial_backward(tape, cfg, params, gs)
    recipe = blocks._RECIPES[variant]
    left, right, kept = blocks._affinity_factors(tape, recipe, kernel, *factors)
    got = blocks._t(left) @ right
    if kept is not None:
        got *= kept
    want = axis_sum_affinity_backward(tape, recipe, kernel, *factors)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("variant", blocks.VARIANTS)
def test_every_tape_holds_one_vertex_by_vertex_array(variant):
    # the kernel M is the only (B, V, V) array: A is applied as scalings
    # around it, and neither A nor (M + M^T)/2 is formed
    cfg, params, xs, _ = batch_case(variant, "exp_dot", True, 3, 4)
    _, t = blocks.block_forward_batch(xs, 3, 4, cfg, params)
    n_vertices = 12 * (cfg.c_s if variant == "CGNL" else 1)
    arrays = {name: getattr(t, name) for name in blocks.Tape.__slots__}
    square = [name for name, a in arrays.items() if isinstance(a, np.ndarray)
              and a.shape[1:] == (n_vertices, n_vertices)]
    assert square == ["m"]
    assert t.m.shape[0] == t.x.shape[0]


OPERATOR_CASES = [(v, k, h, w) for v in blocks.VARIANTS for k in graph.KERNELS
                  for h, w in ((3, 4), (32, 32))]


@pytest.mark.parametrize("variant,kernel,h,w", OPERATOR_CASES)
def test_affinity_operator_matches_the_dense_affinity(variant, kernel, h, w):
    # A p and A^T g as scalings around the kernel against the dense public
    # A; the dot kernel gets nonnegative features so that it can be normalized
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2, kernel=kernel)
    rng = np.random.default_rng(35)
    params = blocks.random_params(cfg, rng)
    xs = rng.normal(0.0, 0.5, size=(1, h * w, 4))
    if kernel == "dot":
        xs = np.abs(xs) + 0.1
        params.w_phi, params.w_psi, params.w_z = (np.abs(params.w_phi), np.abs(params.w_psi),
                                                  np.abs(params.w_z))
    _, t = blocks.block_forward_batch(xs, h, w, cfg, params)
    dense = dense_affinity(cfg, params, xs, h, w)
    a = t.a
    p = rng.normal(size=dense.shape[:2] + (3,))
    p_t = np.ascontiguousarray(blocks._t(p))  # the operator's channel-first layout
    for got, want in ((blocks._t(a @ p_t), dense @ p),
                      (blocks._t(a.T @ p_t), blocks._t(dense) @ p)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def two_products(m, q):
    """M q + M^T q of a channel-first q as two whole products, the
    symmetric affinity's operations before its one-pass row panels."""
    out = q @ blocks._t(m)
    out += q @ m
    return out


@pytest.mark.parametrize("b", [1, 4])
@pytest.mark.parametrize("v", [256, 306, 1024])
def test_symmetric_panels_match_two_products(v, b, monkeypatch):
    # one pass over M in row panels against the two whole products; 306
    # leaves a shorter last panel. graph.PANEL_BYTES panels cut every case
    # into several, and at V = 1024 the module's own panels too
    rng = np.random.default_rng(60)
    m = np.exp(rng.normal(0.0, 0.3, size=(b, v, v)))
    q = rng.normal(size=(b, 4, v))
    want = two_products(m, q)
    sizes = [graph.PANEL_BYTES] + [graph.SYMMETRIC_PANEL_BYTES] * (v == 1024)
    for panel_bytes in sizes:
        monkeypatch.setattr(graph, "SYMMETRIC_PANEL_BYTES", panel_bytes)
        panels = graph._panels(b, v, panel_bytes)
        assert len(panels) > 1
        if v == 306:
            assert len(range(v)[panels[-1]]) < len(range(v)[panels[0]])
        assert rel(blocks._symmetric_sum(m, q), want) <= 1e-15


def test_large_symmetric_matrices_take_one_pass():
    # at V = 1024 one matrix is eight 1 MiB panels of 128 rows; a 2 MiB
    # matrix (V = 512) is two, and smaller matrices stay whole
    assert graph._panels(1, 1024, graph.SYMMETRIC_PANEL_BYTES) == [
        slice(i, i + 128) for i in range(0, 1024, 128)]
    assert len(graph._panels(1, 512, graph.SYMMETRIC_PANEL_BYTES)) == 2
    for b, v in ((1, 511), (1, 256), (32, 256), (64, 256), (32, 64), (33, 1024)):
        assert graph._panels(b, v, graph.SYMMETRIC_PANEL_BYTES) == [slice(0, v)]


@pytest.mark.parametrize("variant", ["SNL", "CHEB_K"])
@pytest.mark.parametrize("b", [1, 4])
def test_symmetric_affinity_and_degrees_match_the_dense_route(variant, b):
    # at V = 1024 the products take one pass over M in row panels; A p and
    # the degrees against the public graph route's dense A and degrees
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2)
    rng = np.random.default_rng(61)
    params = blocks.random_params(cfg, rng)
    xs = rng.normal(0.0, 0.5, size=(b, 1024, 4))
    _, t = blocks.block_forward_batch(xs, 32, 32, cfg, params)
    assert len(graph._panels(b, 1024, graph.SYMMETRIC_PANEL_BYTES)) > 1
    m_hat = graph.symmetrize(AffinityMatrix(t.m))
    assert np.abs(t.d - graph.degrees(m_hat.values)).max() <= 1e-13 * t.d.max()
    dense = dense_affinity(cfg, params, xs, 32, 32)
    p = rng.normal(size=(b, 1024, 3))
    got = blocks._t(t.a @ np.ascontiguousarray(blocks._t(p)))
    assert np.abs(got - dense @ p).max() <= 1e-13 * np.abs(dense @ p).max()


@pytest.mark.parametrize("variant", ["SNL", "SNL_A1", "CHEB_K"])
def test_one_panel_stacks_run_two_products_bitwise(variant):
    # a training stack (B = 32, N = 64) is one panel: its symmetric
    # products and its degrees are the two whole products and the two gemv
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2, order=3)
    rng = np.random.default_rng(62)
    params = blocks.random_params(cfg, rng)
    xs = rng.normal(0.0, 0.5, size=(32, 64, 4))
    y, t = blocks.block_forward_batch(xs, 8, 8, cfg, params)
    ones = np.ones(64)
    assert np.array_equal(t.d, 0.5 * (t.m @ ones + ones @ t.m))
    s = 1.0 / np.sqrt(t.d[:, None, :])

    def a(p):
        out = two_products(t.m, s * p)
        out *= 0.5 * s
        return out

    assert all(np.array_equal(t.powers[k + 1], a(t.powers[k])) for k in range(len(t.powers) - 1))
    p = rng.normal(size=(32, 2, 64))
    assert np.array_equal(t.a @ p, a(p))


def test_random_walk_product_stays_finite_at_the_exp_guard():
    # every kernel entry near exp(699): the rows of M z pass the float64
    # range, while A z = (M z)/d is a weighted mean of z and stays finite
    cfg = BlockConfig(variant="NL", c_in=4, c_s=4)
    params = blocks.random_params(cfg, np.random.default_rng(37))
    params.w_phi, params.w_psi, params.w_z = np.eye(4), np.eye(4), 300.0 * np.eye(4)
    x = FeatureMap(8, 8, 4, np.full((64, 4), np.sqrt(699.0 / 2.0)))
    y = blocks.block_forward(x, cfg, params).values
    a = blocks.build_block_affinity(x, cfg, params).values
    w = params.filters["w"]
    want = x.values + blocks.generalized_forward(a, x.values @ params.w_z,
                                                 [np.zeros_like(w), w])
    assert rel(y, want) <= 1e-12


def test_symmetric_dot_domain_is_that_of_the_symmetrized_kernel():
    # M_12 = phi_1 . psi_2 < 0 in both inputs. With the first, M_hat =
    # (M + M^T)/2 has no negative entry, so SNL normalizes it while NL,
    # which normalizes M itself, raises; with the second, M_hat_12 < 0 too
    snl = BlockConfig(variant="SNL", c_in=2, c_s=2, kernel="dot")
    nl = BlockConfig(variant="NL", c_in=2, c_s=2, kernel="dot")
    params = blocks.random_params(snl, np.random.default_rng(36))
    params.w_phi = np.eye(2)
    params.w_psi = np.array([[1.0, 0.0], [-1.5, 1.0]])
    nl_params = BlockParams(params.w_phi, params.w_psi, params.w_z,
                            {"w": params.filters["w1"]})
    m_hat_ok = FeatureMap(1, 2, 2, np.array([[1.0, 0.0], [1.0, 1.0]]))
    m_hat_negative = FeatureMap(1, 2, 2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    y = blocks.block_forward(m_hat_ok, snl, params)
    assert np.isfinite(y.values).all()
    a = blocks.build_block_affinity(m_hat_ok, snl, params).values
    assert a.min() >= 0.0
    with pytest.raises(KernelDomainError):
        blocks.block_forward(m_hat_ok, nl, nl_params)
    for cfg, p in ((snl, params), (nl, nl_params)):
        with pytest.raises(KernelDomainError):
            blocks.block_forward(m_hat_negative, cfg, p)
        with pytest.raises(KernelDomainError):
            blocks.build_block_affinity(m_hat_negative, cfg, p)


# Tape reuse: block_backward reads the tape block_forward held when the
# arguments match byte for byte, and otherwise builds the affinity again.
def count_kernel_builds(monkeypatch) -> list:
    calls = []
    real = graph.kernel_matrix
    monkeypatch.setattr(graph, "kernel_matrix", lambda *args: calls.append(1) or real(*args))
    return calls


def fresh_backward(x, cfg, params, g, monkeypatch):
    """block_backward with no forward before it."""
    monkeypatch.setattr(blocks, "_held", None)
    return blocks.block_backward(x, cfg, params, g)


def assert_same_gradients(got, want):
    (gx, grads), (want_gx, want_grads) = got, want
    assert np.array_equal(gx, want_gx)
    assert list(grads) == list(want_grads)
    for name, ref in want_grads.items():
        assert np.array_equal(grads[name], ref), name


@pytest.mark.parametrize("variant", blocks.VARIANTS)
def test_forward_backward_pair_builds_one_affinity(variant, monkeypatch):
    cfg, params, xs, gs = batch_case(variant, "exp_dot", True, 3, 4)
    x = FeatureMap(3, 4, 4, xs[0])
    want = fresh_backward(x, cfg, params, gs[0], monkeypatch)
    calls = count_kernel_builds(monkeypatch)
    blocks.block_forward(x, cfg, params)
    got = blocks.block_backward(x, cfg, params, gs[0])
    assert len(calls) == 1
    assert blocks._held is None
    assert_same_gradients(got, want)


def count_affinity_operators(monkeypatch) -> list:
    """The normalization of each ``_Affinity`` constructed from now on."""
    built = []

    class Counted(blocks._Affinity):
        __slots__ = ()

        def __init__(self, m, d, mode):
            built.append(mode)
            super().__init__(m, d, mode)

    monkeypatch.setattr(blocks, "_Affinity", Counted)
    return built


@pytest.mark.parametrize("backprop", [True, False])
@pytest.mark.parametrize("variant", blocks.VARIANTS)
def test_tape_carries_the_one_affinity_operator_of_a_pair(variant, backprop, monkeypatch):
    # the forward builds the tape's operator and the backward reads it and
    # its transpose; a frozen-A probe call applies the tape's and builds none
    cfg, params, xs, gs = batch_case(variant, "exp_dot", backprop, 3, 4)
    want_y, want_t = blocks.block_forward_batch(xs, 3, 4, cfg, params)
    want = blocks.block_backward_batch(want_t, cfg, params, gs)
    built = count_affinity_operators(monkeypatch)
    y, t = blocks.block_forward_batch(xs, 3, 4, cfg, params)
    got = blocks.block_backward_batch(t, cfg, params, gs)
    assert built == [blocks._RECIPES[variant].normalization]
    assert np.array_equal(y, want_y)
    assert_same_gradients(got, want)
    probe_y, probe_t = blocks._forward_stack(xs, 3, 4, cfg, params, t.a)
    assert len(built) == 1 and probe_t.a is t.a
    assert np.array_equal(probe_y, y)


def _mutations(cfg, params):
    """(label, change) pairs; each change alters the arguments of a
    backward after the forward and returns them."""
    def in_place(name):
        def change(x, c, p):
            mat = p.filters[name] if name in p.filters else getattr(p, name)
            mat[0, 0] += 0.25
            return x, c, p
        return change

    def bump_x(x, c, p):
        x.values[1, 2] -= 0.25
        return x, c, p

    def flip_backprop(x, c, p):
        c.backprop_affinity = not c.backprop_affinity
        return x, c, p

    def next_order(x, c, p):
        return x, dataclasses.replace(c, order=c.order + 1), p

    out = [("x", bump_x), ("backprop_affinity", flip_backprop)]
    out += [(name, in_place(name)) for name, _ in params.items()]
    if cfg.variant != "CHEB_K":  # CHEB_K's order also sets its filter roles
        out.append(("order", next_order))
    return out


@pytest.mark.parametrize("variant", ["SNL", "CC", "CHEB_K"])
def test_changed_arguments_miss_the_held_tape(variant, monkeypatch):
    cfg, params, xs, gs = batch_case(variant, "exp_dot", True, 3, 4)
    for label, change in _mutations(cfg, params):
        c, p = copy.deepcopy(cfg), copy.deepcopy(params)
        x = FeatureMap(3, 4, 4, xs[0].copy())
        calls = count_kernel_builds(monkeypatch)
        blocks.block_forward(x, c, p)
        x, c, p = change(x, c, p)
        got = blocks.block_backward(x, c, p, gs[0])
        assert len(calls) == 2, label
        assert blocks._held is None
        assert_same_gradients(got, fresh_backward(x, c, p, gs[0], monkeypatch))


def test_held_tape_owns_its_input():
    # the forward's input changes in place, then a backward comes with an
    # unchanged copy: the key matches, and the tape must not read the
    # changed array (CC also filters the raw input)
    cfg, params, xs, gs = batch_case("CC", "exp_dot", True, 3, 4)
    x = FeatureMap(3, 4, 4, xs[0].copy())
    want = blocks.block_backward(FeatureMap(3, 4, 4, xs[0]), cfg, params, gs[0])
    blocks.block_forward(x, cfg, params)
    x.values += 1.0
    got = blocks.block_backward(FeatureMap(3, 4, 4, xs[0]), cfg, params, gs[0])
    assert_same_gradients(got, want)


def test_failed_backward_releases_the_held_tape():
    cfg, params, xs, _ = batch_case("SNL", "exp_dot", True, 3, 4)
    x = FeatureMap(3, 4, 4, xs[0])
    blocks.block_forward(x, cfg, params)
    assert blocks._held is not None
    with pytest.raises(ShapeError):
        blocks.block_backward(x, cfg, params, np.zeros((3, 4)))
    assert blocks._held is None


def test_batch_raises_what_a_bad_sample_raises_alone():
    rng = np.random.default_rng(22)
    snl = BlockConfig(variant="SNL", c_in=4, c_s=2)
    nl_dot = BlockConfig(variant="NL", c_in=4, c_s=2, kernel="dot")
    p_snl = blocks.random_params(snl, rng)
    p_dot = blocks.random_params(nl_dot, rng)
    p_dot.w_phi, p_dot.w_psi = np.abs(p_dot.w_phi), np.abs(p_dot.w_psi)
    normal = rng.normal(0.0, 0.5, size=(4, 9, 4))
    positive = np.abs(normal) + 0.1  # keeps the dot kernel nonnegative
    mixed = positive[0] * np.where(np.arange(9)[:, None] % 2, -1.0, 1.0)
    cases = [
        (snl, p_snl, normal, rng.normal(size=(9, 4)) * 1e4, AffinityOverflowError),
        (snl, p_snl, normal, np.full((9, 4), np.nan), NumericError),
        (nl_dot, p_dot, positive, mixed, KernelDomainError),
        (nl_dot, p_dot, positive, np.zeros((9, 4)), DegenerateVertexError),
    ]
    for cfg, params, good, bad, error in cases:
        with pytest.raises(error):
            blocks.block_forward(FeatureMap(3, 3, 4, bad), cfg, params)
        blocks.block_forward_batch(good, 3, 3, cfg, params)
        stack = good.copy()
        stack[2] = bad
        with pytest.raises(error):
            blocks.block_forward_batch(stack, 3, 3, cfg, params)

    _, tape = blocks.block_forward_batch(normal, 3, 3, snl, p_snl)
    upstream = np.ones_like(normal)
    upstream[1, 0, 0] = np.inf
    with pytest.raises(NumericError):
        blocks.block_backward_batch(tape, snl, p_snl, upstream)


@pytest.mark.parametrize("variant", blocks.VARIANTS)
def test_core_validates_at_its_boundary(variant, monkeypatch):
    # one finiteness pass over the input stack forward and one over the
    # upstream gradient backward; no internal product is validated again
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2)
    rng = np.random.default_rng(41)
    params = blocks.random_params(cfg, rng)
    xs = rng.normal(0.0, 0.5, size=(32, 64, 4))
    calls = {"as_stack": 0, "as_matrix": 0}
    for name in calls:
        def counted(values, name=name, real=getattr(linalg, name)):
            calls[name] += 1
            return real(values)
        monkeypatch.setattr(linalg, name, counted)
    _, tape = blocks.block_forward_batch(xs, 8, 8, cfg, params)
    assert calls == {"as_stack": 1, "as_matrix": 0}
    blocks.block_backward_batch(tape, cfg, params, rng.normal(size=xs.shape))
    assert calls == {"as_stack": 2, "as_matrix": 0}


def test_training_stack_is_one_tape():
    # a training step's 32 kernels are one (32, 64, 64) stack in one tape
    cfg = BlockConfig(variant="SNL", c_in=4, c_s=2)
    rng = np.random.default_rng(43)
    params = blocks.random_params(cfg, rng)
    _, tape = blocks.block_forward_batch(rng.normal(0.0, 0.5, size=(32, 64, 4)), 8, 8, cfg,
                                         params)
    assert isinstance(tape, blocks.Tape)
    assert tape.m.shape == (32, 64, 64)


def test_backward_rejects_a_tape_of_another_config():
    # an NL tape read as SNL would take random-walk degrees for symmetric
    # ones, and an order-2 CHEB_K tape has too few powers for order 4
    rng = np.random.default_rng(45)
    xs = rng.normal(0.0, 0.5, size=(3, 9, 4))
    cases = [(BlockConfig(variant="NL", c_in=4, c_s=2), BlockConfig(variant="SNL", c_in=4, c_s=2)),
             (BlockConfig(variant="CHEB_K", c_in=4, c_s=2, order=2),
              BlockConfig(variant="CHEB_K", c_in=4, c_s=2, order=4))]
    for built, other in cases:
        _, tape = blocks.block_forward_batch(xs, 3, 3, built, blocks.random_params(built, rng))
        with pytest.raises(ConfigError, match="tape was built under"):
            blocks.block_backward_batch(tape, other, blocks.random_params(other, rng),
                                        np.ones_like(xs))


def test_backward_may_flip_backprop_affinity():
    # the forward does not read backprop_affinity: a tape built with it on
    # backpropagates with it off as a tape built with it off does
    rng = np.random.default_rng(46)
    xs = rng.normal(0.0, 0.5, size=(3, 9, 4))
    on = BlockConfig(variant="SNL", c_in=4, c_s=2)
    off = dataclasses.replace(on, backprop_affinity=False)
    params = blocks.random_params(on, rng)
    gs = rng.normal(size=xs.shape)
    _, tape_on = blocks.block_forward_batch(xs, 3, 3, on, params)
    _, tape_off = blocks.block_forward_batch(xs, 3, 3, off, params)
    gx, grads = blocks.block_backward_batch(tape_on, off, params, gs)
    want_gx, want = blocks.block_backward_batch(tape_off, off, params, gs)
    assert np.array_equal(gx, want_gx)
    assert all(np.array_equal(grads[k], want[k]) for k in want)


@pytest.mark.parametrize("variant", ["SNL", "NL", "CC", "CGNL"])
def test_thin_tape_arrays_keep_their_long_axis_last(variant):
    # every thin stack a tape keeps is channel-first, (b, c, V) or
    # (b, c, N), with contiguous rows, so NumPy's inner loops run over the
    # long axis and not over c_s = 2
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2)
    rng = np.random.default_rng(44)
    params = blocks.random_params(cfg, rng)
    xs = rng.normal(0.0, 0.5, size=(32, 64, 4))
    _, t = blocks.block_forward_batch(xs, 8, 8, cfg, params)
    n_vertices = blocks._vertices(cfg, 64)
    thin = {"phi": t.phi, "psi": t.psi, "z": t.z, "z_node": t.z_node}
    thin.update((f"powers[{k}]", p) for k, p in enumerate(t.powers))
    for name, a in thin.items():
        long = 64 if name in ("phi", "psi", "z") else n_vertices
        assert a.shape[0] == 32 and a.shape[1] <= 4 and a.shape[2] == long, name
        assert a.strides[-1] == 8 and a.flags.c_contiguous, name


@pytest.mark.parametrize("variant", ["NL", "SNL", "CGNL"])
def test_each_tile_calls_the_public_embed_and_kernel_once(variant, monkeypatch):
    # per-stage profiles time the core through blocks.embed and
    # graph.kernel_matrix: a forward of 10 samples calls each once
    calls = {"embed": 0, "kernel_matrix": 0}
    for module, name in ((blocks, "embed"), (graph, "kernel_matrix")):
        def counted(*args, _name=name, _real=getattr(module, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    cfg, params, xs, _ = batch_case(variant, "exp_dot", True, 3, 4, b=10)
    blocks.block_forward_batch(xs, 3, 4, cfg, params)
    assert calls == {"embed": 1, "kernel_matrix": 1}


@pytest.mark.parametrize("variant", ["A2", "NL", "SNL"])
def test_dot_kernel_overflow_is_a_numeric_error(variant):
    # phi psi^T overflows to inf at this scale; nonnegative features keep
    # the dot kernel inside the normalization domain, so the typed error
    # comes from the non-finite affinity, not from a negative entry
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2, kernel="dot")
    rng = np.random.default_rng(42)
    params = blocks.random_params(cfg, rng)
    params.w_phi, params.w_psi = np.abs(params.w_phi), np.abs(params.w_psi)
    xs = 1e170 * (np.abs(rng.normal(0.0, 0.5, size=(3, 9, 4))) + 0.1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
        blocks.block_forward_batch(xs, 3, 3, cfg, params)
