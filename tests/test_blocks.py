import copy

import numpy as np
import pytest

from snl import blocks, gradcheck, graph, linalg
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
from snl.graph import FeatureMap


def make_input(rng, h=3, w=3, c=4, positive=False):
    vals = rng.normal(0.0, 0.5, size=(h * w, c))
    if positive:
        vals = np.abs(vals) + 0.1
    return FeatureMap(h, w, c, vals)


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
    assert blocks.filter_shape(BlockConfig(variant="NL", c_in=4, c_s=2), "w") == (2, 4)
    assert blocks.filter_shape(BlockConfig(variant="CC", c_in=4, c_s=2), "w") == (4, 4)


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
            st = blocks._affinity_state(x, cfg, params)
            w = params.filters["w"]
            if variant == "NS":
                weights = [-w, w]
            else:
                weights = [np.zeros_like(w), w]
            want = blocks.generalized_forward(st.a.values, st.z_node, weights)
            got = blocks._operator_forward(x, cfg, params, st)
            assert np.array_equal(got, want) or linalg.rel_error(got, want) <= 1e-12


def test_unification_cgnl_flattened_graph():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = make_input(rng, positive=True)
        cfg = BlockConfig(variant="CGNL", c_in=4, c_s=2)
        params = blocks.random_params(cfg, np.random.default_rng(seed + 200))
        st = blocks._affinity_state(x, cfg, params)
        weights = [np.zeros((1, 1)), np.ones((1, 1))]
        fv = blocks.generalized_forward(st.a.values, st.v, weights)
        want = graph.unflatten_spatial_channel(fv, x.n_positions, cfg.c_s) @ params.filters["w"]
        got = blocks._operator_forward(x, cfg, params, st)
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
        st = blocks._affinity_state(x, ns_cfg, nl_params)
        cheb_ns = x.values + blocks.generalized_forward(st.a.values, st.z, [-w, w])
        assert linalg.rel_error(ns_out, cheb_ns) <= 1e-12

        # NL(W) == CHEB_K(K=2, W1=0) on the same affinity
        nl_out = blocks.block_forward(x, nl_cfg, nl_params).values
        st = blocks._affinity_state(x, nl_cfg, nl_params)
        cheb_nl = x.values + blocks.generalized_forward(st.a.values, st.z, [np.zeros_like(w), w])
        assert linalg.rel_error(nl_out, cheb_nl) <= 1e-12


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


def batch_case(variant, kernel, backprop, h, w, seed=20, b=3):
    cfg = BlockConfig(variant=variant, c_in=4, c_s=2, order=3, kernel=kernel,
                      backprop_affinity=backprop)
    rng = np.random.default_rng(seed)
    params = blocks.random_params(cfg, rng)
    xs = rng.normal(0.0, 0.5, size=(b, h * w, 4))
    return cfg, params, xs, rng.normal(size=xs.shape)


def rel(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


@pytest.mark.parametrize("tile_bytes", [blocks.TILE_BYTES, 1])  # 1: one sample per tile
@pytest.mark.parametrize("variant,kernel,backprop,h,w", BATCH_CASES)
def test_batched_core_matches_single_samples(variant, kernel, backprop, h, w, tile_bytes,
                                             monkeypatch):
    monkeypatch.setattr(blocks, "TILE_BYTES", tile_bytes)
    cfg, params, xs, gs = batch_case(variant, kernel, backprop, h, w)
    y, tapes = blocks.block_forward_batch(xs, h, w, cfg, params)
    gx, grads = blocks.block_backward_batch(tapes, cfg, params, gs)
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


@pytest.mark.parametrize(
    "variant,kernel", [(v, "exp_dot") for v in blocks.VARIANTS] + [("A2", "dot")]
)
def test_batched_backward_finite_differences(variant, kernel):
    # L = sum(G * Y) over the whole stack; every input entry and parameter
    # entry checked by central differences
    cfg, params, xs, gs = batch_case(variant, kernel, True, 3, 4, seed=21, b=2)
    loss = lambda v, p: float(np.sum(gs * blocks.block_forward_batch(v, 3, 4, cfg, p)[0]))
    _, tapes = blocks.block_forward_batch(xs, 3, 4, cfg, params)
    gx, grads = blocks.block_backward_batch(tapes, cfg, params, gs)
    scale = max(np.abs(gx).max(), *(np.abs(g).max() for g in grads.values()))
    num = gradcheck.finite_diff(lambda v: loss(v, params), xs, 1e-6)
    assert np.max(np.abs(num - gx)) <= 1e-7 * scale
    for name, mat in params.items():
        def loss_at(v, name=name):
            p = copy.deepcopy(params)
            if name in p.filters:
                p.filters[name] = v
            else:
                setattr(p, name, v)
            return loss(xs, p)
        num = gradcheck.finite_diff(loss_at, mat, 1e-6)
        assert np.max(np.abs(num - grads[name])) <= 1e-7 * scale, name


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

    _, tapes = blocks.block_forward_batch(normal, 3, 3, snl, p_snl)
    upstream = np.ones_like(normal)
    upstream[1, 0, 0] = np.inf
    with pytest.raises(NumericError):
        blocks.block_backward_batch(tapes, snl, p_snl, upstream)
