import numpy as np
import pytest

from snl import graph
from snl.errors import (
    AffinityOverflowError,
    DegenerateVertexError,
    KernelDomainError,
    PreconditionError,
    ShapeError,
)
from snl.graph import AffinityMatrix, FeatureMap


def rand_affinity(rng, n, c=3):
    phi = rng.normal(0.0, 0.4, size=(n, c))
    psi = rng.normal(0.0, 0.4, size=(n, c))
    return graph.compute_affinity(phi, psi, "exp_dot")


def test_feature_map_grid_roundtrip():
    rng = np.random.default_rng(0)
    fm = FeatureMap(3, 4, 2, rng.normal(size=(12, 2)))
    assert fm.n_positions == 12


def test_feature_map_shape_check():
    with pytest.raises(ShapeError):
        FeatureMap(3, 4, 2, np.zeros((11, 2)))


@pytest.mark.parametrize("h,w,values", [(-1, -3, np.ones((3, 4))), (0, 3, np.zeros((0, 4))),
                                        (3, 0, np.zeros((0, 4)))])
def test_feature_map_rejects_grids_without_positions(h, w, values):
    # a -1 x -3 "grid" of 3 positions is no grid
    with pytest.raises(ShapeError, match="no positions"):
        FeatureMap(h, w, 4, values)


@pytest.mark.parametrize("kernel", graph.KERNELS)
@pytest.mark.parametrize("shape", [(0, 2), (3, 0, 2), (0, 3, 2), (0, 256, 2)])
def test_empty_embeddings_raise_shape_error(kernel, shape):
    # no rows, or an empty stack of small or of panelled matrices
    with pytest.raises(ShapeError, match="empty"):
        graph.kernel_matrix(np.zeros(shape), np.zeros(shape), kernel)
    with pytest.raises(ShapeError, match="empty"):
        graph.compute_affinity(np.zeros(shape), np.zeros(shape), kernel)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 3, 3)])
def test_degrees_of_an_empty_graph_raise_shape_error(shape):
    with pytest.raises(ShapeError, match="empty"):
        graph.degrees(np.zeros(shape))


def one_product_kernel(phi, psi):
    """exp_dot as one product of the whole stack, then one in-place exp."""
    s = (phi / np.sqrt(phi.shape[-1])) @ psi.swapaxes(-1, -2)
    return np.exp(s, out=s)


# a 16x16 grid: a 256-vertex matrix (512 KiB) holds two panels
PANEL_N = 256


@pytest.mark.parametrize("shape", [(PANEL_N, 4), (1, PANEL_N, 4), (2, PANEL_N, 4)])
def test_expdot_panels_match_one_product_bitwise(shape):
    b = 1 if len(shape) == 2 else shape[0]
    assert len(graph._panels(b, PANEL_N)) > 1
    rng = np.random.default_rng(3)
    phi, psi = rng.normal(size=shape), rng.normal(size=shape)
    got = graph.kernel_matrix(phi, psi, "exp_dot")
    assert got.shape == shape[:-1] + (PANEL_N,)
    assert np.array_equal(got, one_product_kernel(phi, psi))


@pytest.mark.parametrize("hot_rows", [[-1], [0, -1], [-1, 0]])
def test_expdot_guard_names_the_stack_max_across_panels(hot_rows):
    # exponents past the guard in the last panel, or in the first panel
    # with the larger one in the last: the message names the largest
    # exponent of the whole stack, as one product's max does
    rng = np.random.default_rng(4)
    phi = rng.normal(0.0, 0.3, size=(2, PANEL_N, 4))
    psi = rng.normal(0.0, 0.3, size=(2, PANEL_N, 4))
    psi[1, 5] = 40.0
    for scale, row in zip((30.0, 45.0), hot_rows):
        phi[1, row] = scale
    s = (phi / 2.0) @ psi.swapaxes(-1, -2)
    assert s[:, graph._panels(2, PANEL_N)[-1]].max() > graph.EXP_GUARD
    want = f"exp_dot exponent {float(s.max()):.3g} exceeds guard {graph.EXP_GUARD:g}"
    with pytest.raises(AffinityOverflowError) as exc:
        graph.kernel_matrix(phi, psi, "exp_dot")
    assert str(exc.value) == want


def test_small_stacks_are_one_panel():
    # a training stack (B=32, V=64, 1 MiB), every oracle case and any
    # matrix of less than two panels (V < 256) stay whole
    for b, n in ((1, 64), (32, 64), (150, 64), (1, 255), (32, 196)):
        assert graph._panels(b, n) == [slice(0, n)]
    assert graph._panels(1, 256) == [slice(0, 128), slice(128, 256)]
    assert graph._panels(1, 1024) == [slice(i, i + 32) for i in range(0, 1024, 32)]


def test_stacks_of_many_matrices_are_one_panel():
    # past PANEL_MATRICES matrices a stack stays whole at any V
    assert len(graph._panels(graph.PANEL_MATRICES, 256)) == 64
    for b, n in ((graph.PANEL_MATRICES + 1, 256), (126, 1024)):
        assert graph._panels(b, n) == [slice(0, n)]


@pytest.mark.parametrize("kernel", graph.KERNELS)
@pytest.mark.parametrize("shape", [(1024, 1), (1, 1024, 1), (3, 36, 1), (36, 1)])
def test_one_channel_kernel_is_the_unpadded_product_bitwise(kernel, shape):
    # CGNL's vec(Z) has one channel: the kernel takes it with a zero second
    # column, which adds +0.0 to each entry and exp(0) = 1 to each exponent
    rng = np.random.default_rng(5)
    phi, psi = rng.normal(size=shape), rng.normal(size=shape)
    product = phi @ psi.swapaxes(-1, -2)
    want = product if kernel == "dot" else np.exp(product)
    got = graph.kernel_matrix(phi, psi, kernel)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_kernel_dot_matches_manual():
    rng = np.random.default_rng(1)
    phi = rng.normal(size=(5, 3))
    psi = rng.normal(size=(5, 3))
    assert np.allclose(graph.kernel_matrix(phi, psi, "dot"), phi @ psi.T, atol=1e-15)


def test_kernel_expdot_matches_manual():
    rng = np.random.default_rng(2)
    phi = rng.normal(size=(6, 2))
    psi = rng.normal(size=(6, 2))
    want = np.exp(phi @ psi.T / np.sqrt(2.0))
    assert np.allclose(graph.kernel_matrix(phi, psi, "exp_dot"), want, rtol=1e-14)


def test_kernel_expdot_overflow_guard():
    big = np.full((2, 1), 1.0e3)
    with pytest.raises(AffinityOverflowError):
        graph.kernel_matrix(big, big, "exp_dot")


def test_symmetrize_bit_exact():
    rng = np.random.default_rng(3)
    m = rand_affinity(rng, 7)
    sym = graph.symmetrize(m)
    assert np.array_equal(sym.values, sym.values.T)


def test_symmetrize_rejects_normalized():
    rng = np.random.default_rng(4)
    a = graph.normalize(rand_affinity(rng, 5), "random_walk")
    with pytest.raises(PreconditionError):
        graph.symmetrize(a)


def test_degrees_negative_kernel():
    with pytest.raises(KernelDomainError):
        graph.degrees(np.array([[1.0, -0.5], [0.2, 1.0]]))


def test_degrees_degenerate_vertex():
    with pytest.raises(DegenerateVertexError):
        graph.degrees(np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_random_walk_rows_sum_to_one():
    rng = np.random.default_rng(5)
    a = graph.normalize(rand_affinity(rng, 9), "random_walk")
    assert np.max(np.abs(a.values.sum(axis=1) - 1.0)) < 1e-12


def test_symmetric_normalization_exactly_symmetric():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = graph.normalize(graph.symmetrize(rand_affinity(rng, 8)), "symmetric")
        assert np.array_equal(a.values, a.values.T)


def test_symmetric_normalization_requires_symmetrize():
    rng = np.random.default_rng(7)
    with pytest.raises(PreconditionError):
        graph.normalize(rand_affinity(rng, 5), "symmetric")


def test_symmetric_normalization_judges_the_data():
    # an exactly symmetric matrix is accepted however it was built, and an
    # asymmetric one is rejected
    rng = np.random.default_rng(9)
    sym = graph.symmetrize(rand_affinity(rng, 6)).values
    a = graph.normalize(AffinityMatrix(sym), "symmetric")
    assert a.normalization == "symmetric"
    assert np.array_equal(a.values, a.values.T)
    asym = sym.copy()
    asym[0, 1] += 0.25
    with pytest.raises(PreconditionError):
        graph.normalize(AffinityMatrix(asym), "symmetric")


def test_symmetric_spectrum_in_unit_interval():
    rng = np.random.default_rng(8)
    a = graph.normalize(graph.symmetrize(rand_affinity(rng, 12)), "symmetric")
    lam = np.linalg.eigvalsh(a.values)
    assert lam.min() >= -1.0 - 1e-12 and lam.max() <= 1.0 + 1e-12


def test_crisscross_mask_row_sums():
    for h, w in ((3, 3), (2, 5), (4, 1)):
        mask = graph.crisscross_mask(h, w)
        assert np.all(mask.sum(axis=1) == h + w - 1)
        assert np.array_equal(mask, mask.T)
        assert np.all(np.diag(mask) == 1.0)


def test_crisscross_mask_is_built_once_per_grid():
    first = graph.crisscross_mask(5, 7)
    first[0, 0] = 0.0  # the returned array is the caller's own
    again = graph.crisscross_mask(5, 7)
    assert again.dtype == np.float64 and again[0, 0] == 1.0
    assert set(np.unique(again)) == {0.0, 1.0}
    cached = graph._crisscross(5, 7)
    assert cached is graph._crisscross(5, 7)
    assert cached.dtype == bool and not cached.flags.writeable
    assert np.array_equal(cached, again)
    with pytest.raises(ShapeError):
        graph.crisscross_mask(0, 3)


@pytest.mark.parametrize("shape", [(150, 150), (3, 70, 70)])  # past one block of rows
def test_normalize_keeps_its_input_and_scales_by_the_outer_product(shape):
    rng = np.random.default_rng(10)
    raw = np.exp(rng.normal(0.0, 0.5, size=shape))
    sym = graph.symmetrize(AffinityMatrix(raw)).values
    before = sym.copy()
    got = graph.normalize(AffinityMatrix(sym), "symmetric").values
    assert np.array_equal(sym, before)
    s = 1.0 / np.sqrt(sym.sum(axis=-1))
    assert np.array_equal(got, (s[..., :, None] * s[..., None, :]) * sym)
    walk = graph.normalize(AffinityMatrix(raw), "random_walk").values
    assert np.array_equal(walk, raw / raw.sum(axis=-1)[..., :, None])


def test_flatten_is_column_major_and_roundtrips():
    z = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
    v = graph.flatten_spatial_channel(z)
    assert v.shape == (6, 1)
    assert np.array_equal(v.ravel(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert np.array_equal(graph.unflatten_spatial_channel(v, 3, 2), z)


def test_unflatten_size_check():
    with pytest.raises(ShapeError):
        graph.unflatten_spatial_channel(np.zeros((5, 1)), 3, 2)


def test_heatmap_minmax_and_constant_row():
    img = graph.heatmap_image(np.array([0.0, 0.5, 1.0, 0.25]), 2, 2)
    assert img.dtype == np.uint8
    assert img.min() == 0 and img.max() == 255
    flat = graph.heatmap_image(np.full(4, 3.3), 2, 2)
    assert np.all(flat == 0)


def test_write_pgm_format(tmp_path):
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = tmp_path / "img.pgm"
    graph.write_pgm(img, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n3 2\n255\n")
    assert raw[-6:] == bytes(range(6))
