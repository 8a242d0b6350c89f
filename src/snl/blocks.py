"""Unified nonlocal block variants: forward and analytic backward passes.

Every variant builds an affinity matrix over embedded features and applies
a (low-order) polynomial of it to a node signal, plus a residual
connection. One batched core serves all variants: ``block_forward_batch``
takes a (B, N, C) stack and returns the output with a ``Tape`` of
intermediates, which ``block_backward_batch`` reads, so the affinity is
built once per forward/backward pair. ``block_forward`` and
``block_backward`` are B=1 calls of the core on a ``FeatureMap``.
``generalized_forward`` is the generic polynomial routine the variant
forwards are checked against.
"""

from dataclasses import dataclass, field, replace
import json
import os

import numpy as np

from . import graph, linalg
from .errors import ConfigError, NumericError, PreconditionError, ShapeError
from .graph import AffinityMatrix, FeatureMap

VARIANTS = ("NL", "NS", "A2", "CGNL", "CC", "SNL", "SNL_A1", "SNL_A2", "CHEB_K")

# desk-scale guard for the flattened (position, channel) graph
CGNL_MAX_VERTICES = 4096

_CONFIG_KEYS = ("variant", "c_in", "c_s", "order", "kernel", "backprop_affinity")


@dataclass
class BlockConfig:
    """Variant tag plus channel sizes, polynomial order, and affinity options."""

    variant: str
    c_in: int
    c_s: int
    order: int = 2
    kernel: str = "exp_dot"
    backprop_affinity: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not (1 <= self.c_s <= self.c_in):
            raise ConfigError(f"need 1 <= c_s <= c_in, got c_s={self.c_s}, c_in={self.c_in}")
        if self.kernel not in graph.KERNELS:
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        if self.variant == "CHEB_K" and self.order < 2:
            raise ConfigError(f"CHEB_K needs order >= 2, got {self.order}")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _CONFIG_KEYS}

    @classmethod
    def from_dict(cls, d: dict) -> "BlockConfig":
        unknown = set(d) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown block config keys: {sorted(unknown)}")
        missing = {"variant", "c_in", "c_s"} - set(d)
        if missing:
            raise ConfigError(f"missing block config keys: {sorted(missing)}")
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "BlockConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid block config JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ConfigError("block config JSON must be an object")
        return cls.from_dict(d)


def filter_roles(cfg: BlockConfig) -> list[str]:
    """Names of the filter weight matrices a variant owns."""
    return list(dict.fromkeys(role for _, role, _ in _variant_terms(cfg)))


def filter_shape(cfg: BlockConfig, role: str) -> tuple[int, int]:
    # CC aggregates the raw input (node feature X), so its weight maps C1 -> C1
    if cfg.variant == "CC":
        return (cfg.c_in, cfg.c_in)
    return (cfg.c_s, cfg.c_in)


@dataclass
class BlockParams:
    """Projection embeddings plus the variant's filter weights."""

    w_phi: np.ndarray
    w_psi: np.ndarray
    w_z: np.ndarray
    filters: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.w_phi = linalg.as_matrix(self.w_phi)
        self.w_psi = linalg.as_matrix(self.w_psi)
        self.w_z = linalg.as_matrix(self.w_z)
        self.filters = {k: linalg.as_matrix(v) for k, v in self.filters.items()}

    def items(self) -> list[tuple[str, np.ndarray]]:
        """Fixed parameter order (projections first, then filter weights)."""
        out = [("w_phi", self.w_phi), ("w_psi", self.w_psi), ("w_z", self.w_z)]
        out.extend(self.filters.items())
        return out


def check_params(cfg: BlockConfig, params: BlockParams) -> None:
    proj = (cfg.c_in, cfg.c_s)
    for name in ("w_phi", "w_psi", "w_z"):
        if getattr(params, name).shape != proj:
            raise ShapeError(f"{name} has shape {getattr(params, name).shape}, want {proj}")
    roles = filter_roles(cfg)
    if sorted(params.filters) != sorted(roles):
        raise ConfigError(f"filter roles {sorted(params.filters)} != {sorted(roles)}")
    for role in roles:
        want = filter_shape(cfg, role)
        if params.filters[role].shape != want:
            raise ShapeError(f"{role} has shape {params.filters[role].shape}, want {want}")


def init_params(cfg: BlockConfig, rng: np.random.Generator) -> BlockParams:
    """Projections uniform in [-1/sqrt(C1), 1/sqrt(C1)]; filter weights zero.

    Zero filter weights make every block start as the identity, the usual
    stable initialization for residual insertion.
    """
    bound = 1.0 / np.sqrt(cfg.c_in)
    proj = lambda: rng.uniform(-bound, bound, size=(cfg.c_in, cfg.c_s))
    filters = {r: np.zeros(filter_shape(cfg, r)) for r in filter_roles(cfg)}
    return BlockParams(proj(), proj(), proj(), filters)


def random_params(cfg: BlockConfig, rng: np.random.Generator, scale: float = 0.5) -> BlockParams:
    """All parameter matrices drawn uniform; used by gradient checks."""
    bound = scale / np.sqrt(cfg.c_in)
    draw = lambda shape: rng.uniform(-bound, bound, size=shape)
    filters = {r: draw(filter_shape(cfg, r)) for r in filter_roles(cfg)}
    return BlockParams(
        draw((cfg.c_in, cfg.c_s)),
        draw((cfg.c_in, cfg.c_s)),
        draw((cfg.c_in, cfg.c_s)),
        filters,
    )


def save_params(params: BlockParams, out_dir: str) -> None:
    """Binary matrices plus a JSON manifest listing matrix roles."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {}
    for name, mat in params.items():
        fname = f"{name}.mat"
        linalg.save_binary(mat, os.path.join(out_dir, fname))
        manifest[name] = fname
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump({"matrices": manifest}, fh, indent=2, sort_keys=True)


def load_params(in_dir: str) -> BlockParams:
    with open(os.path.join(in_dir, "manifest.json")) as fh:
        manifest = json.load(fh)["matrices"]
    mats = {name: linalg.load_binary(os.path.join(in_dir, f)) for name, f in manifest.items()}
    try:
        w_phi = mats.pop("w_phi")
        w_psi = mats.pop("w_psi")
        w_z = mats.pop("w_z")
    except KeyError as exc:
        raise ConfigError(f"params manifest missing projection {exc}") from exc
    return BlockParams(w_phi, w_psi, w_z, mats)


def embed(values: np.ndarray, params: BlockParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-position linear projections phi, psi, Z (1x1 convolutions) of
    (N, C_in) values or a (B, N, C_in) stack."""
    if values.shape[-1] != params.w_phi.shape[0]:
        raise ShapeError(
            f"feature map has {values.shape[-1]} channels, projections expect "
            f"{params.w_phi.shape[0]}"
        )
    return values @ params.w_phi, values @ params.w_psi, values @ params.w_z


# The variant table. Each variant normalizes its affinity one way (a
# graph.normalize mode, or "none") and sums polynomial terms
# sign * A^k Z_node W_role (see _variant_terms). The node signal Z_node is
# Z, except the raw input X for CC and the flattened (position, channel)
# signal v for CGNL, whose filtered signal is reshaped before W.
_NORMALIZATION = {
    "NL": "random_walk",
    "NS": "random_walk",
    "A2": "none",
    "CGNL": "random_walk",
    "CC": "random_walk",
    "SNL": "symmetric",
    "SNL_A1": "symmetric",
    "SNL_A2": "random_walk",
    "CHEB_K": "symmetric",
}


def _variant_terms(cfg: BlockConfig) -> list[tuple[int, str, float]]:
    """Polynomial terms (power k, filter role, sign) of a variant."""
    if cfg.variant in ("NL", "A2", "SNL_A1", "CC", "CGNL"):
        return [(1, "w", 1.0)]
    if cfg.variant == "NS":
        return [(0, "w", -1.0), (1, "w", 1.0)]
    if cfg.variant in ("SNL", "SNL_A2"):
        return [(0, "w1", 1.0), (1, "w2", 1.0)]
    return [(k, f"w{k + 1}", 1.0) for k in range(cfg.order)]  # CHEB_K


class Tape:
    """Intermediates of one tile of a batched forward pass, read by the
    backward pass.

    Arrays carry the tile's batch axis first: x (B, N, C_in); phi, psi, z
    (B, N, C_s); v the flattened (B, N*C_s, 1) signal (CGNL only); m the
    raw kernel (B, V, V) over the V graph vertices (V = N, or N*C_s for
    CGNL); a the normalized affinity stack with its degrees; z_node the
    signal the polynomial filters and powers[k] = A^k z_node. mask is the
    (N, N) criss-cross mask all samples share (CC only).
    """

    __slots__ = ("x", "phi", "psi", "z", "v", "m", "mask", "a", "z_node", "powers")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, None)

    def sample(self, b: int) -> "Tape":
        """Sample ``b``'s affinity-stage intermediates as 2-D arrays, its
        affinity as an (N, N) AffinityMatrix."""
        out = Tape()
        for name in ("x", "phi", "psi", "z", "v", "m", "z_node"):
            value = getattr(self, name)
            setattr(out, name, None if value is None else value[b])
        out.mask = self.mask
        degrees = None if self.a.degrees is None else self.a.degrees[b]
        out.a = replace(self.a, values=self.a.values[b], degrees=degrees)
        return out


def _check_stack(values, height: int, width: int) -> np.ndarray:
    xv = linalg.as_stack(values)
    if xv.shape[0] == 0:
        raise ShapeError("empty batch")
    if xv.shape[1] != height * width:
        raise ShapeError(
            f"batch has {xv.shape[1]} positions, a {height}x{width} grid has "
            f"{height * width}"
        )
    return xv


def _build_affinity(xv, height: int, width: int, cfg: BlockConfig, params: BlockParams) -> Tape:
    """Embed, kernel, mask or symmetrize, and normalize a validated stack."""
    t = Tape()
    t.x = xv
    t.phi, t.psi, t.z = embed(xv, params)
    if cfg.variant == "CGNL":
        if height * width * cfg.c_s > CGNL_MAX_VERTICES:
            raise PreconditionError(
                f"CGNL flattened graph has {height * width * cfg.c_s} vertices "
                f"(> {CGNL_MAX_VERTICES})"
            )
        t.v = graph.flatten_spatial_channel(t.z)
        t.m = graph.kernel_matrix(t.v, t.v, cfg.kernel)
        t.z_node = t.v
    else:
        t.m = graph.kernel_matrix(t.phi, t.psi, cfg.kernel)
        t.z_node = xv if cfg.variant == "CC" else t.z

    if cfg.variant == "CC":
        t.mask = graph.crisscross_mask(height, width)
        raw = AffinityMatrix(t.mask * t.m, cfg.kernel, mask_applied=True)
    else:
        raw = AffinityMatrix(t.m, cfg.kernel)
    mode = _NORMALIZATION[cfg.variant]
    if mode == "symmetric":
        raw = graph.symmetrize(raw)
    t.a = raw if mode == "none" else graph.normalize(raw, mode)
    return t


def _filter(cfg: BlockConfig, params: BlockParams, a, z_node, n_positions: int):
    """F(A, Z) of a batch, and the powers A^k z_node it applied."""
    if cfg.variant == "CGNL":
        # filter on the flattened graph, reshape, then map back to C1
        av = a @ z_node
        o = graph.unflatten_spatial_channel(av, n_positions, cfg.c_s)
        return o @ params.filters["w"], [z_node, av]
    terms = _variant_terms(cfg)
    powers = [z_node]
    for _ in range(max(k for k, _, _ in terms)):
        powers.append(a @ powers[-1])
    f = None
    for k, role, sign in terms:
        term = powers[k] @ (sign * params.filters[role])
        f = term if f is None else f + term
    return f, powers


# The core runs over tiles of samples whose (V, V) affinity arrays hold at
# most TILE_BYTES each: 8 samples at N = 64. About a dozen elementwise
# passes touch every affinity entry per forward and backward. Tiles this
# size stay in cache, and the allocator reuses their freed buffers instead
# of mapping fresh pages, which halved the B = 32, N = 64 block step on a
# 2-core Xeon VM against one (32, 64, 64) stack.
TILE_BYTES = 256 * 1024


def _tiles(batch: int, cfg: BlockConfig, n_positions: int) -> list[slice]:
    """Consecutive sample ranges, each one tile of the batch."""
    n_vertices = n_positions * cfg.c_s if cfg.variant == "CGNL" else n_positions
    per_tile = max(1, TILE_BYTES // (8 * n_vertices * n_vertices))
    return [slice(i, i + per_tile) for i in range(0, batch, per_tile)]


def block_forward_batch(
    values: np.ndarray, height: int, width: int, cfg: BlockConfig, params: BlockParams
) -> tuple[np.ndarray, list[Tape]]:
    """Residual forward pass Y = X + F(A, Z) of a stack of B feature maps.

    ``values`` is (B, H*W, C_in), each sample in row-major grid order, and
    is validated once here. Each sample gets its own (N, N) affinity; they
    are built as (b, N, N) stacks over tiles of b samples. Returns Y
    (B, H*W, C_in) and the tiles' Tapes, which ``block_backward_batch``
    reads, so the affinity is built once per forward/backward pair.
    """
    check_params(cfg, params)
    xv = _check_stack(values, height, width)
    n = height * width
    tapes, fs = [], []
    for tile in _tiles(xv.shape[0], cfg, n):
        t = _build_affinity(xv[tile], height, width, cfg, params)
        f, t.powers = _filter(cfg, params, t.a.values, t.z_node, n)
        tapes.append(t)
        fs.append(f)
    y = xv + np.concatenate(fs)
    if not np.isfinite(y).all():
        raise NumericError("block output contains non-finite entries")
    return y, tapes


def _affinity_state(x: FeatureMap, cfg: BlockConfig, params: BlockParams) -> Tape:
    """One sample's affinity-stage tape as 2-D arrays (a B=1 call)."""
    xv = _check_stack(x.values[None], x.height, x.width)
    return _build_affinity(xv, x.height, x.width, cfg, params).sample(0)


def _operator_forward(x: FeatureMap, cfg: BlockConfig, params: BlockParams, st: Tape) -> np.ndarray:
    """F(A, Z) of one sample from its tape; ``st.a`` may be replaced."""
    f, _ = _filter(cfg, params, st.a.values[None], st.z_node[None], x.n_positions)
    return f[0]


def build_block_affinity(x: FeatureMap, cfg: BlockConfig, params: BlockParams) -> AffinityMatrix:
    """The affinity matrix a variant aggregates with (see ``VARIANTS``)."""
    check_params(cfg, params)
    return _affinity_state(x, cfg, params).a


def generalized_forward(
    a_values: np.ndarray, z_node: np.ndarray, weights: list[np.ndarray]
) -> np.ndarray:
    """Generic polynomial operator: Z W_1 + A Z W_2 + sum_k A^k Z W_{k+1}.

    Powers are applied by iterated multiplication; A^k is never formed.
    """
    a_values = linalg.as_matrix(a_values)
    z_node = linalg.as_matrix(z_node)
    out = z_node @ weights[0]
    cur = z_node
    for k in range(1, len(weights)):
        cur = a_values @ cur
        out = out + cur @ weights[k]
    return out


def block_forward(x: FeatureMap, cfg: BlockConfig, params: BlockParams) -> FeatureMap:
    """Residual forward pass Y = X + F(A, Z) per the variant's formula."""
    y, _ = block_forward_batch(x.values[None], x.height, x.width, cfg, params)
    return FeatureMap(x.height, x.width, x.channels, y[0])


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack."""
    return a.swapaxes(-1, -2)


def _normalization_backward(t: Tape, g_a: np.ndarray) -> np.ndarray:
    """Gradient through degree normalization: dL/dA -> dL/dM (raw kernel).

    Works in place where it can, to keep the tile's working set small;
    ``g_a`` may be overwritten.
    """
    a = t.a.values
    if t.a.normalization == "none":
        return g_a
    d = t.a.degrees
    ga_a = g_a * a
    if t.a.normalization == "random_walk":
        # A_ij = M_ij / d_i with d_i the row sum (quotient rule)
        r = ga_a.sum(axis=-1)
        g_m = np.subtract(g_a, r[..., :, None], out=ga_a)
        g_m /= d[..., :, None]
        if t.mask is not None:
            g_m *= t.mask
        return g_m
    # symmetric: A = M_hat * s s^T with s = d^-1/2, d the row sums of M_hat
    s = 1.0 / np.sqrt(d)
    row = ga_a.sum(axis=-1)
    col = ga_a.sum(axis=-2)
    g_mhat = s[..., :, None] * s[..., None, :]
    g_mhat *= g_a
    g_mhat -= ((row + col) / (2.0 * d))[..., :, None]
    g_m = np.add(g_mhat, _t(g_mhat), out=ga_a)
    g_m *= 0.5
    return g_m


def block_backward_batch(
    tapes: list[Tape], cfg: BlockConfig, params: BlockParams, upstream_grad: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Analytic gradients of a batched forward pass, read from its Tapes.

    Returns dL/dX as a (B, N, C_in) stack and, per parameter, the sum of
    the B per-sample gradients. That batch sum is the only reduction
    across samples; it adds them in sample order, so repeated runs agree
    bit for bit. With ``backprop_affinity`` the gradient also flows
    through the kernel, mask, symmetrization, and degree normalization;
    otherwise A is treated as a constant.
    """
    check_params(cfg, params)
    g = linalg.as_stack(upstream_grad)
    want = (sum(t.x.shape[0] for t in tapes),) + tapes[0].x.shape[1:]
    if g.shape != want:
        raise ShapeError(f"upstream grad {g.shape} vs output {want}")
    gx, per_sample = [], {}
    start = 0
    for tape in tapes:
        stop = start + tape.x.shape[0]
        gx_tile, per_tile = _tile_backward(tape, cfg, params, g[start:stop])
        gx.append(gx_tile)
        for name, grad in per_tile.items():
            per_sample.setdefault(name, []).append(grad)
        start = stop
    # the per-sample gradients are added in sample order
    grads = {
        name: np.concatenate(per_sample[name]).sum(axis=0) if name in per_sample
        else np.zeros_like(mat)
        for name, mat in params.items()
    }
    return np.concatenate(gx), grads


def _tile_backward(tape: Tape, cfg: BlockConfig, params: BlockParams, g: np.ndarray):
    """dL/dX of one tile and each parameter's per-sample gradients."""
    want_ga = cfg.backprop_affinity
    a_t = _t(tape.a.values)
    per_sample = {}
    gx = g.copy()
    g_phi = g_psi = None

    if cfg.variant == "CGNL":
        n = tape.x.shape[1]
        o = graph.unflatten_spatial_channel(tape.powers[1], n, cfg.c_s)
        per_sample["w"] = _t(o) @ g
        q = graph.flatten_spatial_channel(g @ params.filters["w"].T)
        gv = a_t @ q
        if want_ga:
            g_s = _normalization_backward(tape, q @ _t(tape.v))
            if cfg.kernel == "exp_dot":
                g_s *= tape.m
            # M = f(v, v): v enters as both endpoints of each edge
            gv = gv + g_s @ tape.v + _t(g_s) @ tape.v
        gz = graph.unflatten_spatial_channel(gv, n, cfg.c_s)
    else:
        g_zn = np.zeros_like(tape.z_node)
        g_a = None
        for k, role, sign in _variant_terms(cfg):
            contrib = sign * (_t(tape.powers[k]) @ g)
            per_sample[role] = contrib if role not in per_sample else per_sample[role] + contrib
            r = g @ (sign * params.filters[role]).T
            for j in range(k):
                if want_ga:
                    g_aj = r @ _t(tape.powers[k - 1 - j])
                    g_a = g_aj if g_a is None else np.add(g_a, g_aj, out=g_a)
                r = a_t @ r
            g_zn += r
        if cfg.variant == "CC":
            gx += g_zn
            gz = None
        else:
            gz = g_zn
        if want_ga:
            g_s = _normalization_backward(tape, g_a)
            if cfg.kernel == "exp_dot":
                g_s *= tape.m
                g_s /= np.sqrt(tape.phi.shape[-1])
            g_phi = g_s @ tape.psi
            g_psi = _t(g_s) @ tape.phi

    x_t = _t(tape.x)
    into_x = None
    for name, grad in (("w_phi", g_phi), ("w_psi", g_psi), ("w_z", gz)):
        if grad is None:
            continue
        per_sample[name] = x_t @ grad
        term = grad @ getattr(params, name).T
        into_x = term if into_x is None else into_x + term
    if into_x is not None:
        gx += into_x
    return gx, per_sample


def block_backward(
    x: FeatureMap, cfg: BlockConfig, params: BlockParams, upstream_grad: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Analytic gradients of Y = X + F(A, Z) w.r.t. X and every parameter.

    With ``backprop_affinity`` the gradient also flows through the kernel,
    mask, symmetrization, and degree normalization; otherwise A is treated
    as a constant.
    """
    g = linalg.as_matrix(upstream_grad)
    if g.shape != x.values.shape:
        raise ShapeError(f"upstream grad {g.shape} vs output {x.values.shape}")
    _, tapes = block_forward_batch(x.values[None], x.height, x.width, cfg, params)
    gx, grads = block_backward_batch(tapes, cfg, params, g[None])
    return gx[0], grads
