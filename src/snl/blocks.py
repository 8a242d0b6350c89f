"""Unified nonlocal block variants: forward and analytic backward passes.

Every variant builds an affinity matrix over embedded features and applies
a low-order polynomial of it to a node signal, plus a residual connection.
One table, ``_RECIPES``, gives each variant's normalization, node signal,
kernel inputs, mask and polynomial terms; the forward and the backward read
it and branch on no variant name. ``block_forward_batch`` takes a (B, N, C)
stack and returns the output with a ``Tape`` of intermediates, which
``block_backward_batch`` reads, so the affinity is built once per pair.
The core carries plain arrays: it validates the input stack and the
upstream gradient where they enter and checks that the output is finite,
and wraps an affinity in ``AffinityMatrix`` only in ``build_block_affinity``.
``block_forward`` and ``block_backward`` are B=1 calls on a ``FeatureMap``;
``block_forward`` holds its tape for a ``block_backward`` whose arguments
match byte for byte. The forward and ``generalized_forward`` evaluate the
polynomial with ``spectral._polynomial``, one product with A per power;
the backward takes one product with A^T per power: both are linear in K.
The core never forms A: a tape keeps the masked kernel M, its one (V, V)
array, and the degrees d, and ``_Affinity`` applies A and A^T to thin
operands as diagonal scalings around products with M. The backward forms
the kernel's gradient as one product of thin factors
(``_affinity_backward``).
"""

import ctypes
from dataclasses import dataclass, field
import functools
import json
import os
from typing import NamedTuple

import numpy as np

from . import graph, linalg, spectral
from .errors import ConfigError, FilterSpecError, NumericError, PreconditionError, ShapeError
from .graph import AffinityMatrix, FeatureMap

VARIANTS = ("NL", "NS", "A2", "CGNL", "CC", "SNL", "SNL_A1", "SNL_A2", "CHEB_K")

# desk-scale guard for the flattened (position, channel) graph
CGNL_MAX_VERTICES = 4096

_CONFIG_KEYS = ("variant", "c_in", "c_s", "order", "kernel", "backprop_affinity")


@dataclass
class BlockConfig:
    """Variant tag plus channel sizes, polynomial order, and affinity options.

    ``kernel="dot"`` can give negative affinities. Every variant but A2
    degree-normalizes its affinity, so with "dot" it raises
    ``KernelDomainError`` at the first block call that meets a negative
    entry; nonnegative features and embeddings keep the kernel valid.
    """

    variant: str
    c_in: int
    c_s: int
    order: int = 2
    kernel: str = "exp_dot"
    backprop_affinity: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        for name in ("c_in", "c_s", "order"):
            value = getattr(self, name)
            # bool is an int subclass; JSON true and false are not counts here
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.kernel, str):
            raise ConfigError(f"kernel must be a string, got {self.kernel!r}")
        if not isinstance(self.backprop_affinity, bool):
            raise ConfigError(f"backprop_affinity must be true or false, got "
                              f"{self.backprop_affinity!r}")
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


def filter_shape(cfg: BlockConfig) -> tuple[int, int]:
    """Shape of each of a variant's filter weight matrices: a filter on the
    raw input (node signal X) maps C1 -> C1, any other C_s -> C1."""
    return (cfg.c_in if _RECIPES[cfg.variant].node == "x" else cfg.c_s, cfg.c_in)


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
    want = filter_shape(cfg)
    for role in roles:
        if params.filters[role].shape != want:
            raise ShapeError(f"{role} has shape {params.filters[role].shape}, want {want}")


def init_params(cfg: BlockConfig, rng: np.random.Generator) -> BlockParams:
    """Projections uniform in [-1/sqrt(C1), 1/sqrt(C1)]; filter weights zero.

    Zero filter weights make every block start as the identity, the usual
    stable initialization for residual insertion.
    """
    bound = 1.0 / np.sqrt(cfg.c_in)
    proj = lambda: rng.uniform(-bound, bound, size=(cfg.c_in, cfg.c_s))
    filters = {r: np.zeros(filter_shape(cfg)) for r in filter_roles(cfg)}
    return BlockParams(proj(), proj(), proj(), filters)


def random_params(cfg: BlockConfig, rng: np.random.Generator) -> BlockParams:
    """All parameter matrices drawn uniform in [-0.5/sqrt(C1), 0.5/sqrt(C1)];
    used by gradient checks."""
    bound = 0.5 / np.sqrt(cfg.c_in)
    draw = lambda shape: rng.uniform(-bound, bound, size=shape)
    filters = {r: draw(filter_shape(cfg)) for r in filter_roles(cfg)}
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
    (N, C_in) values or a (B, N, C_in) stack; the projections may be
    (B, C_in, C_s) stacks, one per sample."""
    if values.shape[-1] != params.w_phi.shape[-2]:
        raise ShapeError(
            f"feature map has {values.shape[-1]} channels, projections expect "
            f"{params.w_phi.shape[-2]}"
        )
    return values @ params.w_phi, values @ params.w_psi, values @ params.w_z


class _Recipe(NamedTuple):
    """One row of Table 1: a variant as a polynomial filter on its graph."""

    normalization: str  # graph.normalize mode of the affinity, or "none"
    node: str  # tape field of the node signal: z, the input x, or v = vec(z)
    pair: tuple[str, str]  # tape fields the kernel compares
    mask: bool  # criss-cross mask on the kernel before normalizing
    terms: tuple | None  # (power k, filter role, sign); None: sum_k A^k z W_{k+1}


# The variant table. Each variant sums the terms sign * A^k z_node W_role
# over its normalized affinity A. CGNL's graph has one vertex per
# (position, channel) pair of Z: the kernel compares v = vec(Z) with
# itself, and each power of v is read back as an (N, C_s) map before W.
_RECIPES = {
    "NL": _Recipe("random_walk", "z", ("phi", "psi"), False, ((1, "w", 1.0),)),
    "NS": _Recipe("random_walk", "z", ("phi", "psi"), False, ((0, "w", -1.0), (1, "w", 1.0))),
    "A2": _Recipe("none", "z", ("phi", "psi"), False, ((1, "w", 1.0),)),
    "CGNL": _Recipe("random_walk", "v", ("v", "v"), False, ((1, "w", 1.0),)),
    "CC": _Recipe("random_walk", "x", ("phi", "psi"), True, ((1, "w", 1.0),)),
    "SNL": _Recipe("symmetric", "z", ("phi", "psi"), False, ((0, "w1", 1.0), (1, "w2", 1.0))),
    "SNL_A1": _Recipe("symmetric", "z", ("phi", "psi"), False, ((1, "w", 1.0),)),
    "SNL_A2": _Recipe("random_walk", "z", ("phi", "psi"), False, ((0, "w1", 1.0), (1, "w2", 1.0))),
    "CHEB_K": _Recipe("symmetric", "z", ("phi", "psi"), False, None),
}


def _variant_terms(cfg: BlockConfig) -> tuple:
    """Polynomial terms (power k, filter role, sign) of a variant."""
    terms = _RECIPES[cfg.variant].terms
    return terms or tuple((k, f"w{k + 1}", 1.0) for k in range(cfg.order))


def _vertices(cfg: BlockConfig, n_positions: int) -> int:
    """Vertex count of a variant's graph: N, or N*C_s on the flattened
    (position, channel) graph, which may not pass CGNL_MAX_VERTICES."""
    if _RECIPES[cfg.variant].node != "v":
        return n_positions
    n = n_positions * cfg.c_s
    if n > CGNL_MAX_VERTICES:
        raise PreconditionError(f"CGNL flattened graph has {n} vertices (> {CGNL_MAX_VERTICES})")
    return n


_SAME = (lambda p: p,) * 2  # the identity as read and as unread


def _reader(cfg: BlockConfig, n_positions: int):
    """(read, unread): read maps a power of the node signal to the map its
    filter weights act on, unread is the adjoint. Both are the identity,
    except on the flattened graph, where they undo and redo vec."""
    if _RECIPES[cfg.variant].node != "v":
        return _SAME
    return (lambda p: graph.unflatten_spatial_channel(p, n_positions, cfg.c_s),
            graph.flatten_spatial_channel)


class Tape:
    """Intermediates of one tile of a batched forward pass, read by the
    backward pass: the whole stack in one tape when its kernels fit in
    ``TILE_BYTES`` (32 MiB; a B = 32, N = 64 call holds 1 MiB). All are
    plain arrays, checked where they enter the core.

    Arrays carry the tile's batch axis first: x (B, N, C_in); phi, psi, z
    (B, N, C_s); v the flattened (B, N*C_s, 1) signal (CGNL only); m the
    kernel (B, V, V) over the V graph vertices (V = N, or N*C_s for CGNL),
    masked for CC, the tape's only (V, V) array; d (B, V) the degrees of
    the normalized graph, None when the variant does not normalize; z_node
    the signal the polynomial filters and powers[k] = A^k z_node, with A
    applied by ``_Affinity``. mask is the read-only bool criss-cross mask
    (CC only).
    """

    __slots__ = ("x", "phi", "psi", "z", "v", "m", "mask", "d", "z_node", "powers")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, None)


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
    """Embed, kernel, mask and degrees of a validated stack."""
    recipe = _RECIPES[cfg.variant]
    t = Tape()
    t.x = xv
    t.phi, t.psi, t.z = embed(xv, params)
    if recipe.node == "v":
        _vertices(cfg, height * width)  # raises past the vertex cap
        t.v = graph.flatten_spatial_channel(t.z)
    left, right = (getattr(t, name) for name in recipe.pair)
    t.m = graph.kernel_matrix(left, right, cfg.kernel)
    t.z_node = getattr(t, recipe.node)
    if recipe.mask:
        t.mask = graph._crisscross(height, width)
        t.m *= t.mask
    if recipe.normalization != "none":
        t.d = _degrees(t.m, recipe.normalization, cfg.kernel)
    return t


def _degrees(m: np.ndarray, mode: str, kernel: str) -> np.ndarray:
    """Degrees of the normalized graph of a kernel stack M: rowsum M for a
    random walk; for symmetric, (rowsum M + colsum M)/2, the row sums of
    M_hat = (M + M^T)/2. Raises what ``graph.degrees`` raises on M or M_hat.
    exp_dot entries are positive by construction, so only the dot kernel
    takes the min pass, and M_hat is formed only when M has a negative
    entry: M_hat can have one only then."""
    if kernel == "dot" and m.min() < 0.0:
        graph._check_nonnegative(m if mode == "random_walk" else 0.5 * (m + _t(m)))
    # row and column sums as BLAS products, M 1 and 1^T M: at (32, 64, 64)
    # both took 55 us against 92 + 86 us for the two axis sums
    ones = np.ones(m.shape[-1])
    if mode == "random_walk":
        return graph._check_degrees(m @ ones)
    return graph._check_degrees(0.5 * (m @ ones + ones @ m))


# Past this degree, which only a kernel near the exp_dot guard reaches, a
# row of M p, bounded by d max|p|, can pass the float64 range where A p,
# bounded by max|p|, cannot.
_WIDE_DEGREE = 2.0 ** 512


class _Affinity:
    """The normalized affinity A of a tile as diagonal scalings around its
    kernel stack M, applied to thin (B, V, c) operands; A is never formed.

    none: A = M. random_walk: A = D^-1 M, so A p = (M p)/d and
    A^T g = M^T (g/d). symmetric: A = S M_hat S with S = D^-1/2, so
    A p = s * (M q + M^T q)/2 with q = s * p, and A^T = A. ``a @ p`` is
    A p and ``a.T @ g`` is A^T g, so ``spectral._polynomial`` and the
    backward take it where they would take a dense A. A product with M^T
    takes the thin operand first, (q^T M)^T: at N = 1024 that took 0.64 ms
    against 1.3-1.6 ms for M^T q, whose BLAS call reads M transposed.
    ``_affinity`` builds one from a tape.
    """

    __slots__ = ("m", "col", "mode", "shift", "transposed")

    def __init__(self, m: np.ndarray, col, mode: str, shift=None, transposed: bool = False):
        # col: d, or s = d^-1/2 for symmetric, as a (B, V, 1) column; shift:
        # per-sample powers of two that scale p in a random walk's M p
        self.m, self.col, self.mode, self.shift = m, col, mode, shift
        self.transposed = transposed

    @property
    def T(self) -> "_Affinity":
        if self.mode == "symmetric":
            return self
        return _Affinity(self.m, self.col, self.mode, self.shift, not self.transposed)

    def __matmul__(self, p: np.ndarray) -> np.ndarray:
        m, col = self.m, self.col
        if self.mode == "symmetric":
            q = col * p
            out = m @ q
            out += _t(_t(q) @ m)
            out *= 0.5 * col
            return out
        if self.transposed:
            return _t(_t(p if col is None else p / col) @ m)
        if col is None:
            return m @ p
        if self.shift is None:
            out = m @ p
            out /= col
            return out
        # the powers of two change no rounding in the normal range
        out = m @ np.ldexp(p, -self.shift)
        out /= col
        return np.ldexp(out, self.shift, out=out)


def _affinity(t: Tape, cfg: BlockConfig) -> _Affinity:
    """A of a tile's tape, from its kernel M and degrees d."""
    m, d, mode = t.m, t.d, _RECIPES[cfg.variant].normalization
    if d is None:
        return _Affinity(m, None, mode)
    col = d[..., None]
    if mode == "symmetric":
        return _Affinity(m, 1.0 / np.sqrt(col), mode)
    if d.max() <= _WIDE_DEGREE:
        return _Affinity(m, col, mode)
    # p is scaled so that M p stays below 2^512 max|p|
    top = col.max(axis=-2, keepdims=True)
    return _Affinity(m, col, mode, np.maximum(np.frexp(top)[1] - 512, 0))


def _filter(cfg: BlockConfig, params: BlockParams, a, z_node, n_positions: int):
    """F(A, Z) of a batch, and the powers A^k z_node it applied."""
    terms = [(k, sign * params.filters[role]) for k, role, sign in _variant_terms(cfg)]
    return spectral._polynomial(a, z_node, terms, _reader(cfg, n_positions)[0])


# A batched call's (V, V) arrays pass glibc's default 128 KiB mmap
# threshold: 1 MiB each in an SGD step at B = 32, N = 64. glibc mapped
# such arrays fresh and unmapped or trimmed them on free, and the next
# array faulted their pages in again: about 720-775 minor faults per SGD
# step of an SNL block, then cut into 256 KiB tiles. Pinning glibc's mmap
# and trim thresholds at 32 MiB, the largest mmap threshold it takes,
# keeps such arrays on the heap. Both are set because setting either one
# alone switches off glibc's dynamic threshold and faults more than
# neither. The setting is process-wide. It is made on the first batched
# call whose tile arrays pass 128 KiB, and one-sample calls are left to
# glibc's dynamic threshold: on a mix of one-sample N = 1024 calls that
# already takes no faults, and pinning at import raised its peak RSS by
# 8 MiB in 7 of 10 benchmark runs. Where glibc's mallopt is missing
# nothing is set.
_GLIBC_MMAP_DEFAULT_BYTES = 128 * 1024
_MALLOC_THRESHOLD_BYTES = 32 * 1024 * 1024
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3

# The core runs over tiles of samples whose (V, V) kernel arrays hold at
# most TILE_BYTES each, the pinned mmap threshold: a tile array of more
# than one sample never passes it, so it stays on the heap. A training or
# evaluation call (B = 32, N = 64, 1 MiB) is one tile; CGNL's large
# flattened graphs still split. With the thresholds pinned, one stack beat
# 256 KiB tiles in SGD steps at B = 32, 64 and 128 for SNL, NL and CHEB_K.
TILE_BYTES = _MALLOC_THRESHOLD_BYTES


@functools.cache
def _pin_malloc_thresholds() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return
    for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD):
        mallopt(param, _MALLOC_THRESHOLD_BYTES)


def _tiles(batch: int, cfg: BlockConfig, n_positions: int) -> list[slice]:
    """Consecutive sample ranges, each one tile of the batch. The first
    batched call whose tile arrays pass 128 KiB pins glibc's thresholds."""
    n_vertices = _vertices(cfg, n_positions)
    per_tile = max(1, TILE_BYTES // (8 * n_vertices * n_vertices))
    if batch > 1 and 8 * min(batch, per_tile) * n_vertices**2 > _GLIBC_MMAP_DEFAULT_BYTES:
        _pin_malloc_thresholds()
    return [slice(i, i + per_tile) for i in range(0, batch, per_tile)]


def block_forward_batch(
    values: np.ndarray, height: int, width: int, cfg: BlockConfig, params: BlockParams
) -> tuple[np.ndarray, list[Tape]]:
    """Residual forward pass Y = X + F(A, Z) of a stack of B feature maps.

    ``values`` is (B, H*W, C_in), each sample in row-major grid order, and
    is validated once here. Each sample gets its own (V, V) kernel; they
    are built as (b, V, V) stacks over tiles of b samples whose kernels
    hold at most ``TILE_BYTES``, so a training step (B = 32, N = 64) is one
    tile and only large flattened CGNL graphs split. Returns Y
    (B, H*W, C_in) and the tiles' Tapes, which ``block_backward_batch``
    reads, so the affinity is built once per forward/backward pair.
    """
    check_params(cfg, params)
    xv = _check_stack(values, height, width)
    n = height * width
    tapes, fs = [], []
    for tile in _tiles(xv.shape[0], cfg, n):
        t = _build_affinity(xv[tile], height, width, cfg, params)
        f, t.powers = _filter(cfg, params, _affinity(t, cfg), t.z_node, n)
        tapes.append(t)
        fs.append(f)
    y = xv + np.concatenate(fs)
    if not np.isfinite(y).all():
        raise NumericError("block output contains non-finite entries")
    return y, tapes


def build_block_affinity(x: FeatureMap, cfg: BlockConfig, params: BlockParams) -> AffinityMatrix:
    """The dense affinity matrix a variant aggregates with (see
    ``VARIANTS``), formed from the core's kernel M on the public graph
    route: ``graph.normalize(graph.symmetrize(M), "symmetric")``,
    ``graph.normalize(M, "random_walk")``, or M itself."""
    check_params(cfg, params)
    t = _build_affinity(_check_stack(x.values[None], x.height, x.width), x.height, x.width,
                        cfg, params)
    m = AffinityMatrix(t.m[0])
    mode = _RECIPES[cfg.variant].normalization
    if mode == "symmetric":
        m = graph.symmetrize(m)
    return m if mode == "none" else graph.normalize(m, mode)


def generalized_forward(
    a_values: np.ndarray, z_node: np.ndarray, weights: list[np.ndarray]
) -> np.ndarray:
    """Generic polynomial operator: Z W_1 + A Z W_2 + sum_k A^k Z W_{k+1}.

    Powers are applied by iterated multiplication; A^k is never formed.
    The package's one polynomial filter with a weight matrix per power;
    ``spectral.poly_filter_apply`` takes scalar coefficients.
    """
    a_values = linalg.as_matrix(a_values)
    z_node = linalg.as_matrix(z_node)
    weights = [linalg.as_matrix(w) for w in weights]
    if not weights:
        raise FilterSpecError("generalized_forward needs at least one weight")
    shapes = {w.shape for w in weights}
    if len(shapes) != 1:
        raise FilterSpecError(f"weight matrices differ in shape: {shapes}")
    if a_values.shape != (z_node.shape[0],) * 2:
        raise ShapeError(f"filter: A {a_values.shape} vs Z {z_node.shape}")
    if weights[0].shape[0] != z_node.shape[1]:
        raise ShapeError(f"filter: Z {z_node.shape} vs weights {weights[0].shape}")
    return spectral._polynomial(a_values, z_node, list(enumerate(weights)))[0]


# The tapes of the last block_forward and the key of its arguments, held
# for a block_backward on the same arguments; None when nothing is held.
# One entry per process, so at most one tape is ever held. Threads that
# share it can only lose hits: a tape is read only under a matching key,
# and backward passes never write to a tape.
_held = None


def _forward_key(x: FeatureMap, cfg: BlockConfig, params: BlockParams) -> tuple:
    """Everything a B=1 forward reads: the grid, every config field, the
    filter names, and a copy of the input and of each parameter array as
    bytes. Byte strings are the cheapest copy that compares exactly. The
    arrays are float64 (``FeatureMap`` and ``BlockParams`` convert them),
    and their shapes need no entry: every backward checks the parameters
    against the config and the upstream gradient against the input and
    the tape."""
    f = params.filters
    return (x.height, x.width, *vars(cfg).values(), *f, x.values.tobytes(),
            params.w_phi.tobytes(), params.w_psi.tobytes(), params.w_z.tobytes(),
            *[a.tobytes() for a in f.values()])


def block_forward(x: FeatureMap, cfg: BlockConfig, params: BlockParams) -> FeatureMap:
    """Residual forward pass Y = X + F(A, Z) per the variant's formula.

    Holds the forward's tape for a ``block_backward`` on the same
    arguments, replacing any tape held before.
    """
    global _held
    _held = None  # dropped before the build, so two tapes are never alive
    key = _forward_key(x, cfg, params)
    # the tape keeps its own copy of the input: an in-place change of
    # x.values after this call must not reach a tape the key still matches
    y, tapes = block_forward_batch(x.values.copy()[None], x.height, x.width, cfg, params)
    _held = (key, tapes)
    return FeatureMap(x.height, x.width, x.channels, y[0])


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack."""
    return a.swapaxes(-1, -2)


def _affinity_backward(t: Tape, recipe: _Recipe, kernel: str, u, v, av, atu) -> np.ndarray:
    """dL/dS of the kernel's Gram matrix S = left right^T, given dL/dA = G
    as its factors u v^T and the products A v and A^T u that the filter's
    passes already took: one product of stacked thin factors, then at most
    one in-place product with a kept (V, V) array. exp_dot: M = exp(c S),
    c = 1/sqrt(width), so dM/dS = c M, and the kept array is the tape's M,
    which carries the mask; a random walk's 1/d rides on the left factor.
    The row terms come from A v and A^T u, so no product with M is taken
    here."""
    d = None if t.d is None else t.d[..., None]
    ones = np.ones_like(u[..., :1])
    # row sums over the factors' short last axis of width w are products
    # with a ones vector: 24 us against 65 us for np.sum(axis=-1) at B = 32
    w = u.shape[-1]
    if recipe.normalization == "symmetric":
        # A = s s^T * (M + M^T)/2 with s = d^-1/2. With H = G + G^T and A
        # symmetric, q = rowsum(H * A) = rowsum(u * A v + v * A u), and
        # dL/dM = (s s^T * H)/2 - rho 1^T - 1 rho^T with rho = q/(4d).
        rho = ((u * av + v * atu) @ np.ones(w))[..., None] / (4.0 * d)
        # [s u, s v] as one product; 0.5 (s u) is (0.5 s) u to the bit
        suv = (1.0 / np.sqrt(d)) * np.concatenate([u, v], axis=-1)
        left, right = [0.5 * suv, rho, ones], [suv[..., w:], suv[..., :w], -ones, -rho]
    elif recipe.normalization == "random_walk":
        # A = D^-1 M: dL/dM = (G - r 1^T) / d with r = rowsum(G * A) = rowsum(u * A v)
        r = ((u * av) @ np.ones(w))[..., None]
        left, right = [u, -r], [v, ones]
    else:
        left, right = [u], [v]
    left = np.concatenate(left, axis=-1)
    if recipe.normalization == "random_walk":
        left /= d
    if kernel == "exp_dot":
        left *= 1.0 / np.sqrt(getattr(t, recipe.pair[0]).shape[-1])
        kept = t.m
    else:  # dM/dS = 1: of M only the mask remains
        kept = t.mask
    g_s = left @ _t(np.concatenate(right, axis=-1))
    if kept is not None:
        g_s *= kept
    return g_s


def block_backward_batch(
    tapes: list[Tape], cfg: BlockConfig, params: BlockParams, upstream_grad: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Analytic gradients of a batched forward pass, read from its Tapes.

    Returns dL/dX as a (B, N, C_in) stack and, per parameter, the sum of
    the B per-sample gradients. Each tile takes its sum over samples and
    positions as one (b*N, .)^T (b*N, .) product, and the tiles' sums are
    added in tile order, so repeated runs agree bit for bit. With
    ``backprop_affinity`` the gradient also flows through the kernel,
    mask, symmetrization, and degree normalization; otherwise A is
    treated as a constant.
    """
    check_params(cfg, params)
    g = linalg.as_stack(upstream_grad)
    want = (sum(t.x.shape[0] for t in tapes),) + tapes[0].x.shape[1:]
    if g.shape != want:
        raise ShapeError(f"upstream grad {g.shape} vs output {want}")
    gx, grads = [], {name: np.zeros_like(mat) for name, mat in params.items()}
    start = 0
    for tape in tapes:
        stop = start + tape.x.shape[0]
        gx_tile, per_tile = _tile_backward(tape, cfg, params, g[start:stop])
        gx.append(gx_tile)
        for name, grad in per_tile.items():
            grads[name] += grad
        start = stop
    return np.concatenate(gx), grads


def _polynomial_backward(tape: Tape, cfg: BlockConfig, params: BlockParams, g: np.ndarray):
    """Reverse mode through F = sum of sign * read(A^k z_node) W_role over
    a tile: each role's gradient summed over the tile, dL/dz_node, and
    dL/dA as the factors (u, v) of dL/dA = u v^T with the products A v and
    A^T u (None without ``backprop_affinity``).

    g_p[k], the gradient of powers[k] = A^k z_node, starts from the terms
    that read powers[k] and then takes A^T g_p[k + 1] from the power above,
    highest power first. That is one product with A^T per power and one
    (V, V) product for dL/dA, so the cost is linear in K.
    """
    terms = _variant_terms(cfg)
    read, unread = _reader(cfg, tape.x.shape[1])
    top = max(k for k, _, _ in terms)
    per_tile = {}
    g_p = [None] * (top + 1)
    for k, role, sign in terms:
        contrib = sign * (_rows(read(tape.powers[k])).T @ _rows(g))
        per_tile[role] = contrib if role not in per_tile else per_tile[role] + contrib
        r = unread(g @ (sign * params.filters[role]).T)
        g_p[k] = r if g_p[k] is None else g_p[k] + r
    a_t = _affinity(tape, cfg).T
    a_t_g = [None] * (top + 1)
    for k in range(top, 0, -1):
        a_t_g[k] = r = a_t @ g_p[k]
        g_p[k - 1] = r if g_p[k - 1] is None else g_p[k - 1] + r
    g_a = None
    if cfg.backprop_affinity:
        # dL/dA = sum_k g_p[k] powers[k-1]^T = u v^T, one product over every
        # k; A v = powers[1:] and A^T u = a_t_g[1:] were taken above
        cat = functools.partial(np.concatenate, axis=-1)
        g_a = cat(g_p[1:]), cat(tape.powers[:top]), cat(tape.powers[1:]), cat(a_t_g[1:])
    return per_tile, g_p[0], g_a


def _add(grads: dict, name: str, grad: np.ndarray) -> None:
    grads[name] = grad if name not in grads else grads[name] + grad


def _rows(a: np.ndarray) -> np.ndarray:
    """A (b, N, c) stack as (b*N, c) rows: a product of two such row blocks,
    one BLAS call, sums a gradient over samples and positions at once."""
    return a.reshape(-1, a.shape[-1])


def _tile_backward(tape: Tape, cfg: BlockConfig, params: BlockParams, g: np.ndarray):
    """dL/dX of one tile and each parameter's gradient summed over it."""
    recipe = _RECIPES[cfg.variant]
    per_tile, g_node, g_a_factors = _polynomial_backward(tape, cfg, params, g)
    grads = {recipe.node: g_node}  # keyed by the tape field they are the gradient of
    if g_a_factors is not None:
        g_s = _affinity_backward(tape, recipe, cfg.kernel, *g_a_factors)
        left, right = recipe.pair
        _add(grads, left, g_s @ getattr(tape, right))
        _add(grads, right, _t(_t(getattr(tape, left)) @ g_s))  # thin operand first
    if "v" in grads:  # v = vec(z)
        _add(grads, "z", graph.unflatten_spatial_channel(grads.pop("v"), tape.x.shape[1], cfg.c_s))

    gx = g + grads["x"] if "x" in grads else g.copy()
    x_rows = _rows(tape.x)
    into_x = None
    for name, source in (("w_phi", "phi"), ("w_psi", "psi"), ("w_z", "z")):
        if source in grads:
            per_tile[name] = x_rows.T @ _rows(grads[source])
            term = grads[source] @ getattr(params, name).T
            into_x = term if into_x is None else into_x + term
    if into_x is not None:
        gx += into_x
    return gx, per_tile


def block_backward(
    x: FeatureMap, cfg: BlockConfig, params: BlockParams, upstream_grad: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Analytic gradients of Y = X + F(A, Z) w.r.t. X and every parameter.

    With ``backprop_affinity`` the gradient also flows through the kernel,
    mask, symmetrization, and degree normalization; otherwise A is treated
    as a constant. When the arguments match the last ``block_forward``'s
    byte for byte, its held tape is read and the affinity is not built
    again; otherwise the forward is rerun. Either way the held tape is
    released. The backward through A^k costs one product with A^T per
    power, so it is linear in K, like the forward.
    """
    global _held
    held, _held = _held, None
    g = linalg.as_matrix(upstream_grad)
    if g.shape != x.values.shape:
        raise ShapeError(f"upstream grad {g.shape} vs output {x.values.shape}")
    if held is not None and held[0] == _forward_key(x, cfg, params):
        tapes = held[1]
    else:
        _, tapes = block_forward_batch(x.values[None], x.height, x.width, cfg, params)
    gx, grads = block_backward_batch(tapes, cfg, params, g[None])
    return gx[0], grads
