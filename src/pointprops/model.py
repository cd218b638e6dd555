"""Small fully convolutional detector/descriptor with exact analytic gradients.

The network shares one encoder between two heads. The detection head emits a
per-pixel interest probability in (0, 1); the description head emits a
quarter-resolution map of unit-norm description vectors, from which
``ModelOutput.describe`` gives the description of any image point. Everything
is plain numpy so the backward pass is exact and checkable against finite
differences.

Architecture (all convs 3x3, stride 1, pad 1; ReLU after every conv except
head outputs):

    encoder:      conv(1->8)  conv(8->8)  maxpool2  conv(8->16) conv(16->16) maxpool2
    detection:    [bilinear x4 of the encoding, skip-concat of the full-res
                   second encoder activation], conv(24->8), conv(8->1),
                   standardize logits, sigmoid
    description:  conv(16->16), conv(16->d), L2 normalize  (the (H/4, W/4, d) map)
                  at points only: bilinear x4, renormalize  (``describe``)

Every consumer reads descriptors at points (the E-step's candidates, eval's
extracted points), so no full-resolution descriptor field is built: the
forward stops at the quarter-resolution map, ``describe`` interpolates its
two bilinear x4 taps per axis at the asked pixels and renormalises, and
``backward`` takes the descriptor gradient at those points and runs the
adjoint of ``describe`` into a quarter-resolution gradient.

Convolutions use reflection padding so image borders carry no constant frame
cue. No convolution builds a (H*W, C*9) patch matrix or a per-tap product
buffer: flattened at its row stride, the padded input holds each of the 9
taps as one contiguous row slice, so ``_conv3`` sums 9 row-offset GEMMs, one
band of rows at a time. Each layer writes its output into the array its
consumer reads, so a conv's ReLU output is the interior of the next conv's
padded input; the training tape keeps those padded inputs, and the
tape-free (inference) forward takes its arrays from a workspace kept per
thread (``_workspace``). A tape-free forward on a large image runs on
several lanes (``workers.lanes``), threads that split each layer's rows.
The detection head needs the full-resolution skip: without it the head only
sees 4x-upsampled features and cannot localize maxima to the pixel, which
the selection step requires. The per-image logit standardization
(zero mean, unit variance) blocks the degenerate optima of deflating every
probability at once or saturating plateaus that strict non-maximum
suppression would reject.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import image_io, workers

NORM_EPS = 1e-12
PROB_CLIP = 1e-12


def topology(descriptor_dim: int):
    """Layer descriptor records: (name, kind, cin, cout), channel counts in and out."""
    return (
        ("enc1", "conv3x3", 1, 8),
        ("enc2", "conv3x3", 8, 8),
        ("pool1", "maxpool2", 8, 8),
        ("enc3", "conv3x3", 8, 16),
        ("enc4", "conv3x3", 16, 16),
        ("pool2", "maxpool2", 16, 16),
        ("det_up", "bilinear_up4+skip_enc2", 16, 24),
        ("det1", "conv3x3", 24, 8),
        ("det2", "conv3x3+standardize+sigmoid", 8, 1),
        ("desc1", "conv3x3", 16, 16),
        ("desc2", "conv3x3", 16, descriptor_dim),
        ("desc_norm", "l2norm", descriptor_dim, descriptor_dim),
        ("desc_up", "bilinear_up4_at_points", descriptor_dim, descriptor_dim),
        ("desc_renorm", "l2norm_at_points", descriptor_dim, descriptor_dim),
    )


@dataclass
class ModelParams:
    """Named parameter arrays plus the fixed topology they belong to."""

    weights: dict  # name -> array; "<layer>_w" (Cout, Cin, 3, 3), "<layer>_b" (Cout,)
    descriptor_dim: int

    @property
    def layer_topology(self):
        return topology(self.descriptor_dim)

    def copy(self) -> "ModelParams":
        return ModelParams(
            weights={k: v.copy() for k, v in self.weights.items()},
            descriptor_dim=self.descriptor_dim,
        )


@dataclass
class ModelOutput:
    prob_map: np.ndarray  # (H, W) in (0, 1)
    desc_map: np.ndarray  # (H/4, W/4, d), unit rows
    cache: dict = field(default_factory=dict, repr=False)

    def describe(self, rows, cols) -> np.ndarray:
        """The (n, d) unit descriptors of the image pixels (rows, cols): the
        bilinear x4 upsample of ``desc_map`` there, renormalised.

        This is the one descriptor sampler; it gives what a full-resolution
        field, upsampled and renormalised at every pixel, would hold at those
        pixels. Test stand-ins that hold a hand-made per-pixel field replace
        it with indexing.
        """
        return _l2norm(_upsample4_at(self.desc_map, rows, cols))[0]


def init_params(seed: int, descriptor_dim: int) -> ModelParams:
    """Deterministic Glorot-uniform weights, zero biases.

    Raises ValueError for descriptor_dim < 2.
    """
    if descriptor_dim < 2:
        raise ValueError(f"descriptor_dim must be >= 2, got {descriptor_dim}")
    rng = np.random.default_rng(seed)
    weights = {}
    for name, shape in param_shapes(descriptor_dim).items():
        if name.endswith("_w"):
            bound = glorot_bound(shape[1], shape[0])
            weights[name] = rng.uniform(-bound, bound, size=shape)
        else:
            weights[name] = np.zeros(shape)
    return ModelParams(weights=weights, descriptor_dim=descriptor_dim)


def param_shapes(descriptor_dim: int) -> dict:
    """Name -> shape of every conv weight (Cout, Cin, 3, 3) and bias (Cout,),
    in topology order."""
    shapes = {}
    for name, kind, cin, cout in topology(descriptor_dim):
        if kind.startswith("conv3x3"):
            shapes[name + "_w"] = (cout, cin, 3, 3)
            shapes[name + "_b"] = (cout,)
    return shapes


def glorot_bound(cin: int, cout: int) -> float:
    """Uniform Glorot bound of a 3x3 conv weight (fan-in 9 * cin, fan-out 9 * cout)."""
    return float(np.sqrt(6.0 / (cin * 9 + cout * 9)))


# ---------------------------------------------------------------------------
# layer primitives
# ---------------------------------------------------------------------------


# Least size of one band of rows in ``_conv3`` and ``_conv3_backward``: of
# ``_shifted_gemm``'s scratch, or of the input and gradient rows that one
# band of weight-gradient GEMMs reads. Bands keep these cache-sized and bound
# the memory of a large image's forward to one band per layer.
BAND_BYTES = 1 << 20


def _bands(n_rows: int, row_bytes: int):
    """(start, stop) of near-equal row bands of at least ``BAND_BYTES`` each,
    or one band when all ``n_rows`` are smaller."""
    least_rows = min(n_rows, -(-BAND_BYTES // row_bytes))
    num_bands = n_rows // least_rows
    edges = [n_rows * i // num_bands for i in range(num_bands + 1)]
    return tuple(zip(edges[:-1], edges[1:]))


def _reflect_border(xp: np.ndarray) -> None:
    """Fill the 1-pixel border of a padded (H+2, W+2, C) array from its
    interior, in place, so that it equals ``np.pad(interior, ((1, 1), (1, 1),
    (0, 0)), mode="reflect")``: a 1-pixel axis repeats its pixel."""
    h, w = xp.shape[0] - 2, xp.shape[1] - 2
    xp[0, 1:-1] = xp[1 + min(1, h - 1), 1:-1]
    xp[-1, 1:-1] = xp[1 + max(h - 2, 0), 1:-1]
    xp[:, 0] = xp[:, 1 + min(1, w - 1)]
    xp[:, -1] = xp[:, 1 + max(w - 2, 0)]


def _reflect_fold(dxp: np.ndarray) -> np.ndarray:
    """Adjoint of the reflect padding that ``_reflect_border`` completes: adds
    each pad pixel's gradient onto the pixel it copies (in place) and returns
    the (H, W, C) interior."""
    h, w = dxp.shape[0] - 2, dxp.shape[1] - 2
    dxp[1 + min(1, h - 1)] += dxp[0]
    dxp[1 + max(h - 2, 0)] += dxp[-1]
    dxp[:, 1 + min(1, w - 1)] += dxp[:, 0]
    dxp[:, 1 + max(w - 2, 0)] += dxp[:, -1]
    return dxp[1:-1, 1:-1]


def _tap_offsets(wp: int):
    """Row offset ki * wp + kj of each tap t = 3 * ki + kj of a 3x3 kernel in
    a padded image flattened to (rows, C) with row stride ``wp``."""
    return [ki * wp + kj for ki in range(3) for kj in range(3)]


def _stacks_taps(k: int, n: int) -> bool:
    """Whether ``_shifted_gemm`` with (K, N) taps stacks the 9 slices: only
    where each tap's GEMM would write at least 4 times the floats it reads,
    as with K = 1, where each tap's GEMM is an outer product."""
    return n >= 4 * k


def _scratch_width(k: int, n: int) -> int:
    """Floats per row of ``_shifted_gemm``'s scratch for (K, N) taps."""
    return 9 * k if _stacks_taps(k, n) else n


def _shifted_gemm(src, offsets, taps, out, scratch) -> None:
    """``out[r] = sum_t src[offsets[t] + r] @ taps[t]`` for every row r of
    ``out``.

    ``src`` is (rows, K), ``taps`` (9, K, N), ``out`` (m, N) and ``scratch``
    a flat buffer of at least m * ``_scratch_width(K, N)`` floats; each
    ``src[o : o + m]`` is a contiguous row slice. The 9 products are added
    tap by tap, one GEMM each, or, where ``_stacks_taps``, the 9 slices are
    copied side by side into an (m, 9*K) matrix and multiplied once.
    """
    m, k = out.shape[0], src.shape[1]
    n = taps.shape[2]
    if _stacks_taps(k, n):
        stacked = scratch[: m * 9 * k].reshape(m, 9, k)
        for t, o in enumerate(offsets):
            stacked[:, t] = src[o : o + m]
        np.matmul(stacked.reshape(m, 9 * k), taps.reshape(9 * k, n), out=out)
    else:
        np.matmul(src[offsets[0] : offsets[0] + m], taps[0], out=out)
        product = scratch[: m * n].reshape(m, n)
        for o, tap in zip(offsets[1:], taps[1:]):
            np.matmul(src[o : o + m], tap, out=product)
            out += product


@functools.lru_cache  # a forward's plan repeats for every image of its shape
def _conv3_bands(h: int, wp: int, cin: int, cout: int):
    """Output row bands of a conv on an (h + 2, wp, cin) padded input, and
    the floats of scratch and of accumulator that its largest band needs."""
    width = _scratch_width(cin, cout)
    bands = _bands(h, 8 * wp * width)  # 8 bytes per float64
    rows = max(i1 - i0 for i0, i1 in bands) * wp
    return bands, rows * width, rows * cout


def _conv3(xp: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray,
           relu: bool, scratch: np.ndarray, acc: np.ndarray,
           lane: int = 0, lanes: int = 1) -> None:
    """3x3 conv, stride 1, channels-last, of a contiguous reflect-padded
    (H+2, W+2, Cin) input ``xp``, written into ``out`` (H, W, Cout), through
    a ReLU where ``relu``. ``out`` may be a strided view, such as the
    interior of the next conv's padded input.

    Reflection padding keeps border responses content-driven; zero padding
    would hand the detector a constant frame cue.

    No patch matrix is built. Flattened to (rows, Cin) with row stride
    W+2, the padded input holds every tap (ki, kj) as one contiguous row
    slice at offset ki*(W+2) + kj, so the output rows are
    ``sum_t xp[o_t : o_t + n] @ W_t`` (``_shifted_gemm``); the 2 rows that
    wrap round each image row are computed and dropped. This runs one band
    of output rows at a time through the flat buffers ``scratch`` and
    ``acc``, of at least the floats ``_conv3_bands`` gives, and adds the
    bias (then takes the ReLU) band by band in ``out``, so no whole-image
    intermediate is held. Of ``lanes`` calls that split one conv, each with
    its own buffers, call ``lane`` computes every ``lanes``-th band from
    band ``lane``, with the kernels and band sizes of a single call.
    """
    hp, wp, cin = xp.shape
    h, wid = hp - 2, wp - 2
    cout = w.shape[0]
    src = xp.reshape(-1, cin)
    taps = w.transpose(2, 3, 1, 0).reshape(9, cin, cout)
    offsets = _tap_offsets(wp)
    bands, _, acc_size = _conv3_bands(h, wp, cin, cout)
    acc = acc[:acc_size].reshape(-1, cout)
    if len(bands) > 1:  # a (W, Cout) bias: one numpy inner loop per row, not per pixel
        b = np.tile(b, (wid, 1))
    for i0, i1 in bands[lane::lanes]:
        m = (i1 - i0) * wp
        _shifted_gemm(src[i0 * wp :], offsets, taps, acc[: m - 2], scratch)
        band = out[i0:i1]
        np.add(acc[:m].reshape(i1 - i0, wp, cout)[:, :wid], b, out=band)
        if relu:
            np.maximum(band, 0.0, out=band)


def _conv3_backward(xp: np.ndarray, w: np.ndarray, grad_out: np.ndarray,
                    input_grad: bool = True):
    """Returns (dw, db, dx) of ``_conv3(xp, w, b, ...)`` without its ReLU,
    with dx the gradient of the unpadded input (the reflect fold of the
    padded one), or None without ``input_grad``.

    The upstream gradient is laid out at the padded row stride W+2 inside a
    frame of zeros, G, whose zero columns also fill the rows that wrap round.
    Then dW_t = ``xp[o_t : o_t + n].T @ G[reach : reach + n]`` over the
    n = H*(W+2) - 2 rows from the first output pixel to the last, one GEMM
    per tap and band of rows, so that a band of the input is read 9 times
    from cache; and dxp is the forward's shifted sum over G with offsets
    ``reach - o_t`` and taps W_t.T, ``reach`` being the last tap's offset.
    """
    hp, wp, cin = xp.shape
    h = hp - 2
    cout = w.shape[0]
    offsets = _tap_offsets(wp)
    reach = offsets[-1]
    gz = np.zeros(((h + 4) * wp + 2, cout))
    gz[: (h + 4) * wp].reshape(h + 4, wp, cout)[2:-2, 2:] = grad_out
    src = xp.reshape(-1, cin)
    n = h * wp - 2
    dtaps = np.zeros((9, cin, cout))
    for i0, i1 in _bands(h, 8 * wp * (cin + cout)):
        r0, r1 = i0 * wp, min(i1 * wp, n)
        g = gz[reach + r0 : reach + r1]
        for t, o in enumerate(offsets):
            dtaps[t] += src[o + r0 : o + r1].T @ g
    dw = dtaps.reshape(3, 3, cin, cout).transpose(3, 2, 0, 1)
    db = grad_out.reshape(-1, cout).sum(axis=0)
    if not input_grad:
        return dw, db, None
    taps = w.transpose(2, 3, 0, 1).reshape(9, cout, cin)
    width = _scratch_width(cout, cin)
    bands = _bands(hp, 8 * wp * width)
    scratch = np.empty(max(p1 - p0 for p0, p1 in bands) * wp * width)
    dxp = np.empty_like(xp)
    flat = dxp.reshape(-1, cin)
    back = [reach - o for o in offsets]
    for p0, p1 in bands:
        _shifted_gemm(gz[p0 * wp :], back, taps, flat[p0 * wp : p1 * wp], scratch)
    return dw, db, _reflect_fold(dxp)


def _maxpool2(x: np.ndarray, out: np.ndarray) -> None:
    """2x2 stride-2 max pool of (H, W, C) ``x``, written into ``out``
    (H/2, W/2, C): the max of each row pair, whose rows are contiguous, then
    of each column pair of that."""
    rows = np.maximum(x[0::2], x[1::2])
    np.maximum(rows[:, 0::2], rows[:, 1::2], out=out)


def _maxpool2_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of ``_maxpool2`` of (H, W, C) ``x``: each block's gradient
    goes to the cell of the block that holds its max, the first on ties in
    the order (0, 0), (0, 1), (1, 0), (1, 1), as ``argmax`` picks it; -0.0
    ties with 0.0. Each of the 4 strided cell views is compared with the
    block max and takes the gradient where it equals it and no earlier cell
    did."""
    h, w, c = x.shape
    cells = [x[i::2, j::2] for i in (0, 1) for j in (0, 1)]
    top = np.maximum(np.maximum(cells[0], cells[1]), np.maximum(cells[2], cells[3]))
    dx = np.empty((h // 2, 2, w // 2, 2, c))
    free = np.ones(top.shape, dtype=bool)
    for t, cell in enumerate(cells):
        hit = cell == top
        hit &= free
        dx[:, t // 2, :, t % 2] = np.where(hit, grad_out, 0.0)
        free &= ~hit
    return dx.reshape(h, w, c)


def _apply_rowcol(mat_h: np.ndarray, x: np.ndarray, mat_w: np.ndarray,
                  tall=None, out=None) -> np.ndarray:
    """out[i, j, c] = sum_h sum_w mat_h[i, h] * x[h, w, c] * mat_w[j, w].

    Two GEMMs: over rows into ``tall`` (I, W*C), then over columns, one
    (J, W) @ (W, C) product per row of ``tall``, into ``out`` (I, J, C),
    which may be a strided view such as the interior of det1's padded
    input. Fresh arrays where not given.
    """
    h, w, c = x.shape
    tall = np.matmul(mat_h, x.reshape(h, w * c), out=tall)
    return np.matmul(mat_w, tall.reshape(-1, w, c), out=out)


def _upsample_matrix(n_in: int) -> np.ndarray:
    """Bilinear x4 operator (4 * n_in, n_in); its transpose is the backward pass."""
    return image_io.resample_matrix(n_in, 4 * n_in)


def _upsample4(x: np.ndarray, tall: np.ndarray, out: np.ndarray,
               rows: slice = slice(None)) -> np.ndarray:
    """Bilinear x4 of (H, W, C) ``x`` into ``out`` (4H, 4W, C)
    (``_apply_rowcol``), or only into its output ``rows``, through the same
    rows of ``tall``."""
    return _apply_rowcol(_upsample_matrix(x.shape[0])[rows], x, _upsample_matrix(x.shape[1]),
                         tall[rows], out[rows])


def _upsample4_backward(grad_out: np.ndarray, in_shape) -> np.ndarray:
    return _apply_rowcol(
        _upsample_matrix(in_shape[0]).T, grad_out, _upsample_matrix(in_shape[1]).T
    )


def _point_taps(in_shape, rows, cols):
    """The bilinear x4 taps of the output pixels (rows, cols) into an input
    of ``in_shape`` (h, w): source rows r0, r1 with weight tr on r1, and
    source columns c0, c1 with weight tc on c1, each (n,) or, for the
    weights, (n, 1)."""
    h, w = in_shape[:2]
    r0, r1, tr = (a[rows] for a in image_io.resample_taps(h, 4 * h))
    c0, c1, tc = (a[cols] for a in image_io.resample_taps(w, 4 * w))
    return r0, r1, tr[:, None], c0, c1, tc[:, None]


def _upsample4_at(x: np.ndarray, rows, cols) -> np.ndarray:
    """The (n, C) rows at pixels (rows, cols) of the bilinear x4 upsample of
    (h, w, C) ``x``: its two taps per axis, rows then columns."""
    r0, r1, tr, c0, c1, tc = _point_taps(x.shape, rows, cols)
    left = (1.0 - tr) * x[r0, c0] + tr * x[r1, c0]
    right = (1.0 - tr) * x[r0, c1] + tr * x[r1, c1]
    return (1.0 - tc) * left + tc * right


def _upsample4_at_backward(grad_out: np.ndarray, in_shape, rows, cols) -> np.ndarray:
    """Adjoint of ``_upsample4_at``: the (h, w, C) gradient of its input,
    each point's (n, C) gradient added onto its 4 taps (points that share a
    pixel or a tap add up)."""
    r0, r1, tr, c0, c1, tc = _point_taps(in_shape, rows, cols)
    left, right = (1.0 - tc) * grad_out, tc * grad_out
    grad = np.zeros(in_shape)
    for r, c, part in ((r0, c0, (1.0 - tr) * left), (r1, c0, tr * left),
                       (r0, c1, (1.0 - tr) * right), (r1, c1, tr * right)):
        np.add.at(grad, (r, c), part)
    return grad


def _describe_backward(desc_map: np.ndarray, rows, cols, grad_out: np.ndarray) -> np.ndarray:
    """Adjoint of ``ModelOutput.describe`` on ``desc_map``: the (H/4, W/4, d)
    gradient of the map from the (n, d) gradients of the descriptors at the
    pixels (rows, cols)."""
    unit, norm = _l2norm(_upsample4_at(desc_map, rows, cols))
    return _upsample4_at_backward(_l2norm_backward(grad_out, unit, norm), desc_map.shape,
                                  rows, cols)


def _l2norm(x: np.ndarray):
    norm = np.sqrt((x * x).sum(axis=-1) + NORM_EPS)
    return x / norm[..., None], norm


def _l2norm_backward(grad_out: np.ndarray, y: np.ndarray, norm: np.ndarray) -> np.ndarray:
    proj = (grad_out * y).sum(axis=-1, keepdims=True)
    return (grad_out - y * proj) / norm[..., None]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Clipped logistic function, in the form that never overflows: with
    e = exp(-|x|), 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere."""
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return np.clip(out, PROB_CLIP, 1.0 - PROB_CLIP)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


# Resolution divisor of each conv layer's input: the encoder tail works at
# 1/2, the description head at 1/4 of the image.
_CONV_SCALE = {"enc1": 1, "enc2": 1, "enc3": 2, "enc4": 2,
               "det1": 1, "det2": 1, "desc1": 4, "desc2": 4}


def _conv_inputs(h: int, w: int, d: int) -> dict:
    """Name -> (padded input shape, Cout) of each conv on an (h, w) image."""
    return {name: ((h // _CONV_SCALE[name] + 2, w // _CONV_SCALE[name] + 2, cin), cout)
            for name, kind, cin, cout in topology(d) if kind.startswith("conv3x3")}


@functools.lru_cache(maxsize=16)
def _most_bands(h: int, w: int, d: int) -> int:
    """The most row bands of any conv of a forward on an (h, w) image at
    descriptor width d."""
    return max(len(_conv3_bands(shape[0] - 2, shape[1], shape[2], cout)[0])
               for shape, cout in _conv_inputs(h, w, d).values())


@functools.lru_cache(maxsize=16)
def _layout(h: int, w: int, d: int) -> dict:
    """Name -> (arena, offset, shape) of each array ``forward`` writes on an
    (h, w) image at descriptor width d, the returned maps and small
    temporaries aside. Offsets count floats within an arena.

    The tape-free forward places every array at its offset in one buffer
    (``_workspace``), so arrays whose lifetimes do not overlap share memory:

    - arena "a" holds det1's padded input from enc2, which writes channels
      16:24, to det1;
    - arena "b" holds one stage at a time: enc1 and enc2's padded inputs,
      then enc3 and enc4's padded inputs and enc4's output (over enc3's
      input, read by then), then the detection upsample's row GEMM output,
      then det2's padded input and the logits, then desc2's output;
    - arena "c" holds the description head's padded inputs, which live from
      pool2 to desc2;
    - arena "s" holds one lane's band scratch and accumulator, a row each,
      which the 8 convs share; the workspace repeats it once per lane.

    The taped forward takes a fresh array of each shape instead.
    """
    convs = _conv_inputs(h, w, d)
    xp = {name: shape for name, (shape, _) in convs.items()}
    size = {name: math.prod(shape) for name, shape in xp.items()}
    work = [_conv3_bands(shape[0] - 2, shape[1], shape[2], cout)[1:]
            for shape, cout in convs.values()]
    scratch, acc = max(s for s, _ in work), max(a for _, a in work)
    w4 = w // 4
    return {
        "det1_xp": ("a", 0, xp["det1"]),
        "enc2_xp": ("b", 0, xp["enc2"]),
        "enc1_xp": ("b", size["enc2"], xp["enc1"]),
        "enc4_xp": ("b", 0, xp["enc4"]),
        "enc3_xp": ("b", size["enc4"], xp["enc3"]),
        "enc4_out": ("b", size["enc4"], (h // 2, w // 2, 16)),
        "det_tall": ("b", 0, (h, w4 * 16)),
        "det2_xp": ("b", 0, xp["det2"]),
        "logits": ("b", size["det2"], (h, w, 1)),
        "desc_raw": ("b", 0, (h // 4, w4, d)),
        "desc1_xp": ("c", 0, xp["desc1"]),
        "desc2_xp": ("c", size["desc1"], xp["desc2"]),
        "scratch": ("s", 0, (1, scratch)),
        "acc": ("s", scratch, (1, acc)),
    }


_thread = threading.local()


def _workspace(h: int, w: int, d: int, lanes: int) -> dict:
    """This thread's tape-free forward arrays for an (h, w) image at
    descriptor width d on ``lanes`` lanes: views at their ``_layout``
    offsets into one buffer, kept across calls and rebuilt when the shape or
    the lane count changes. The buffer holds every arena once and arena "s"
    once per lane, so "scratch" and "acc" have one row per lane."""
    key = (h, w, d, lanes)
    if getattr(_thread, "key", None) != key:
        _thread.key = _thread.arrays = None  # free the old buffer first
        layout = _layout(h, w, d)
        copies = {"s": lanes}
        ends = {}
        for arena, offset, shape in layout.values():
            ends[arena] = max(ends.get(arena, 0), offset + math.prod(shape))
        sizes = [end * copies.get(arena, 1) for arena, end in ends.items()]
        starts = dict(zip(ends, itertools.accumulate(sizes, initial=0)))
        memory = np.empty(sum(sizes))
        arrays = {}
        for name, (arena, offset, shape) in layout.items():
            n = copies.get(arena, 1)
            rows = memory[starts[arena] :][: n * ends[arena]].reshape(n, ends[arena])
            arrays[name] = rows[:, offset : offset + math.prod(shape)].reshape(
                (n * shape[0],) + shape[1:])
        _thread.arrays = arrays
        _thread.key = key
    return _thread.arrays


def forward(
    params: ModelParams, image: np.ndarray, keep_cache: bool = True
) -> ModelOutput:
    """Evaluate the network on one image.

    ``image`` is (H, W) or (H, W, 1) with H and W divisible by 4. Pure
    function of (params, image). Each layer writes its output straight into
    the array its consumer reads: a conv adds its bias and ReLU band by band
    into the interior of the next conv's reflect-padded input, whose border
    is then filled in place; enc2 and the upsampled encoding fill det1's
    input side by side; the pools write into enc3's and desc1's inputs.

    ``keep_cache`` decides only where those arrays come from. With it, they
    are fresh, and the returned cache, which feeds ``backward``, keeps what
    ``backward`` cannot read elsewhere: each conv's padded input
    (``<layer>_xp``), enc4's output, the standardized logits with their
    scale and the descriptor norms. Each ReLU's mask is read back as
    ``post > 0`` from its consumer's input, each pool's argmax from its
    input, and the maps from the output. Without it (inference: eval,
    visualize, detect) they are views into this thread's workspace
    (``_workspace``), reused by the thread's next tape-free forward of the
    same shape, and the cache is empty, so ``backward`` rejects the output.

    A tape-free forward splits its layers' rows among
    ``workers.parallelism(_most_bands(H, W, d))`` lanes (``workers.lanes``,
    joined within the call): 2 for a 240x320 image on 2 CPUs, 1, in the
    calling thread, where every conv is one band (at 64x64 and below) or
    where that policy runs one job. The maps are always the taped forward's
    bits under the same BLAS thread count, and are always fresh arrays.
    """
    x = np.asarray(image, dtype=float)
    if x.ndim == 2:
        x = x[:, :, None]
    h, w, c = x.shape
    if h % 4 != 0 or w % 4 != 0:
        raise ValueError(f"image dimensions must be divisible by 4, got {h}x{w}")
    if c != 1:
        raise ValueError(f"expected 1 (grayscale) channel, got {c}")

    d = params.descriptor_dim
    if keep_cache:
        layout = _layout(h, w, d)

        def take(name):
            return np.empty(layout[name][2])

        prob, unit_q, cache = _layers(params.weights, x, take)
        return ModelOutput(prob_map=prob, desc_map=unit_q, cache=cache)
    lanes = workers.parallelism(_most_bands(h, w, d))
    take = _workspace(h, w, d, lanes).__getitem__
    with workers.lanes(lanes) as run:
        prob, unit_q, _ = _layers(params.weights, x, take, run, lanes)
    return ModelOutput(prob_map=prob, desc_map=unit_q)


def _layers(wts: dict, x: np.ndarray, take, run=workers.serial, lanes: int = 1) -> tuple:
    """``forward``'s layers on the (H, W, 1) image ``x``: (prob_map,
    desc_map, cache), with every array but the maps from ``take(name)``.

    ``run`` runs a job on each of ``lanes`` lanes (``workers.lanes``):
    each conv's bands, the detection upsample's rows and each pool's rows
    are split among them. Each lane computes its rows as a single lane
    would, in its own row of the "scratch" and "acc" buffers, so the split
    leaves the bits alone. Reflect borders, the logit standardization and
    the descriptor normalization run in the calling thread between the
    split layers.
    """
    scratch, acc = take("scratch"), take("acc")
    cache = {}

    def share(n, lane):
        """The contiguous rows of n that ``lane`` computes."""
        return slice(n * lane // lanes, n * (lane + 1) // lanes)

    def conv(name, xp, out, relu=True):
        cache[name + "_xp"] = xp
        w, b = wts[name + "_w"], wts[name + "_b"]
        run(lambda lane: _conv3(xp, w, b, out, relu, scratch[lane], acc[lane], lane, lanes))

    def pool(a, out):
        def job(lane):
            rows = share(out.shape[0], lane)
            _maxpool2(a[2 * rows.start : 2 * rows.stop], out[rows])
        run(job)

    xp1 = take("enc1_xp")
    xp1[1:-1, 1:-1] = x
    _reflect_border(xp1)
    xp2 = take("enc2_xp")
    conv("enc1", xp1, xp2[1:-1, 1:-1])
    _reflect_border(xp2)
    # det1's input: the upsampled encoding at channels 0:16, the full-res
    # skip (enc2's output, which pool1 reads) at 16:24
    det_xp = take("det1_xp")
    a2 = det_xp[1:-1, 1:-1, 16:]
    conv("enc2", xp2, a2)
    xp3 = take("enc3_xp")
    pool(a2, xp3[1:-1, 1:-1])
    _reflect_border(xp3)
    xp4 = take("enc4_xp")
    conv("enc3", xp3, xp4[1:-1, 1:-1])
    _reflect_border(xp4)
    a4 = cache["enc4_out"] = take("enc4_out")
    conv("enc4", xp4, a4)
    xq1 = take("desc1_xp")
    p2 = xq1[1:-1, 1:-1]
    pool(a4, p2)
    _reflect_border(xq1)

    # detection head: convs at full resolution; logits are standardized per
    # image (zero mean, unit variance) so probability mass can only be
    # redistributed, never deflated or saturated globally (the stabilizing
    # role of the omitted batch norm)
    tall, up = take("det_tall"), det_xp[1:-1, 1:-1, :16]
    run(lambda lane: _upsample4(p2, tall, up, share(up.shape[0], lane)))
    _reflect_border(det_xp)
    xd2 = take("det2_xp")
    conv("det1", det_xp, xd2[1:-1, 1:-1])
    _reflect_border(xd2)
    logits = take("logits")
    conv("det2", xd2, logits, relu=False)
    logits = logits[:, :, 0]
    centered = logits - logits.mean()
    scale = np.sqrt((centered * centered).mean() + NORM_EPS)
    z = centered / scale
    prob = _sigmoid(z)
    cache["logit_z"], cache["logit_scale"] = z, scale

    # description head: convs at quarter resolution, normalize; the x4
    # upsample and renormalization run at points only (``describe``)
    xq2 = take("desc2_xp")
    conv("desc1", xq1, xq2[1:-1, 1:-1])
    _reflect_border(xq2)
    raw = take("desc_raw")
    conv("desc2", xq2, raw, relu=False)
    unit_q, norm_q = _l2norm(raw)
    cache["desc_norm_q"] = norm_q
    return prob, unit_q, cache


def backward(
    params: ModelParams,
    output: ModelOutput,
    grad_prob: np.ndarray,
    grad_desc,
) -> dict:
    """Parameter gradients of sum(grad_prob * prob_map) + sum(grads *
    output.describe(rows, cols)), with ``grad_desc`` = (rows, cols, grads):
    the descriptor gradient at n image points, grads being (n, d). Points
    may repeat.

    ``output`` must come from ``forward`` with the same params, its maps
    unchanged: ``backward`` reads them as part of the tape. Returns a dict
    keyed like ``params.weights``.
    """
    cache = output.cache
    if not cache:
        raise ValueError("output carries no cache; run forward first")
    wts = params.weights
    grad_prob = np.asarray(grad_prob, dtype=float)
    if grad_prob.shape != output.prob_map.shape:
        raise ValueError(
            f"grad_prob shape {grad_prob.shape} != prob_map shape {output.prob_map.shape}"
        )
    rows, cols, grad_points = (np.asarray(a) for a in grad_desc)
    grad_points = grad_points.astype(float, copy=False)
    want = (rows.size, params.descriptor_dim)
    if rows.shape != cols.shape or rows.ndim != 1 or grad_points.shape != want:
        raise ValueError(f"grad_desc wants rows and cols of one shape (n,) and grads "
                         f"{want}, got {rows.shape}, {cols.shape}, {grad_points.shape}")
    height, width = output.prob_map.shape
    if rows.size and (rows.min() < 0 or rows.max() >= height
                      or cols.min() < 0 or cols.max() >= width):
        raise ValueError(f"grad_desc points outside the {height}x{width} image")

    grads = zero_grads(params)

    def conv_backward(name, g, input_grad=True):
        dw, db, dx = _conv3_backward(cache[name + "_xp"], wts[name + "_w"], g, input_grad)
        grads[name + "_w"] += dw
        grads[name + "_b"] += db
        return dx

    def conv_relu_backward(name, grad_post, post, input_grad=True):
        # post > 0 is the same mask as pre > 0, as post = max(pre, 0)
        return conv_backward(name, grad_post * (post > 0.0), input_grad)

    def interior(key):
        return cache[key][1:-1, 1:-1]

    # detection head (standardization backward: remove the gradient's mean
    # and its projection onto the standardized field, then unscale)
    prob = output.prob_map
    z, scale = cache["logit_z"], cache["logit_scale"]
    g = grad_prob * prob * (1.0 - prob)
    g = (g - g.mean() - z * (g * z).mean()) / scale
    g = conv_backward("det2", g[:, :, None])
    g = conv_relu_backward("det1", g, interior("det2_xp"))  # (H, W, 16 + 8)
    encoded = interior("desc1_xp")
    g_enc = _upsample4_backward(g[:, :, :16], encoded.shape)
    g_skip = g[:, :, 16:]

    # description head: the adjoint of ``describe`` at the points, then the
    # quarter-resolution normalization
    unit_q = output.desc_map
    g = _describe_backward(unit_q, rows, cols, grad_points)
    g = _l2norm_backward(g, unit_q, cache["desc_norm_q"])
    g = conv_backward("desc2", g)
    g_enc = g_enc + conv_relu_backward("desc1", g, interior("desc2_xp"))

    # shared encoder; the skip gradient joins at the second encoder activation
    a2, a4 = interior("det1_xp")[:, :, 16:], cache["enc4_out"]
    g = _maxpool2_backward(g_enc, a4)
    g = conv_relu_backward("enc4", g, a4)
    g = conv_relu_backward("enc3", g, interior("enc4_xp"))
    g = _maxpool2_backward(g, a2) + g_skip
    g = conv_relu_backward("enc2", g, a2)
    # nothing reads the image's gradient
    conv_relu_backward("enc1", g, interior("enc2_xp"), input_grad=False)
    return grads


def zero_grads(params: ModelParams) -> dict:
    return {k: np.zeros_like(v) for k, v in params.weights.items()}


def accumulate_grads(total: dict, part: dict) -> None:
    """In-place ``total += part``; summation order is the caller's loop order."""
    for k, v in part.items():
        total[k] += v


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    step: int
    m: dict
    v: dict

    @classmethod
    def fresh(cls, params: ModelParams) -> "AdamState":
        return cls(step=0, m=zero_grads(params), v=zero_grads(params))


# Adam's moment decay rates and denominator guard, at the published defaults
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def apply_update(params: ModelParams, grads: dict, state: AdamState | None = None,
                 lr: float = 1e-3):
    """One Adam descent step; returns (new_params, new_state) without mutating inputs."""
    if state is None:
        state = AdamState.fresh(params)
    if set(grads) != set(params.weights):
        raise ValueError("gradient keys do not match parameter keys")
    t = state.step + 1
    new_w, new_m, new_v = {}, {}, {}
    for k, w in params.weights.items():
        g = grads[k]
        if g.shape != w.shape:
            raise ValueError(f"gradient shape mismatch for {k}: {g.shape} vs {w.shape}")
        m = ADAM_BETA1 * state.m[k] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.v[k] + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        new_w[k] = w - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[k], new_v[k] = m, v
    return (
        ModelParams(new_w, params.descriptor_dim),
        AdamState(t, new_m, new_v),
    )


# ---------------------------------------------------------------------------
# checkpoint persistence
# ---------------------------------------------------------------------------

CKPT_HEADER = "pointprops-ckpt v1"


def save_checkpoint(path, params: ModelParams) -> None:
    """Versioned text checkpoint; floats at 17 significant digits round-trip exactly."""
    lines = [CKPT_HEADER]
    lines.append(f"descriptor_dim {params.descriptor_dim}")
    lines.append("in_channels 1")  # part of the v1 format; the model is single-channel
    for name in sorted(params.weights):
        arr = params.weights[name]
        shape = " ".join(str(s) for s in arr.shape)
        lines.append(f"param {name} {shape}")
        flat = arr.ravel()
        for start in range(0, flat.size, 8):
            lines.append(" ".join(f"{v:.17g}" for v in flat[start : start + 8]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> ModelParams:
    """Read a ``save_checkpoint`` file.

    Raises ValueError naming the file (and the line, where one is at fault)
    for a foreign header, a malformed, unknown or repeated meta line, a
    channel count other than 1, a descriptor_dim below 2 (which
    ``init_params`` also rejects), a malformed or repeated param line, a
    negative shape, a non-numeric or non-finite value, a param block cut
    short, or parameters that do not fit the fixed topology.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not a '{CKPT_HEADER}' checkpoint") from None
    if not lines or lines[0] != CKPT_HEADER:
        raise ValueError(f"{path}: not a '{CKPT_HEADER}' checkpoint")

    def malformed(idx, what):
        return ValueError(f"{path}: line {idx + 1}: {what}")

    meta = {}
    idx = 1
    while idx < len(lines) and not lines[idx].startswith("param "):
        try:
            key, val = lines[idx].split()
            value = int(val)
        except ValueError:
            raise malformed(idx, "malformed meta line, want '<key> <integer>'") from None
        if key not in ("descriptor_dim", "in_channels"):
            raise malformed(idx, f"unknown meta key '{key}'")
        if key in meta:
            raise malformed(idx, f"meta key '{key}' appears twice")
        if key == "in_channels" and value != 1:
            raise malformed(idx, f"in_channels {value}, but the model is single-channel")
        if key == "descriptor_dim" and value < 2:
            raise malformed(idx, f"descriptor_dim {value}, but the model needs at least 2")
        meta[key] = value
        idx += 1
    weights = {}
    while idx < len(lines):
        head = lines[idx].split()
        if len(head) < 2 or head[0] != "param":
            raise malformed(idx, "malformed record, want 'param <name> <shape>'")
        name = head[1]
        try:
            shape = tuple(int(s) for s in head[2:])
        except ValueError:
            raise malformed(idx, f"param {name} has a non-integer shape") from None
        if any(s < 0 for s in shape):
            raise malformed(idx, f"param {name} has a negative shape")
        if name in weights:
            raise malformed(idx, f"param {name} appears twice")
        count = math.prod(shape)
        start = idx
        idx += 1
        values = []
        while len(values) < count:
            if idx == len(lines) or lines[idx].startswith("param "):
                raise malformed(start, f"param {name} has {len(values)} of {count} values")
            try:
                row = [float(t) for t in lines[idx].split()]
            except ValueError:
                raise malformed(idx, f"non-numeric value in param {name}") from None
            if not np.all(np.isfinite(row)):
                raise malformed(idx, f"non-finite value in param {name}")
            values.extend(row)
            idx += 1
        if len(values) > count:
            raise malformed(idx - 1, f"param {name} has more than {count} values")
        weights[name] = np.array(values).reshape(shape)
    if "descriptor_dim" not in meta:
        raise ValueError(f"{path}: missing 'descriptor_dim' meta line")
    params = ModelParams(weights=weights, descriptor_dim=meta["descriptor_dim"])
    expected = param_shapes(params.descriptor_dim)
    if set(weights) != set(expected):
        raise ValueError(f"{path}: parameter names do not match the fixed topology")
    for name, shape in expected.items():
        if weights[name].shape != shape:
            raise ValueError(f"{path}: param {name} has shape {weights[name].shape}, "
                             f"want {shape}")
    return params
