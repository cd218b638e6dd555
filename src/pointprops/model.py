"""Small fully convolutional detector/descriptor with exact analytic gradients.

The network shares one encoder between two heads. The detection head emits a
per-pixel interest probability in (0, 1); the description head emits a
per-pixel unit-norm description vector. Everything is plain numpy so the
backward pass is exact and checkable against finite differences.

Architecture (all convs 3x3, stride 1, pad 1; ReLU after every conv except
head outputs):

    encoder:      conv(1->8)  conv(8->8)  maxpool2  conv(8->16) conv(16->16) maxpool2
    detection:    [bilinear x4 of the encoding, skip-concat of the full-res
                   second encoder activation], conv(24->8), conv(8->1),
                   standardize logits, sigmoid
    description:  conv(16->16), conv(16->d), L2 normalize, bilinear x4, renormalize

Convolutions use reflection padding so image borders carry no constant frame
cue. No convolution builds a (H*W, C*9) patch matrix: ``_conv3`` multiplies
each padded pixel by all 9 taps' weights and shifts the 9 products after,
one band of rows at a time, and the training tape keeps only each conv's
padded input.
The detection head needs the full-resolution skip: without it the head only
sees 4x-upsampled features and cannot localize maxima to the pixel, which
the selection step requires. The per-image logit standardization
(zero mean, unit variance) blocks the degenerate optima of deflating every
probability at once or saturating plateaus that strict non-maximum
suppression would reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import image_io

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
        ("desc_up", "bilinear_up4", descriptor_dim, descriptor_dim),
        ("desc_renorm", "l2norm", descriptor_dim, descriptor_dim),
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
    desc_field: np.ndarray  # (H, W, d), unit rows
    cache: dict = field(default_factory=dict, repr=False)


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


def glorot_bound(cin: int, cout: int, ksize: int = 3) -> float:
    fan_in = cin * ksize * ksize
    fan_out = cout * ksize * ksize
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


# ---------------------------------------------------------------------------
# layer primitives
# ---------------------------------------------------------------------------


# Least size of one band of a convolution's (rows, W+2, 9, Cout) tap
# products in ``_conv3``. Bands keep that intermediate cache-sized and bound
# the memory of a large image's forward to one band per layer.
BAND_BYTES = 1 << 20


def _bands(n_rows: int, row_bytes: int):
    """(start, stop) of near-equal row bands of at least ``BAND_BYTES`` each,
    or one band when all ``n_rows`` are smaller."""
    least_rows = min(n_rows, -(-BAND_BYTES // row_bytes))
    num_bands = n_rows // least_rows
    edges = [n_rows * i // num_bands for i in range(num_bands + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _reflect_pad(x: np.ndarray) -> np.ndarray:
    """Pad (H, W, C) by one reflected pixel on each side, as
    ``np.pad(x, ((1, 1), (1, 1), (0, 0)), mode="reflect")`` does: a 1-pixel
    axis repeats its pixel."""
    h, w, c = x.shape
    xp = np.empty((h + 2, w + 2, c))
    xp[1:-1, 1:-1] = x
    xp[0, 1:-1] = x[min(1, h - 1)]
    xp[-1, 1:-1] = x[max(h - 2, 0)]
    xp[:, 0] = xp[:, 1 + min(1, w - 1)]
    xp[:, -1] = xp[:, 1 + max(w - 2, 0)]
    return xp


def _reflect_fold(dxp: np.ndarray) -> np.ndarray:
    """Adjoint of ``_reflect_pad``: adds each pad pixel's gradient onto the
    pixel it copies (in place) and returns the (H, W, C) interior."""
    h, w = dxp.shape[0] - 2, dxp.shape[1] - 2
    dxp[1 + min(1, h - 1)] += dxp[0]
    dxp[1 + max(h - 2, 0)] += dxp[-1]
    dxp[:, 1 + min(1, w - 1)] += dxp[:, 0]
    dxp[:, 1 + max(w - 2, 0)] += dxp[:, -1]
    return dxp[1:-1, 1:-1]


def _conv3_plan(xp: np.ndarray, w: np.ndarray):
    """How ``_conv3`` and ``_conv3_backward`` lay out one 3x3 conv of the
    padded (H+2, W+2, Cin) input ``xp`` with (Cout, Cin, 3, 3) weights ``w``.

    Returns (taps, bands, band_rows): the weights as (Cin, 9*Cout), the bands
    of padded rows and the rows of the largest band.
    """
    hp, wp, cin = xp.shape
    cout = w.shape[0]
    taps = w.transpose(1, 2, 3, 0).reshape(cin, 9 * cout)
    bands = _bands(hp, wp * 9 * cout * 8)  # 8 bytes per float64
    return taps, bands, max(stop - start for start, stop in bands)


def _tap_windows(h: int, p0: int, p1: int):
    """Per tap t = 3 * ki + kj of a 3x3 kernel: (t, kj, i0, i1, q0, q1), the
    output rows i0:i1 that read padded rows q0 + p0 : q1 + p0, the part of
    p0:p1 that tap row ki reaches."""
    windows = []
    for t in range(9):
        ki, kj = divmod(t, 3)
        i0, i1 = max(p0 - ki, 0), min(p1 - ki, h)
        if i0 < i1:
            windows.append((t, kj, i0, i1, i0 + ki - p0, i1 + ki - p0))
    return windows


def _conv3(xp: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 conv, stride 1, channels-last, of a reflect-padded (H+2, W+2, Cin)
    input ``xp = _reflect_pad(x)``; returns the (H, W, Cout) output.

    Reflection padding keeps border responses content-driven; zero padding
    would hand the detector a constant frame cue.

    No (H*W, Cin*9) patch matrix is built: one GEMM of the padded pixels
    (rows, Cin) by the weights laid out (Cin, 9*Cout) gives every tap's
    product Y at every padded pixel, and the output is the bias plus 9
    shifted slices of Y. Y is built one band of padded rows (``_bands``) at
    a time in one buffer local to the call, so no whole-image intermediate
    is held and concurrent calls share nothing.
    """
    hp, wp, cin = xp.shape
    h, wid = hp - 2, wp - 2
    cout = w.shape[0]
    taps, bands, band_rows = _conv3_plan(xp, w)
    buffer = np.empty((band_rows * wp, 9 * cout))
    out = np.empty((h, wid, cout))
    out[...] = b
    for p0, p1 in bands:
        y = buffer[: (p1 - p0) * wp]
        np.matmul(xp[p0:p1].reshape(-1, cin), taps, out=y)
        y = y.reshape(p1 - p0, wp, 9, cout)
        for t, kj, i0, i1, q0, q1 in _tap_windows(h, p0, p1):
            out[i0:i1] += y[q0:q1, kj : kj + wid, t]
    return out


def _conv3_backward(xp: np.ndarray, w: np.ndarray, grad_out: np.ndarray):
    """Returns (dw, db, dx) of ``_conv3(xp, w, b)``, with dx the gradient of
    the unpadded input (the reflect fold of the padded one), over the
    forward's bands.

    dY holds the upstream gradient at every (padded pixel, tap) it came
    through; then dxp = dY @ taps.T and dtaps = xp.T @ dY, with no col2im
    fold.
    """
    hp, wp, cin = xp.shape
    h, wid = hp - 2, wp - 2
    cout = w.shape[0]
    taps, bands, band_rows = _conv3_plan(xp, w)
    db = grad_out.reshape(-1, cout).sum(axis=0)
    dtaps = np.zeros(taps.shape)
    buffer = np.empty((band_rows, wp, 9, cout))
    dxp = np.empty_like(xp)
    for p0, p1 in bands:
        dy = buffer[: p1 - p0]
        dy.fill(0.0)
        for t, kj, i0, i1, q0, q1 in _tap_windows(h, p0, p1):
            dy[q0:q1, kj : kj + wid, t] = grad_out[i0:i1]
        dy = dy.reshape(-1, 9 * cout)
        np.matmul(dy, taps.T, out=dxp[p0:p1].reshape(-1, cin))
        dtaps += xp[p0:p1].reshape(-1, cin).T @ dy
    dw = dtaps.reshape(cin, 3, 3, cout).transpose(3, 0, 1, 2)
    return dw, db, _reflect_fold(dxp)


def _maxpool2(x: np.ndarray):
    """2x2 stride-2 max pool; returns (out, argmax) with argmax over the 4 cells."""
    h, w, c = x.shape
    blocks = x.reshape(h // 2, 2, w // 2, 2, c).transpose(0, 2, 1, 3, 4)
    blocks = blocks.reshape(h // 2, w // 2, 4, c)
    arg = blocks.argmax(axis=2)
    out = np.take_along_axis(blocks, arg[:, :, None, :], axis=2)[:, :, 0, :]
    return out, arg


def _maxpool2_backward(grad_out: np.ndarray, arg: np.ndarray, in_shape):
    h, w, c = in_shape
    dblocks = np.zeros((h // 2, w // 2, 4, c))
    np.put_along_axis(dblocks, arg[:, :, None, :], grad_out[:, :, None, :], axis=2)
    dblocks = dblocks.reshape(h // 2, w // 2, 2, 2, c).transpose(0, 2, 1, 3, 4)
    return dblocks.reshape(h, w, c)


def _apply_rowcol(mat_h: np.ndarray, x: np.ndarray, mat_w: np.ndarray) -> np.ndarray:
    """out[i, j, c] = sum_h sum_w mat_h[i, h] * x[h, w, c] * mat_w[j, w]."""
    h, w, c = x.shape
    tall = (mat_h @ x.reshape(h, w * c)).reshape(-1, w, c)
    wide = (mat_w @ tall.transpose(1, 0, 2).reshape(w, -1)).reshape(
        mat_w.shape[0], tall.shape[0], c
    )
    return wide.transpose(1, 0, 2)


def _upsample_matrix(n_in: int) -> np.ndarray:
    """Bilinear x4 operator (4 * n_in, n_in); its transpose is the backward pass."""
    return image_io.resample_matrix(n_in, 4 * n_in)


def _upsample4(x: np.ndarray) -> np.ndarray:
    return _apply_rowcol(_upsample_matrix(x.shape[0]), x, _upsample_matrix(x.shape[1]))


def _upsample4_backward(grad_out: np.ndarray, in_shape) -> np.ndarray:
    return _apply_rowcol(
        _upsample_matrix(in_shape[0]).T, grad_out, _upsample_matrix(in_shape[1]).T
    )


def _l2norm(x: np.ndarray):
    norm = np.sqrt((x * x).sum(axis=-1) + NORM_EPS)
    return x / norm[..., None], norm


def _l2norm_backward(grad_out: np.ndarray, y: np.ndarray, norm: np.ndarray) -> np.ndarray:
    proj = (grad_out * y).sum(axis=-1, keepdims=True)
    return (grad_out - y * proj) / norm[..., None]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, PROB_CLIP, 1.0 - PROB_CLIP)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


class _DiscardWrites(dict):
    """Stands in for the cache when no backward pass will follow: every
    ``cache[key] = value`` is dropped, so nothing outlives its layer."""

    def __setitem__(self, key, value):
        pass


def forward(
    params: ModelParams, image: np.ndarray, keep_cache: bool = True
) -> ModelOutput:
    """Evaluate the network on one image.

    ``image`` is (H, W) or (H, W, 1) with H and W divisible by 4. Pure
    function of (params, image); the returned cache feeds ``backward`` and
    holds each conv's reflect-padded input (``<layer>_xp``) and
    pre-activation, not its patches. With ``keep_cache=False`` nothing is
    written to the cache, so each padded input and pre-activation is freed
    as soon as the next layer has consumed it; the maps are the same bits,
    but ``backward`` rejects the output. Inference (eval, visualize,
    detect) uses this.
    """
    x = np.asarray(image, dtype=float)
    if x.ndim == 2:
        x = x[:, :, None]
    h, w, c = x.shape
    if h % 4 != 0 or w % 4 != 0:
        raise ValueError(f"image dimensions must be divisible by 4, got {h}x{w}")
    if c != 1:
        raise ValueError(f"expected 1 (grayscale) channel, got {c}")

    wts = params.weights
    cache = {} if keep_cache else _DiscardWrites()
    cache["image"] = x

    def conv(name, inp):
        xp = _reflect_pad(inp)
        cache[name + "_xp"] = xp
        return _conv3(xp, wts[name + "_w"], wts[name + "_b"])

    def conv_relu(name, inp):
        pre = conv(name, inp)
        cache[name + "_pre"] = pre
        return np.maximum(pre, 0.0)

    a1 = conv_relu("enc1", x)
    a2 = conv_relu("enc2", a1)
    p1, arg1 = _maxpool2(a2)
    cache["pool1_arg"], cache["pool1_shape"] = arg1, a2.shape
    a3 = conv_relu("enc3", p1)
    a4 = conv_relu("enc4", a3)
    p2, arg2 = _maxpool2(a4)
    cache["pool2_arg"], cache["pool2_shape"] = arg2, a4.shape
    cache["encoded"] = p2

    # detection head: upsampled encoding concatenated with the full-res skip,
    # then convs at full resolution; logits are standardized per image (zero
    # mean, unit variance) so probability mass can only be redistributed,
    # never deflated or saturated globally (the stabilizing role of the
    # omitted batch norm)
    det_up = np.concatenate([_upsample4(p2), a2], axis=2)
    d1 = conv_relu("det1", det_up)
    logits = conv("det2", d1)[:, :, 0]
    centered = logits - logits.mean()
    scale = np.sqrt((centered * centered).mean() + NORM_EPS)
    z = centered / scale
    prob = _sigmoid(z)
    cache["prob"] = prob
    cache["logit_z"], cache["logit_scale"] = z, scale

    # description head: convs at quarter resolution, normalize, upsample, renormalize
    e1 = conv_relu("desc1", p2)
    raw = conv("desc2", e1)
    unit_q, norm_q = _l2norm(raw)
    cache["desc_unit_q"], cache["desc_norm_q"] = unit_q, norm_q
    up = _upsample4(unit_q)
    unit_f, norm_f = _l2norm(up)
    cache["desc_unit_f"], cache["desc_norm_f"] = unit_f, norm_f

    return ModelOutput(prob_map=prob, desc_field=unit_f, cache=cache)


def backward(
    params: ModelParams,
    output: ModelOutput,
    grad_prob: np.ndarray,
    grad_desc: np.ndarray,
) -> dict:
    """Parameter gradients of sum(grad_prob * prob_map) + sum(grad_desc * desc_field).

    ``output`` must come from ``forward`` with the same params. Returns a dict
    keyed like ``params.weights``.
    """
    cache = output.cache
    if not cache:
        raise ValueError("output carries no cache; run forward first")
    wts = params.weights
    grad_prob = np.asarray(grad_prob, dtype=float)
    grad_desc = np.asarray(grad_desc, dtype=float)
    if grad_prob.shape != output.prob_map.shape:
        raise ValueError(
            f"grad_prob shape {grad_prob.shape} != prob_map shape {output.prob_map.shape}"
        )
    if grad_desc.shape != output.desc_field.shape:
        raise ValueError(
            f"grad_desc shape {grad_desc.shape} != desc_field shape {output.desc_field.shape}"
        )

    grads = zero_grads(params)

    def conv_backward(name, g):
        dw, db, dx = _conv3_backward(cache[name + "_xp"], wts[name + "_w"], g)
        grads[name + "_w"] += dw
        grads[name + "_b"] += db
        return dx

    def conv_relu_backward(name, grad_post):
        return conv_backward(name, grad_post * (cache[name + "_pre"] > 0.0))

    # detection head (standardization backward: remove the gradient's mean
    # and its projection onto the standardized field, then unscale)
    prob = cache["prob"]
    z, scale = cache["logit_z"], cache["logit_scale"]
    g = grad_prob * prob * (1.0 - prob)
    g = (g - g.mean() - z * (g * z).mean()) / scale
    g = conv_backward("det2", g[:, :, None])
    g = conv_relu_backward("det1", g)  # (H, W, 16 + 8): upsampled part + skip
    g_enc = _upsample4_backward(g[:, :, :16], cache["encoded"].shape)
    g_skip = g[:, :, 16:]

    # description head
    g = _l2norm_backward(grad_desc, cache["desc_unit_f"], cache["desc_norm_f"])
    g = _upsample4_backward(g, cache["desc_unit_q"].shape)
    g = _l2norm_backward(g, cache["desc_unit_q"], cache["desc_norm_q"])
    g = conv_backward("desc2", g)
    g_enc = g_enc + conv_relu_backward("desc1", g)

    # shared encoder; the skip gradient joins at the second encoder activation
    g = _maxpool2_backward(g_enc, cache["pool2_arg"], cache["pool2_shape"])
    g = conv_relu_backward("enc4", g)
    g = conv_relu_backward("enc3", g)
    g = _maxpool2_backward(g, cache["pool1_arg"], cache["pool1_shape"]) + g_skip
    g = conv_relu_backward("enc2", g)
    g = conv_relu_backward("enc1", g)
    return grads


def zero_grads(params: ModelParams) -> dict:
    return {k: np.zeros_like(v) for k, v in params.weights.items()}


def accumulate_grads(total: dict, part: dict, scale: float = 1.0) -> None:
    """In-place ``total += scale * part``; summation order is the caller's loop order."""
    for k, v in part.items():
        total[k] += scale * v


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


def apply_update(
    params: ModelParams,
    grads: dict,
    state: AdamState | None = None,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
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
        m = beta1 * state.m[k] + (1.0 - beta1) * g
        v = beta2 * state.v[k] + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_w[k] = w - lr * m_hat / (np.sqrt(v_hat) + eps)
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
    channel count other than 1, a malformed or repeated param line, a
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
