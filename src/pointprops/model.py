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
cue. The detection head needs the full-resolution skip: without it the head
only sees 4x-upsampled features and cannot localize maxima to the pixel,
which the selection step requires. The per-image logit standardization
(zero mean, unit variance) blocks the degenerate optima of deflating every
probability at once or saturating plateaus that strict non-maximum
suppression would reject.
"""

from __future__ import annotations

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


# Least size of one band of a convolution's patch matrix. Bands split only
# the M (pixel) dimension of the GEMM, so every output keeps the same K-term
# dot product -- provided each band's GEMM runs the same BLAS kernel as the
# whole-image GEMM would. OpenBLAS hands GEMMs with M*N up to about 1200 to a
# small-matrix kernel that sums in another order; with 1 MiB of float64
# patches every band of this topology (K <= 216; N >= 2, or N = 1, which
# numpy sends to the matrix-vector routine) has M*N >= 1820. On the
# 240x320 forward's conv layers, bands of 0.5, 1 and 2 MiB take the same
# time within noise, about 120 ms against 210 ms for whole-matrix copies.
BAND_BYTES = 1 << 20


def _conv3(x: np.ndarray, w: np.ndarray, b: np.ndarray, cols=None) -> np.ndarray:
    """3x3 conv, stride 1, reflect pad 1, channels-last (H, W, C) activations.

    Reflection padding keeps border responses content-driven; zero padding
    would hand the detector a constant frame cue.

    The (H*W, C*9) patch matrix is built one band of whole output rows at a
    time, each band at least ``BAND_BYTES`` (or the whole image), and each
    band's rows are multiplied by the weights as soon as they are copied. If
    ``cols`` is given, an (H*W, C*9) array, the bands are its slices and it
    ends up holding the whole patch matrix for ``_conv3_backward``; otherwise
    one band buffer, local to this call, is reused, so no whole-image patch
    matrix is ever held. The outputs are the same bits either way.
    """
    h, wid, cin = x.shape
    cout = w.shape[0]
    k = cin * 9
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)), mode="reflect")
    # (h, w, cin, 3, 3): the layout of w.reshape(cout, cin * 9)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(0, 1))
    weights = w.reshape(cout, k).T
    least_rows = min(h, -(-BAND_BYTES // (wid * k * 8)))  # 8 bytes per float64
    num_bands = h // least_rows
    edges = [h * i // num_bands for i in range(num_bands + 1)]
    if cols is None:
        buffer = np.empty((-(-h // num_bands), wid, cin, 3, 3))
    out = np.empty((h, wid, cout))
    for r0, r1 in zip(edges[:-1], edges[1:]):
        if cols is None:
            band = buffer[: r1 - r0]
        else:
            band = cols[r0 * wid : r1 * wid].reshape(r1 - r0, wid, cin, 3, 3)
        np.copyto(band, windows[r0:r1])
        np.matmul(band.reshape(-1, k), weights, out=out[r0:r1].reshape(-1, cout))
    out += b
    return out


def _conv3_backward(cols: np.ndarray, in_shape, w: np.ndarray, grad_out: np.ndarray):
    """Returns (dw, db, dx); ``cols`` is the forward's patch matrix."""
    h, wid, cin = in_shape
    cout = w.shape[0]
    g = grad_out.reshape(h * wid, cout)
    dw = (g.T @ cols).reshape(w.shape)
    db = g.sum(axis=0)
    dcols = (g @ w.reshape(cout, cin * 9)).reshape(h, wid, cin, 3, 3)
    dxp = np.zeros((h + 2, wid + 2, cin))
    for ki in range(3):
        for kj in range(3):
            dxp[ki : ki + h, kj : kj + wid, :] += dcols[:, :, :, ki, kj]
    # fold reflect-pad gradients back onto their mirrored source rows/columns
    dx = dxp[1:-1, 1:-1, :].copy()
    dx[1, :, :] += dxp[0, 1:-1, :]
    dx[-2, :, :] += dxp[-1, 1:-1, :]
    dx[:, 1, :] += dxp[1:-1, 0, :]
    dx[:, -2, :] += dxp[1:-1, -1, :]
    dx[1, 1, :] += dxp[0, 0, :]
    dx[1, -2, :] += dxp[0, -1, :]
    dx[-2, 1, :] += dxp[-1, 0, :]
    dx[-2, -2, :] += dxp[-1, -1, :]
    return dw, db, dx


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
    holds each conv's whole (H*W, C*9) patch matrix. With
    ``keep_cache=False`` nothing is written to the cache and no conv builds
    a whole patch matrix (see ``_conv3``), so each pre-activation is freed
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
        height, width, chans = inp.shape
        cols = np.empty((height * width, chans * 9)) if keep_cache else None
        cache[name + "_cols"] = cols
        cache[name + "_shape"] = inp.shape
        return _conv3(inp, wts[name + "_w"], wts[name + "_b"], cols)

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
        dw, db, dx = _conv3_backward(
            cache[name + "_cols"], cache[name + "_shape"], wts[name + "_w"], g
        )
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
    for a foreign header, a malformed meta or param line, a channel count
    other than 1, a non-numeric or non-finite value, a param block cut
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
            meta[key] = int(val)
        except ValueError:
            raise malformed(idx, "malformed meta line, want '<key> <integer>'") from None
        if key == "in_channels" and meta[key] != 1:
            raise malformed(idx, f"in_channels {meta[key]}, but the model is single-channel")
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
        count = int(np.prod(shape))
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
