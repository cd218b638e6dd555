"""Independent, loop-based re-evaluation of the network used as a test oracle.

Deliberately written with explicit per-pixel loops and no shared code with
the package implementation. Only suitable for tiny inputs.
"""

import numpy as np


def conv3(x, w, b):
    h, wid, cin = x.shape
    cout = w.shape[0]
    out = np.zeros((h, wid, cout))
    for i in range(h):
        for j in range(wid):
            for co in range(cout):
                acc = b[co]
                for ci in range(cin):
                    for ki in range(3):
                        for kj in range(3):
                            ii, jj = i + ki - 1, j + kj - 1
                            # reflect; a 1-pixel axis repeats its pixel
                            if ii == -1:
                                ii = min(1, h - 1)
                            elif ii == h:
                                ii = max(h - 2, 0)
                            if jj == -1:
                                jj = min(1, wid - 1)
                            elif jj == wid:
                                jj = max(wid - 2, 0)
                            acc += w[co, ci, ki, kj] * x[ii, jj, ci]
                out[i, j, co] = acc
    return out


def relu(x):
    return np.where(x > 0, x, 0.0)


def maxpool2(x):
    h, wid, c = x.shape
    out = np.zeros((h // 2, wid // 2, c))
    for i in range(h // 2):
        for j in range(wid // 2):
            for ch in range(c):
                out[i, j, ch] = max(
                    x[2 * i, 2 * j, ch],
                    x[2 * i, 2 * j + 1, ch],
                    x[2 * i + 1, 2 * j, ch],
                    x[2 * i + 1, 2 * j + 1, ch],
                )
    return out


def upsample4(x):
    h, wid, c = x.shape
    out = np.zeros((4 * h, 4 * wid, c))
    for i in range(4 * h):
        si = min(max((i + 0.5) / 4.0 - 0.5, 0.0), h - 1.0)
        i0 = int(np.floor(si))
        i1 = min(i0 + 1, h - 1)
        ti = si - i0
        for j in range(4 * wid):
            sj = min(max((j + 0.5) / 4.0 - 0.5, 0.0), wid - 1.0)
            j0 = int(np.floor(sj))
            j1 = min(j0 + 1, wid - 1)
            tj = sj - j0
            for ch in range(c):
                top = (1 - tj) * x[i0, j0, ch] + tj * x[i0, j1, ch]
                bot = (1 - tj) * x[i1, j0, ch] + tj * x[i1, j1, ch]
                out[i, j, ch] = (1 - ti) * top + ti * bot
    return out


def l2norm(x):
    out = np.zeros_like(x)
    h, wid, c = x.shape
    for i in range(h):
        for j in range(wid):
            n = np.sqrt(np.dot(x[i, j], x[i, j]) + 1e-12)
            out[i, j] = x[i, j] / n
    return out


def sigmoid(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return np.clip(s, 1e-12, 1.0 - 1e-12)


def forward(params, image):
    """Returns (prob_map, desc_field) matching the documented architecture."""
    x = np.asarray(image, dtype=float)
    if x.ndim == 2:
        x = x[:, :, None]
    w = params.weights
    a1 = relu(conv3(x, w["enc1_w"], w["enc1_b"]))
    a2 = relu(conv3(a1, w["enc2_w"], w["enc2_b"]))
    a = maxpool2(a2)
    a = relu(conv3(a, w["enc3_w"], w["enc3_b"]))
    a = relu(conv3(a, w["enc4_w"], w["enc4_b"]))
    encoded = maxpool2(a)

    up = upsample4(encoded)
    h, wid = up.shape[:2]
    det = np.zeros((h, wid, up.shape[2] + a2.shape[2]))
    for i in range(h):
        for j in range(wid):
            det[i, j, : up.shape[2]] = up[i, j]
            det[i, j, up.shape[2] :] = a2[i, j]
    det = relu(conv3(det, w["det1_w"], w["det1_b"]))
    det = conv3(det, w["det2_w"], w["det2_b"])[:, :, 0]
    mean = 0.0
    for row in det:
        for v in row:
            mean += v
    mean /= det.size
    var = 0.0
    for row in det:
        for v in row:
            var += (v - mean) ** 2
    var /= det.size
    prob = sigmoid((det - mean) / np.sqrt(var + 1e-12))

    dsc = relu(conv3(encoded, w["desc1_w"], w["desc1_b"]))
    dsc = conv3(dsc, w["desc2_w"], w["desc2_b"])
    dsc = l2norm(dsc)
    dsc = upsample4(dsc)
    dsc = l2norm(dsc)
    return prob, dsc
