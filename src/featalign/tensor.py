"""Minimal dense tensors with reverse-mode differentiation.

Enough machinery to train the descriptor network through both losses:
elementwise ops, (batched) matmul, conv2d, the decoder's fused nearest
upsample + channel concat + 3x3 conv (backpropagated at the coarse
resolution), batched 2x2 determinant/inverse, central differences, and
bilinear sampling at constant coordinates, whose gradient flows into the map
only.

A :class:`Tape` records primitive applications in execution order; the
backward pass walks that record in reverse exactly once, accumulating
gradients additively. Tensors without a tape run on a pure numpy fast path.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NumericalFault


class Tensor:
    """A numpy array plus an optional handle into a gradient tape."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: Optional["Tape"] = None, node: Optional[int] = None):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.tape = tape
        self.node = node

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, taped={self.tape is not None})"


class Tape:
    """Append-only record of primitive applications, one graph per tape.

    ``backward`` runs once per tape. It drops each node's backward closure
    as soon as that node has run, and the rest when it returns, so the
    activations the closures hold are freed during the pass; a second
    ``backward`` raises ``ValueError``. It also drops each inner node's
    gradient once that node has passed it to its inputs, so after the pass
    the tape keeps leaf gradients only, and ``grad`` of an inner node
    raises. The closures hold arrays, counts and flags, never a ``Tensor``:
    a tensor references its tape, so a captured one would make every graph
    a reference cycle that outlives its step.
    """

    def __init__(self):
        self._backwards: list[Callable] = []
        # One entry per primitive input; None marks an untaped input.
        self._inputs: list[tuple[Optional[int], ...]] = []
        self._grads: Optional[list] = None

    def __len__(self):
        return len(self._backwards)

    def leaf(self, data) -> Tensor:
        """Registers ``data`` as a differentiable leaf (e.g. a parameter)."""
        return Tensor(np.asarray(data, dtype=np.float64), self, self._emit((), None))

    def _emit(self, input_nodes, backward_fn) -> int:
        self._backwards.append(backward_fn)
        self._inputs.append(tuple(input_nodes))
        return len(self._backwards) - 1

    def backward(self, loss: Tensor) -> None:
        """Computes d(loss)/d(node) for every node reachable from ``loss``.

        ``loss`` must be a scalar tensor recorded on this tape. Gradients
        accumulate additively; nodes are visited in reverse emission order,
        which is a reverse topological order by construction.
        """
        if loss.tape is not self or loss.node is None:
            raise ValueError("loss is not recorded on this tape")
        if loss.data.shape != ():
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        if self._grads is not None:
            raise ValueError("backward() already ran on this tape; record a new one")
        backwards = self._backwards
        self._backwards = [None] * len(backwards)
        self._grads = grads = [None] * len(backwards)
        grads[loss.node] = np.ones(())
        for node in range(loss.node, -1, -1):
            fn, backwards[node] = backwards[node], None
            g = grads[node]
            if g is None or fn is None:
                continue
            contributions = fn(g)
            grads[node] = g = None
            for input_node, contrib in zip(self._inputs[node], contributions):
                if input_node is None or contrib is None:
                    continue
                if grads[input_node] is None:
                    grads[input_node] = contrib
                else:
                    grads[input_node] = grads[input_node] + contrib

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient of the backward() loss w.r.t. leaf ``t`` (zeros if unused)."""
        if self._grads is None:
            raise ValueError("backward() has not been run on this tape")
        if t.tape is not self or t.node is None:
            raise ValueError("tensor is not recorded on this tape")
        if self._inputs[t.node]:
            raise ValueError("backward() keeps leaf gradients only; this tensor is an inner node")
        g = self._grads[t.node]
        if g is None:
            return np.zeros(t.data.shape)
        return np.asarray(g)


def astensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _tape_of(*tensors) -> Optional[Tape]:
    tape = None
    for t in tensors:
        if isinstance(t, Tensor) and t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ValueError("operands live on different tapes")
    return tape


def _make(data, inputs: Sequence, backward_fn) -> Tensor:
    """Wires a primitive result into the tape shared by its taped inputs.

    ``backward_fn(g)`` must return one gradient (or None) per input in
    ``inputs`` order; the tape drops the gradients of untaped inputs.
    """
    tape = _tape_of(*inputs)
    if tape is None:
        return Tensor(data)
    node = tape._emit([t.node for t in inputs], backward_fn)
    return Tensor(data, tape, node)


def _require_same_shape(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# elementwise


def add(x, y) -> Tensor:
    if isinstance(y, (int, float)):
        x = astensor(x)
        return _make(x.data + y, [x], lambda g: [g])
    x, y = astensor(x), astensor(y)
    _require_same_shape(x.data, y.data, "add")
    return _make(x.data + y.data, [x, y], lambda g: [g, g])


def neg(x) -> Tensor:
    x = astensor(x)
    return _make(-x.data, [x], lambda g: [-g])


def sub(x, y) -> Tensor:
    return add(x, neg(y))


def mul(x, y) -> Tensor:
    if isinstance(y, (int, float)):
        x = astensor(x)
        return _make(x.data * y, [x], lambda g: [g * y])
    x, y = astensor(x), astensor(y)
    _require_same_shape(x.data, y.data, "mul")
    xd, yd = x.data, y.data
    return _make(xd * yd, [x, y], lambda g: [g * yd, g * xd])


def _relu_grad(x_data: np.ndarray, g: np.ndarray) -> np.ndarray:
    # Module-level so verification harnesses can patch it to simulate a
    # broken backward rule.
    return g * (x_data > 0.0)


def relu(x) -> Tensor:
    # The backward keeps the output, not the input: out > 0 exactly where
    # x > 0, and the pre-activation can be freed during the forward pass.
    x = astensor(x)
    out = np.maximum(x.data, 0.0)
    return _make(out, [x], lambda g: [_relu_grad(out, g)])


def log(x) -> Tensor:
    x = astensor(x)
    xd = x.data
    return _make(np.log(xd), [x], lambda g: [g / xd])


def sqrt(x) -> Tensor:
    x = astensor(x)
    out = np.sqrt(x.data)
    return _make(out, [x], lambda g: [g * (0.5 / out)])


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(x, shape) -> Tensor:
    x = astensor(x)
    old = x.data.shape
    return _make(x.data.reshape(shape), [x], lambda g: [g.reshape(old)])


def transpose_last2(x) -> Tensor:
    x = astensor(x)
    return _make(np.swapaxes(x.data, -1, -2), [x], lambda g: [np.swapaxes(g, -1, -2)])


def reduce_sum(x, axis: Optional[int] = None) -> Tensor:
    x = astensor(x)
    shape = x.data.shape
    if axis is None:
        return _make(x.data.sum(), [x], lambda g: [np.broadcast_to(g, shape).copy()])

    def backward(g):
        return [np.broadcast_to(np.expand_dims(g, axis), shape).copy()]

    return _make(x.data.sum(axis=axis), [x], backward)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(x, y) -> Tensor:
    x, y = astensor(x), astensor(y)
    xd, yd = x.data, y.data
    if xd.ndim < 2 or yd.ndim < 2:
        raise ValueError("matmul expects at least 2-D operands")
    if xd.ndim != yd.ndim:
        raise ValueError(f"matmul: rank mismatch {xd.shape} vs {yd.shape}")
    if xd.shape[:-2] != yd.shape[:-2]:
        raise ValueError(f"matmul: batch dims differ {xd.shape} vs {yd.shape}")
    if xd.shape[-1] != yd.shape[-2]:
        raise ValueError(f"matmul: inner dims differ {xd.shape} vs {yd.shape}")

    def backward(g):
        return [g @ np.swapaxes(yd, -1, -2), np.swapaxes(xd, -1, -2) @ g]

    return _make(xd @ yd, [x, y], backward)


def det2x2(x) -> Tensor:
    x = astensor(x)
    m = x.data
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"det2x2 expects (..., 2, 2), got {m.shape}")
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]

    def backward(g):
        out = np.empty_like(m)
        out[..., 0, 0] = g * d
        out[..., 0, 1] = -g * c
        out[..., 1, 0] = -g * b
        out[..., 1, 1] = g * a
        return [out]

    return _make(a * d - b * c, [x], backward)


def inv2x2(x) -> Tensor:
    x = astensor(x)
    m = x.data
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"inv2x2 expects (..., 2, 2), got {m.shape}")
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if np.any(np.abs(det) < 1e-300):
        raise NumericalFault("inv2x2: singular 2x2 matrix (|det| < 1e-300)")
    inv = np.empty_like(m)
    inv[..., 0, 0] = m[..., 1, 1]
    inv[..., 0, 1] = -m[..., 0, 1]
    inv[..., 1, 0] = -m[..., 1, 0]
    inv[..., 1, 1] = m[..., 0, 0]
    inv = inv / det[..., None, None]

    def backward(g):
        inv_t = np.swapaxes(inv, -1, -2)
        return [-inv_t @ g @ inv_t]

    return _make(inv, [x], backward)


# ---------------------------------------------------------------------------
# spatial ops (feature maps are (H, W, C))


# OpenBLAS (0.3.31) makes a GEMM's sums depend on its thread count when the
# reduction is not a multiple of 32 long, as the decoder's padded 66x66 and
# 34x34 grids are. conv2d pads its sums over pixels with zero rows up to that
# multiple, so training writes the same bytes on any thread count.
_PIXEL_ROWS_MULTIPLE = 32
# With fewer input channels, per-tap products are too narrow for BLAS and one
# im2col GEMM runs the forward pass faster.
_TAP_MIN_CHANNELS = 16


def _pixel_rows(n: int) -> int:
    return -(-n // _PIXEL_ROWS_MULTIPLE) * _PIXEL_ROWS_MULTIPLE


def _taps(kh: int, kw: int, stride: int, ho: int, wo: int) -> list:
    """(di, dj, rows, columns of the padded input under tap (di, dj)), row-major."""
    return [
        (di, dj, slice(di, di + stride * (ho - 1) + 1, stride), slice(dj, dj + stride * (wo - 1) + 1, stride))
        for di in range(kh)
        for dj in range(kw)
    ]


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int, rows: int) -> np.ndarray:
    """The (rows, kh*kw*Cin) im2col matrix of an (Hp, Wp, Cin) padded input; rows past Ho*Wo are zero."""
    cin = xp.shape[2]
    cols = np.empty((rows, kh, kw, cin))
    cols[ho * wo :] = 0.0
    window = cols[: ho * wo].reshape(ho, wo, kh, kw, cin)
    for di, dj, si, sj in _taps(kh, kw, stride, ho, wo):
        window[:, :, di, dj] = xp[si, sj]
    return cols.reshape(rows, -1)


def _conv_forward(xp: np.ndarray, wd: np.ndarray, stride: int, ho: int, wo: int) -> np.ndarray:
    """Bias-free (Ho, Wo, Cout) convolution of an (Hp, Wp, Cin) padded input."""
    kh, kw, cin, cout = wd.shape
    if cin < _TAP_MIN_CHANNELS:
        return (_im2col(xp, kh, kw, stride, ho, wo, ho * wo) @ wd.reshape(-1, cout)).reshape(ho, wo, cout)
    out = np.zeros((ho, wo, cout))
    for di, dj, si, sj in _taps(kh, kw, stride, ho, wo):
        out += xp[si, sj] @ wd[di, dj]
    return out


def _on_grid_backward(xp: np.ndarray, wd: np.ndarray, g: np.ndarray, need_dx: bool):
    """(dW, padded-grid dX or None) of a stride-1 convolution.

    ``xp`` is the padded input as a (rows, Cin) matrix, rows past Hp*Wp
    zero. The shifted output gradients G (rows, kh*kw*Cout) hold g[p-di,
    q-dj] at padded pixel (p, q) under tap (di, dj): one windowed copy of g
    zero-padded by the kernel size minus one, taps reversed. Then dW = Xpᵀ G
    and dX = G Wᵀ.
    """
    kh, kw, cin, cout = wd.shape
    ho, wo = g.shape[:2]
    hp, wp = ho + kh - 1, wo + kw - 1
    gp = np.zeros((ho + 2 * (kh - 1), wo + 2 * (kw - 1), cout))
    gp[kh - 1 : kh - 1 + ho, kw - 1 : kw - 1 + wo] = g
    windows = np.lib.stride_tricks.sliding_window_view(gp, (kh, kw), axis=(0, 1))
    gm = np.empty((len(xp), kh * kw * cout))
    gm[hp * wp :] = 0.0
    gm[: hp * wp].reshape(hp, wp, kh, kw, cout)[...] = windows[..., ::-1, ::-1].transpose(0, 1, 3, 4, 2)
    dw = (xp.T @ gm).reshape(cin, kh, kw, cout).transpose(1, 2, 0, 3)
    dxp = None
    if need_dx:
        dxp = (gm[: hp * wp] @ wd.transpose(0, 1, 3, 2).reshape(-1, cin)).reshape(hp, wp, cin)
    return dw, dxp


def conv2d(x, w, bias=None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) on an (H, W, Cin) map.

    Kernel is (kh, kw, Cin, Cout); zero padding of ``pad`` pixels on every
    spatial side; square stride.

    Runs as a few GEMMs whose wide side carries the kernel taps. Forward is
    one GEMM on the im2col matrix (Ho*Wo, kh*kw*Cin) for narrow inputs and
    kh*kw per-tap products otherwise. Backward picks the smaller wide matrix:
    stride-1 layers with Cout < Cin copy the shifted output gradients into
    G (Hp*Wp, kh*kw*Cout) over the padded grid, so dW = Xpᵀ G and dX = G Wᵀ;
    the others rebuild the im2col matrix C for dW = Cᵀ g and scatter the
    taps of g Wᵀ into dX. An untaped input gets no dX.
    """
    x, w = astensor(x), astensor(w)
    xd, wd = x.data, w.data
    if xd.ndim != 3 or wd.ndim != 4:
        raise ValueError(f"conv2d: expected (H,W,Cin) and (kh,kw,Cin,Cout), got {xd.shape}, {wd.shape}")
    if xd.shape[2] != wd.shape[2]:
        raise ValueError(f"conv2d: channel mismatch {xd.shape} vs {wd.shape}")
    h, wi, cin = xd.shape
    kh, kw, _, cout = wd.shape
    hp, wp = h + 2 * pad, wi + 2 * pad
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ValueError("conv2d: kernel larger than padded input")

    def padded(rows):
        """The zero-padded input as a (rows, Cin) matrix; rows past Hp*Wp are zero."""
        if rows == hp * wp and not pad:
            return xd.reshape(rows, cin)
        xp = np.zeros((rows, cin))
        xp[: hp * wp].reshape(hp, wp, cin)[pad : pad + h, pad : pad + wi] = xd
        return xp

    out = _conv_forward(padded(hp * wp).reshape(hp, wp, cin), wd, stride, ho, wo)
    inputs = [x, w]
    has_bias = bias is not None
    if has_bias:
        bias = astensor(bias)
        out = out + bias.data
        inputs.append(bias)
    on_grid = stride == 1 and cout < cin
    need_dx = x.tape is not None

    def backward(g):
        dx = None
        if on_grid:
            dw, dxp = _on_grid_backward(padded(_pixel_rows(hp * wp)), wd, g, need_dx)
        else:
            rows = _pixel_rows(ho * wo)
            gf = np.zeros((rows, cout))
            gf[: ho * wo] = g.reshape(-1, cout)
            dw = (_im2col(padded(hp * wp).reshape(hp, wp, cin), kh, kw, stride, ho, wo, rows).T @ gf).reshape(wd.shape)
            if need_dx:
                dcols = (gf[: ho * wo] @ wd.reshape(-1, cout).T).reshape(ho, wo, kh, kw, cin)
                dxp = np.zeros((hp, wp, cin))
                for di, dj, si, sj in _taps(kh, kw, stride, ho, wo):
                    dxp[si, sj] += dcols[:, :, di, dj]
        if need_dx:
            dx = dxp[pad : pad + h, pad : pad + wi]
        grads = [dx, dw]
        if has_bias:
            grads.append(g.sum(axis=(0, 1)))
        return grads

    return _make(out, inputs, backward)


def upsample_concat_conv(a, skip, w, bias) -> Tensor:
    """The decoder block: relu-free 3x3, pad-1 conv of concat(upsample(a), skip).

    ``a`` is (H/2, W/2, Ca), nearest-upsampled 2x; ``skip`` is (H, W, Cs);
    the kernel is (3, 3, Ca+Cs, Cout) with the upsampled channels first. The
    forward builds the padded concatenated input and runs conv2d's forward
    on it, so its bits equal conv2d's on that input. The skip channels
    backpropagate through conv2d's stride-1 route. The upsampled ones do so
    at a's resolution: low-resolution pixel (u, v) collects, under each tap,
    the 2x2 block sum of the output gradient that tap reaches it from, as
    G (H/2*W/2, 9*Cout), so dW_up = Aᵀ G and dA = G W_upᵀ.
    """
    a, skip, w, bias = astensor(a), astensor(skip), astensor(w), astensor(bias)
    ad, sd, wd = a.data, skip.data, w.data
    if ad.ndim != 3 or sd.ndim != 3 or wd.ndim != 4:
        raise ValueError(f"upsample_concat_conv: expected (h,w,Ca), (2h,2w,Cs), (3,3,Cin,Cout), "
                         f"got {ad.shape}, {sd.shape}, {wd.shape}")
    h2, w2, ca = ad.shape
    h, wi, cs = sd.shape
    cout = wd.shape[3]
    if (h, wi) != (2 * h2, 2 * w2) or wd.shape[:3] != (3, 3, ca + cs) or bias.data.shape != (cout,):
        raise ValueError(f"upsample_concat_conv: shape mismatch {ad.shape}, {sd.shape}, {wd.shape}, {bias.data.shape}")
    hp, wp = h + 2, wi + 2
    xp = np.zeros((hp, wp, ca + cs))
    xp[1 : 1 + h, 1 : 1 + wi, :ca].reshape(h2, 2, w2, 2, ca)[...] = ad[:, None, :, None]
    xp[1 : 1 + h, 1 : 1 + wi, ca:] = sd
    out = _conv_forward(xp, wd, 1, h, wi) + bias.data

    def backward(g):
        rows = _pixel_rows(hp * wp)
        xp_skip = np.zeros((rows, cs))
        xp_skip[: hp * wp].reshape(hp, wp, cs)[1 : 1 + h, 1 : 1 + wi] = sd
        dw_skip, dxp_skip = _on_grid_backward(xp_skip, wd[:, :, ca:], g, True)
        # R[di] sums the two output rows whose tap di lands in each
        # low-resolution row; G then sums R's two columns the same way.
        gp = np.zeros((h + 2, wi + 2, cout))
        gp[1 : 1 + h, 1 : 1 + wi] = g
        n = h2 * w2
        gm = np.empty((_pixel_rows(n), 9 * cout))
        gm[n:] = 0.0
        blocks = gm[:n].reshape(h2, w2, 3, 3, cout)
        for di in range(3):
            r = gp[2 - di : 2 - di + h : 2] + gp[3 - di : 3 - di + h : 2]
            for dj in range(3):
                np.add(r[:, 2 - dj : 2 - dj + wi : 2], r[:, 3 - dj : 3 - dj + wi : 2], out=blocks[:, :, di, dj])
        am = np.zeros((len(gm), ca))
        am[:n] = ad.reshape(n, ca)
        dw_up = (am.T @ gm).reshape(ca, 3, 3, cout).transpose(1, 2, 0, 3)
        da = (gm[:n] @ wd[:, :, :ca].transpose(0, 1, 3, 2).reshape(-1, ca)).reshape(h2, w2, ca)
        dskip = dxp_skip[1 : 1 + h, 1 : 1 + wi]
        return [da, dskip, np.concatenate([dw_up, dw_skip], axis=2), g.sum(axis=(0, 1))]

    return _make(out, [a, skip, w, bias], backward)


def central_difference(x) -> Tensor:
    """Grid central differences of an (H, W, D) map, as an (H, W, 2D) map.

    Channel 2c holds (F[y, x+1, c] - F[y, x-1, c]) / 2 and channel 2c+1
    holds (F[y+1, x, c] - F[y-1, x, c]) / 2, so a sample reshapes to
    (N, D, 2). Entries whose stencil leaves the grid (the first and last
    column for x, row for y) are zero. Bilinear sampling is linear in the
    map, so a sample of this map equals the central difference of bilinear
    samples at x +- 1 px, up to rounding, wherever that stencil stays at
    least one pixel off the last row and column.
    """
    x = astensor(x)
    m = x.data
    if m.ndim != 3:
        raise ValueError(f"central_difference expects (H, W, D) map, got {m.shape}")
    h, w, d = m.shape
    out = np.zeros((h, w, d, 2))
    out[:, 1:-1, :, 0] = (m[:, 2:] - m[:, :-2]) * 0.5
    out[1:-1, :, :, 1] = (m[2:] - m[:-2]) * 0.5

    def backward(g):
        g = g.reshape(h, w, d, 2)
        gx = g[:, 1:-1, :, 0] * 0.5
        gy = g[1:-1, :, :, 1] * 0.5
        dm = np.zeros_like(m)
        dm[:, 2:] += gx
        dm[:, :-2] -= gx
        dm[2:] += gy
        dm[:-2] -= gy
        return [dm]

    return _make(out.reshape(h, w, 2 * d), [x], backward)


# ---------------------------------------------------------------------------
# sampling


def bilinear_forward(m: np.ndarray, coords: np.ndarray):
    """Untaped bilinear samples (N, C) of an (H, W, C) map at (N, 2) coords.

    The arithmetic of :func:`bilinear_sample`, which calls it, without its
    checks: every coord must already lie in 0 <= x <= W-1, 0 <= y <= H-1.
    Returns (samples, corner rows (4N,), corner weights (4, N, 1)); the
    rows and weights are what the map gradient scatters with.
    """
    h, w, c = m.shape
    n = coords.shape[0]
    xs, ys = coords[:, 0], coords[:, 1]
    x0 = np.minimum(xs.astype(np.int64), w - 2)
    y0 = np.minimum(ys.astype(np.int64), h - 2)
    # frac[1] holds each point's offsets (tx, ty) from its top-left corner.
    frac = np.empty((2, 2, n))
    np.subtract(xs, x0, out=frac[1, 0])
    np.subtract(ys, y0, out=frac[1, 1])
    np.subtract(1, frac[1], out=frac[0])
    # Corners in the order (y0, x0), (y0, x0+1), (y0+1, x0), (y0+1, x0+1),
    # gathered by one take on the (H*W, C) view; corner 2j+i has weight
    # frac[j, 1] * frac[i, 0].
    corners_idx = ((y0 * w + x0) + np.array([0, 1, w, w + 1])[:, None]).ravel()
    corners = m.reshape(h * w, c).take(corners_idx, axis=0).reshape(4, n, c)
    weights = (frac[:, None, 1] * frac[None, :, 0]).reshape(4, n, 1)
    # The weighted corners overwrite the gathered ones; numpy sums them in
    # corner order, which is exact at integer coordinates.
    out = np.multiply(weights, corners, out=corners).sum(axis=0)
    return out, corners_idx, weights


def bilinear_sample(feature_map, coords) -> Tensor:
    """Samples an (H, W, C) map at N continuous (x, y) pixel positions.

    Integer coordinates hit grid values exactly. Coordinates must be finite,
    satisfy 0 <= x <= W-1 and 0 <= y <= H-1, and be constants: the gradient
    flows into the map only (a scatter onto the four corners), so taped
    coordinates raise ``ValueError`` rather than get a silent zero.
    """
    feature_map, coords = astensor(feature_map), astensor(coords)
    if coords.tape is not None:
        raise ValueError("bilinear_sample: coordinates must be constants, not taped")
    m, cd = feature_map.data, coords.data
    if m.ndim != 3:
        raise ValueError(f"bilinear_sample expects (H, W, C) map, got {m.shape}")
    if cd.ndim != 2 or cd.shape[1] != 2:
        raise ValueError(f"bilinear_sample expects (N, 2) coords, got {cd.shape}")
    h, w, c = m.shape
    xs, ys = cd[:, 0], cd[:, 1]
    # NaN fails every comparison, so the test is written to pass only in range.
    if len(cd) and not (xs.min() >= 0 and xs.max() <= w - 1 and ys.min() >= 0 and ys.max() <= h - 1):
        raise ValueError("bilinear_sample: coordinates outside the map")
    out, corners_idx, weights = bilinear_forward(m, cd)

    def backward(g):
        # One bincount on (corner * C + channel) adds in index order, as
        # np.add.at would, so shared corners accumulate identically.
        flat_idx = (corners_idx[:, None] * c + np.arange(c)).ravel()
        dmap = np.bincount(flat_idx, weights=(weights * g).ravel(), minlength=h * w * c)
        return [dmap.reshape(h, w, c)]

    return _make(out, [feature_map], backward)
