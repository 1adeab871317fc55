"""Hand-written neural network layers on numpy.

Every layer exposes ``forward(x) -> (y, cache)`` and
``backward(dy, cache) -> dx``; backward accumulates parameter gradients into
``Param.grad``.  Caches are explicit so one layer instance can serve a whole
batch of variable-length sequences before any backward pass runs.

Sequences are time-major ``[T, channels]`` float64 arrays.  Convolutions use
replicate padding so edge frames are extended, not zero-filled.

Several sequences can be packed back to back along time and described by a
``Segments``; a convolution then pads every segment on its own, so one call
gives what one call per sequence would.  A single sequence is the
one-segment case.
"""

import numpy as np

from .errors import ShapeMismatch


class Param:
    """A tensor with an accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.zeros_like(self.value)

    @property
    def size(self) -> int:
        return self.value.size


class Module:
    """Base with named parameter collection; subclasses fill self._params."""

    def __init__(self):
        self._params = {}
        self._children = {}

    def add_param(self, name: str, value) -> Param:
        p = Param(value)
        self._params[name] = p
        return p

    def add_child(self, name: str, module: "Module") -> "Module":
        self._children[name] = module
        return module

    def params(self, prefix: str = "") -> dict:
        out = {}
        for name, p in self._params.items():
            out[prefix + name] = p
        for name, child in self._children.items():
            out.update(child.params(prefix + name + "."))
        return out

    def zero_grad(self):
        for p in self.params().values():
            p.grad[...] = 0.0

    def param_count(self) -> int:
        return sum(p.size for p in self.params().values())

    def load_values(self, values: dict, prefix: str = ""):
        params = self.params(prefix)
        missing = set(params) - set(values)
        extra = set(values) - set(params)
        if missing or extra:
            raise ShapeMismatch(f"parameter names disagree: missing {missing}, extra {extra}")
        for name, p in params.items():
            arr = np.asarray(values[name], dtype=float)
            if arr.shape != p.value.shape:
                raise ShapeMismatch(f"{name}: shape {arr.shape} vs {p.value.shape}")
            p.value[...] = arr

    def export_values(self, prefix: str = "") -> dict:
        return {name: p.value.copy() for name, p in self.params(prefix).items()}


def replicate_pad(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    top = np.repeat(x[:1], pad, axis=0)
    bottom = np.repeat(x[-1:], pad, axis=0)
    return np.concatenate([top, x, bottom], axis=0)


def replicate_unpad_grad(dxp: np.ndarray, pad: int, length: int) -> np.ndarray:
    if pad == 0:
        return dxp
    dx = dxp[pad:pad + length].copy()
    dx[0] += dxp[:pad].sum(axis=0)
    dx[-1] += dxp[pad + length:].sum(axis=0)
    return dx


class Segments:
    """Lengths of sequences packed back to back along time.

    Convolutions run over the whole packed buffer, padded only at its two
    ends, and then recompute the few output rows whose window crossed into a
    neighbouring segment.  Those rows depend only on the lengths, the kernel
    and the stride, so they are found once and shared by every convolution
    at this resolution.
    """

    __slots__ = ("lengths", "_fixes")

    def __init__(self, lengths):
        self.lengths = tuple(int(n) for n in lengths)
        self._fixes = {}

    @staticmethod
    def of(x: np.ndarray, seg: "Segments | None") -> "Segments":
        """``seg``, or one segment spanning all of ``x``."""
        return Segments((x.shape[0],)) if seg is None else seg

    @property
    def total(self) -> int:
        return sum(self.lengths)

    def fixes(self, kernel: int, stride: int):
        """``_boundary_fixes`` for this layout, or None for one segment."""
        key = (kernel, stride)
        if key not in self._fixes:
            packed = len(self.lengths) > 1
            self._fixes[key] = _boundary_fixes(self.lengths, kernel, stride) if packed else None
        return self._fixes[key]


def _boundary_fixes(lengths, kernel: int, stride: int):
    """Output rows whose window, padded as one buffer, leaves its segment.

    Returns ``(rows, right, taps)``: ``right[i, n]`` is the input row that tap
    ``i`` of output ``rows[n]`` reads under its own segment's replicate
    padding, and ``taps`` lists ``(i, sel, wrong)`` for each tap that read
    ``wrong`` in place of ``right[i, sel]``.  Only the first and last
    ``ceil(pad / stride)`` outputs of a segment can reach past it.
    """
    n = np.asarray(lengths)
    if np.any(n[:-1] % stride):
        raise ShapeMismatch(f"packed segments {lengths} are not aligned to stride {stride}")
    pad = (kernel - 1) // 2
    t_out = (n + 2 * pad - kernel) // stride + 1
    edge = -(-pad // stride)
    e = np.arange(edge)[:, None]
    # first and last `edge` outputs of each segment; a short segment's last
    # outputs that are also among its first are taken once
    local = np.concatenate([e + 0 * t_out, t_out - 1 - e])
    seg = np.nonzero(np.concatenate([e < t_out, t_out - 1 - e >= edge]))
    local, seg = local[seg], seg[1]
    rows = (np.cumsum(t_out) - t_out)[seg] + local
    start, last = (np.cumsum(n) - n)[seg], n[seg] - 1
    offset = stride * local + np.arange(kernel)[:, None] - pad  # [kernel, rows]
    right = start + np.minimum(np.maximum(offset, 0), last)
    wrong = np.minimum(np.maximum(start + offset, 0), n.sum() - 1)
    bad = right != wrong
    keep = bad.any(axis=0)
    rows, right, wrong, bad = rows[keep], right[:, keep], wrong[:, keep], bad[:, keep]
    taps = [(i, bad[i], wrong[i, bad[i]]) for i in range(kernel) if bad[i].any()]
    return rows, right, taps


class Conv1d(Module):
    """Temporal convolution with replicate padding.

    With kernel 3 and pad 1 the output has ceil(T / stride) frames, so a
    stride-2 level exactly halves even-length sequences.  Packed input
    (``seg`` with several segments) needs every segment but the last to be a
    multiple of the stride, so output segments stay back to back.
    """

    def __init__(self, rng, c_in: int, c_out: int, kernel: int = 3, stride: int = 1,
                 gain: float = 1.0):
        super().__init__()
        if kernel % 2 != 1:
            raise ShapeMismatch("kernel must be odd for symmetric padding")
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride = kernel, stride
        self.pad = (kernel - 1) // 2
        scale = gain / np.sqrt(c_in * kernel)
        self.W = self.add_param("W", rng.normal(size=(kernel, c_in, c_out)) * scale)
        self.b = self.add_param("b", np.zeros(c_out))

    def out_length(self, length: int) -> int:
        return (length + 2 * self.pad - self.kernel) // self.stride + 1

    def out_segments(self, seg: Segments) -> Segments:
        return Segments(self.out_length(n) for n in seg.lengths)

    def forward(self, x: np.ndarray, seg: Segments | None = None):
        if x.ndim != 2 or x.shape[1] != self.c_in:
            raise ShapeMismatch(f"conv input {x.shape}, want [T, {self.c_in}]")
        seg = Segments.of(x, seg)
        if seg.total != x.shape[0]:
            raise ShapeMismatch(f"segments cover {seg.total} frames, input has {x.shape[0]}")
        length = x.shape[0]
        xp = replicate_pad(x, self.pad)
        t_out = self.out_length(length)
        fixes = seg.fixes(self.kernel, self.stride)
        y = np.tile(self.b.value, (t_out, 1))
        for i in range(self.kernel):
            y += xp[i:i + self.stride * t_out:self.stride] @ self.W.value[i]
        if fixes is not None:
            # recompute these rows from their own segment's frames
            rows, right, _ = fixes
            y_rows = np.tile(self.b.value, (rows.size, 1))
            for i in range(self.kernel):
                y_rows += x[right[i]] @ self.W.value[i]
            y[rows] = y_rows
        return y, (xp, length, t_out, fixes)

    def backward(self, dy: np.ndarray, cache):
        xp, length, t_out, fixes = cache
        self.b.grad += dy.sum(axis=0)
        dxp = np.zeros_like(xp)
        for i in range(self.kernel):
            sl = slice(i, i + self.stride * t_out, self.stride)
            self.W.grad[i] += xp[sl].T @ dy
            dxp[sl] += dy @ self.W.value[i].T
        dx = replicate_unpad_grad(dxp, self.pad, length)
        if fixes is not None:
            # move what the padded buffer credited to the wrong input rows
            x = xp[self.pad:self.pad + length]
            rows, right, taps = fixes
            for i, sel, wrong in taps:
                d_rows = dy[rows[sel]]
                self.W.grad[i] += (x[right[i, sel]] - x[wrong]).T @ d_rows
                d_in = d_rows @ self.W.value[i].T
                np.add.at(dx, right[i, sel], d_in)
                np.subtract.at(dx, wrong, d_in)
        return dx


class Linear(Module):
    """Per-frame affine map; works on [T, c_in] or a bare [c_in] vector."""

    def __init__(self, rng, c_in: int, c_out: int, gain: float = 1.0):
        super().__init__()
        self.c_in, self.c_out = c_in, c_out
        self.W = self.add_param("W", rng.normal(size=(c_in, c_out)) * gain / np.sqrt(c_in))
        self.b = self.add_param("b", np.zeros(c_out))

    def forward(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x2 = x[None, :] if single else x
        if x2.shape[1] != self.c_in:
            raise ShapeMismatch(f"linear input {x.shape}, want [.., {self.c_in}]")
        y = x2 @ self.W.value + self.b.value
        return (y[0] if single else y), (x2, single)

    def backward(self, dy: np.ndarray, cache):
        x2, single = cache
        dy2 = dy[None, :] if single else dy
        self.W.grad += x2.T @ dy2
        self.b.grad += dy2.sum(axis=0)
        dx = dy2 @ self.W.value.T
        return dx[0] if single else dx


class ReLU(Module):
    def forward(self, x: np.ndarray):
        mask = x > 0
        return x * mask, mask

    def backward(self, dy: np.ndarray, cache):
        return dy * cache


class Upsample2(Module):
    """Nearest-neighbour doubling along time.

    Doubling a packed buffer doubles each segment in place, so packed input
    needs no segment bookkeeping here.
    """

    def out_segments(self, seg: Segments) -> Segments:
        return Segments(2 * n for n in seg.lengths)

    def forward(self, x: np.ndarray):
        return np.repeat(x, 2, axis=0), x.shape[0]

    def backward(self, dy: np.ndarray, cache):
        length = cache
        return dy[0::2][:length] + dy[1::2][:length]


class ResBlock(Module):
    """x + conv_b(relu(conv_a(x))); stride 1, width preserved."""

    def __init__(self, rng, width: int, kernel: int = 3):
        super().__init__()
        self.conv_a = self.add_child("a", Conv1d(rng, width, width, kernel, gain=np.sqrt(2.0)))
        self.relu = ReLU()
        self.conv_b = self.add_child("b", Conv1d(rng, width, width, kernel))

    def forward(self, x: np.ndarray, seg: Segments | None = None):
        h, ca = self.conv_a.forward(x, seg)
        a, cr = self.relu.forward(h)
        r, cb = self.conv_b.forward(a, seg)
        return x + r, (ca, cr, cb)

    def backward(self, dy: np.ndarray, cache):
        ca, cr, cb = cache
        da = self.conv_b.backward(dy, cb)
        dh = self.relu.backward(da, cr)
        dx_inner = self.conv_a.backward(dh, ca)
        return dy + dx_inner


class Adam:
    """Adam with decoupled L2 and linear warmup on the learning rate."""

    def __init__(self, params: dict, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0, warmup: int = 0):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.warmup = warmup
        self.t = 0
        self.m = {k: np.zeros_like(p.value) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in self.params.items()}

    def current_lr(self) -> float:
        if self.warmup > 0 and self.t < self.warmup:
            return self.lr * (self.t + 1) / self.warmup
        return self.lr

    def step(self):
        lr_t = self.current_lr()
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            update = (self.m[k] / bias1) / (np.sqrt(self.v[k] / bias2) + self.eps)
            if self.weight_decay > 0.0:
                update = update + self.weight_decay * p.value
            p.value -= lr_t * update

    def zero_grad(self):
        for p in self.params.values():
            p.grad[...] = 0.0


def finite_difference_grads(loss_fn, params: dict, h: float = 1e-5) -> dict:
    """Central-difference gradient of ``loss_fn()`` w.r.t. every param entry.

    Mutates parameter values in place during probing and restores them; meant
    for small test models only.
    """
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p.value)
        flat = p.value.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def relative_grad_error(analytic: dict, numeric: dict) -> float:
    """Worst relative error across parameter blocks, with an absolute floor."""
    worst = 0.0
    for name in analytic:
        a = analytic[name].reshape(-1)
        n = numeric[name].reshape(-1)
        denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(n)), 1e-8)
        err = float(np.linalg.norm(a - n)) / denom
        worst = max(worst, err)
    return worst
