"""Hand-written neural network layers on numpy.

Every layer is a ``Module`` with three methods:

- ``forward(x, seg) -> (y, cache)``, where ``seg`` is the ``Segments`` that
  ``x`` is packed in, or None for one sequence;
- ``backward(dy, cache) -> dx``, which also accumulates parameter gradients
  into ``Param.grad``;
- ``out_segments(seg)``, the segments of the output: ``seg`` itself unless
  the layer changes the sequence lengths.

``chain_forward`` and ``chain_backward`` run a list of layers, and every
stack of layers in the package is such a chain.  Caches are explicit so one
layer instance can serve a whole batch of variable-length sequences before
any backward pass runs.

Sequences are time-major ``[T, channels]`` float64 arrays.  Convolutions
have kernel 3 and stride 1 or 2, and use replicate padding so edge frames
are extended, not zero-filled.

Several sequences can be packed back to back along time and described by a
``Segments``.  A convolution then runs over a gapped copy of the buffer in
which every segment carries its own replicate padding, so one call gives
what one call per sequence would.  The layout is built from the segment
edges: each row is copied once, plus once for each edge it lies on.  A
single sequence is the one-segment case and is padded at its two ends
only, with no index arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBatch, DivergenceDetected, RangeError, ShapeMismatch, check_sizes


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

    def load_values(self, values: dict):
        params = self.params()
        missing = set(params) - set(values)
        extra = set(values) - set(params)
        if missing or extra:
            raise ShapeMismatch(f"parameter names disagree: missing {missing}, extra {extra}")
        for name, p in params.items():
            arr = np.asarray(values[name], dtype=float)
            if arr.shape != p.value.shape:
                raise ShapeMismatch(f"{name}: shape {arr.shape} vs {p.value.shape}")
            p.value[...] = arr

    def export_values(self) -> dict:
        return {name: p.value.copy() for name, p in self.params().items()}

    def out_segments(self, seg):
        return seg


def chain_forward(layers, x: np.ndarray, seg=None):
    """Run ``layers`` in order, each on its predecessor's output and the
    segments that output is packed in; returns the output and the caches."""
    caches = []
    for layer in layers:
        x, cache = layer.forward(x, seg)
        seg = layer.out_segments(seg)
        caches.append(cache)
    return x, caches


def chain_backward(layers, dy: np.ndarray, caches) -> np.ndarray:
    """dL/dx of ``chain_forward``: the layers' backward passes in reverse."""
    for layer, cache in zip(reversed(layers), reversed(caches)):
        dy = layer.backward(dy, cache)
    return dy


def replicate_pad(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x[:1], x, x[-1:]], axis=0)


def replicate_unpad_grad(dxp: np.ndarray) -> np.ndarray:
    dx = dxp[1:-1].copy()
    dx[0] += dxp[0]
    dx[-1] += dxp[-1]
    return dx


class Segments:
    """Lengths of sequences packed back to back along time.

    A kernel-3 convolution of stride 1 or 2 over packed segments runs on a
    gapped copy of the buffer, in which every segment carries one replicate
    row on each side, so every output row is computed from its own segment
    alone.  Each ``Segments`` builds the layout for a stride once, from the
    segment edges, and keeps it.  A single sequence needs no layout: it is
    padded at its two ends, with no index arrays.
    """

    __slots__ = ("lengths", "_cache")

    def __init__(self, lengths):
        self.lengths = tuple(int(n) for n in lengths)
        self._cache = {}

    @staticmethod
    def of(x: np.ndarray, seg: "Segments | None") -> "Segments":
        """``seg``, or one segment spanning all of ``x``."""
        return Segments((x.shape[0],)) if seg is None else seg

    @property
    def total(self) -> int:
        return sum(self.lengths)

    def gapped(self, stride: int):
        """``(take, keep, first, folds)`` of the gapped layout for a kernel-3
        convolution of stride 1 or 2, or None for one segment.

        ``x[take]`` is the gapped buffer: input row ``r`` appears ``copies[r]``
        times from gapped row ``first[r]`` on, once more for each segment edge
        it lies on.  ``keep`` lists the outputs of a convolution over the
        gapped buffer whose window stays inside one segment.  ``folds`` gives
        the rows with a second, then a third copy, and those copies' rows.
        """
        if len(self.lengths) > 1 and stride not in self._cache:
            n = np.asarray(self.lengths)
            if np.any(n[:-1] % stride):
                raise ShapeMismatch(f"segments {self.lengths} not aligned to stride {stride}")
            ends = np.cumsum(n)
            copies = np.ones(ends[-1], dtype=np.intp)
            copies[ends - n] += 1
            copies[ends - 1] += 1
            take = np.repeat(np.arange(ends[-1]), copies)
            # each earlier segment adds two gapped rows; 2 // stride outputs straddle them
            t_out = (n - 1) // stride + 1
            keep = np.arange(t_out.sum()) + np.repeat(np.arange(n.size) * (2 // stride), t_out)
            first = np.cumsum(copies) - copies
            more = [np.flatnonzero(copies > j) for j in (1, 2)]
            folds = [(m, first[m] + j) for j, m in enumerate(more, 1)]
            self._cache[stride] = take, keep, first, folds
        return self._cache.get(stride)


class Conv1d(Module):
    """Kernel-3 temporal convolution of stride 1 or 2 with replicate padding.

    The output has ceil(T / stride) frames, so a stride-2 level exactly
    halves even-length sequences.  Packed input (``seg`` with several
    segments) runs over its gapped layout, which keeps only the outputs whose
    window stays in one segment; every segment but the last must be a
    multiple of the stride.
    """

    KERNEL = 3

    def __init__(self, rng, c_in: int, c_out: int, stride: int = 1, gain: float = 1.0):
        super().__init__()
        if stride not in (1, 2):
            raise RangeError(f"stride {stride} must be 1 or 2")
        self.c_in, self.c_out, self.stride = c_in, c_out, stride
        scale = gain / np.sqrt(c_in * self.KERNEL)
        self.W = self.add_param("W", rng.normal(size=(self.KERNEL, c_in, c_out)) * scale)
        self.b = self.add_param("b", np.zeros(c_out))

    def out_segments(self, seg: Segments) -> Segments:
        if self.stride == 1:
            return seg
        return Segments((n + 1) // 2 for n in seg.lengths)

    def forward(self, x: np.ndarray, seg: Segments | None = None):
        if x.ndim != 2 or x.shape[1] != self.c_in:
            raise ShapeMismatch(f"conv input {x.shape}, want [T, {self.c_in}]")
        seg = Segments.of(x, seg)
        if seg.total != x.shape[0]:
            raise ShapeMismatch(f"segments cover {seg.total} frames, input has {x.shape[0]}")
        layout = seg.gapped(self.stride)
        xp = replicate_pad(x) if layout is None else x[layout[0]]
        t_out = (xp.shape[0] - self.KERNEL) // self.stride + 1
        y = xp[:self.stride * t_out:self.stride] @ self.W.value[0]
        y += self.b.value  # p0 + b == b + p0, so the sum keeps its bits
        for i in range(1, self.KERNEL):
            y += xp[i:i + self.stride * t_out:self.stride] @ self.W.value[i]
        return (y if layout is None else y[layout[1]]), (xp, t_out, layout)

    def backward(self, dy: np.ndarray, cache):
        """Accumulate the W and b gradients and return dL/dx.  On packed input
        each input row's gradient sums those of its copies, in gapped order."""
        xp, t_out, layout = cache
        self.b.grad += dy.sum(axis=0)
        if layout is not None:
            # the gap outputs were dropped, so they pass back no gradient
            dy_all = np.zeros((t_out, self.c_out))
            dy_all[layout[1]] = dy
            dy = dy_all
        dxp = np.zeros_like(xp)
        # contiguous, as in Linear.backward, against OpenBLAS's early thread split
        w_t = np.ascontiguousarray(self.W.value.transpose(0, 2, 1))
        for i in range(self.KERNEL):
            sl = slice(i, i + self.stride * t_out, self.stride)
            self.W.grad[i] += xp[sl].T @ dy
            dxp[sl] += dy @ w_t[i]
        if layout is None:
            return replicate_unpad_grad(dxp)
        _, _, first, folds = layout
        dx = dxp[first]
        for rows, sources in folds:
            dx[rows] += dxp[sources]
        return dx


class Linear(Module):
    """Per-frame affine map on [T, c_in] rows.  ``forward`` also maps a stack
    [S, T, c_in] of row blocks, each by a product of its own, so a block gets
    the bits it would get alone; ``backward`` takes [T, c_in] rows."""

    def __init__(self, rng, c_in: int, c_out: int, gain: float = 1.0):
        super().__init__()
        self.c_in, self.c_out = c_in, c_out
        self.W = self.add_param("W", rng.normal(size=(c_in, c_out)) * gain / np.sqrt(c_in))
        self.b = self.add_param("b", np.zeros(c_out))

    def forward(self, x: np.ndarray, seg=None):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (2, 3) or x.shape[-1] != self.c_in:
            raise ShapeMismatch(f"linear input {x.shape}, want [(S,) T, {self.c_in}]")
        return x @ self.W.value + self.b.value, x

    def backward(self, dy: np.ndarray, x):
        self.W.grad += x.T @ dy
        self.b.grad += dy.sum(axis=0)
        # OpenBLAS splits a product with a transposed operand across threads at
        # half the size it splits a plain one; at these sizes the split only adds waits
        return dy @ np.ascontiguousarray(self.W.value.T)


class ReLU(Module):
    def forward(self, x: np.ndarray, seg=None):
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

    def forward(self, x: np.ndarray, seg=None):
        return np.repeat(x, 2, axis=0), x.shape[0]

    def backward(self, dy: np.ndarray, cache):
        length = cache
        return dy[0::2][:length] + dy[1::2][:length]


class Residual(Module):
    """x + the chain of ``layers`` over x; the chain keeps x's shape and
    segments.  ``layers`` maps child names to layers, in chain order."""

    def __init__(self, layers: dict):
        super().__init__()
        self.layers = [self.add_child(name, layer) for name, layer in layers.items()]

    def forward(self, x: np.ndarray, seg: Segments | None = None):
        r, caches = chain_forward(self.layers, x, seg)
        return x + r, caches

    def backward(self, dy: np.ndarray, caches):
        return dy + chain_backward(self.layers, dy, caches)


class ResBlock(Residual):
    """x + b(relu(a(x))), with a and b kernel-3 stride-1 convolutions."""

    def __init__(self, rng, width: int):
        super().__init__({"a": Conv1d(rng, width, width, gain=np.sqrt(2.0)), "relu": ReLU(),
                          "b": Conv1d(rng, width, width)})


class Adam:
    """Adam with decoupled L2 and linear warmup on the learning rate.

    Adam owns its parameters' storage: each ``Param``'s value and gradient
    become views of two flat buffers, so write them in place from then on."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, lr: float, weight_decay: float = 0.0, warmup: int = 0):
        self.lr = lr
        self.weight_decay = weight_decay
        self.warmup = warmup
        self.t = 0
        ps = params.values()
        self.value = np.concatenate([p.value.ravel() for p in ps])
        self.grad = np.concatenate([p.grad.ravel() for p in ps])
        for p, end in zip(ps, np.cumsum([p.size for p in ps])):
            span, shape = slice(end - p.size, end), p.value.shape
            p.value, p.grad = self.value[span].reshape(shape), self.grad[span].reshape(shape)
        self.m, self.v = np.zeros_like(self.value), np.zeros_like(self.value)

    def current_lr(self) -> float:
        if self.warmup > 0 and self.t < self.warmup:
            return self.lr * (self.t + 1) / self.warmup
        return self.lr

    def step(self):
        lr_t = self.current_lr()
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bias1, bias2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        g, m, v = self.grad, self.m, self.v
        s1, s2 = np.empty_like(g), np.empty_like(g)
        # the per-parameter formula, one in-place op at a time in its own order:
        # value -= lr_t ((m / bias1) / (sqrt(v / bias2) + eps) + decay value)
        m *= b1
        m += np.multiply(g, 1 - b1, out=s1)
        v *= b2
        v += np.multiply(np.multiply(g, 1 - b2, out=s1), g, out=s1)
        np.divide(m, bias1, out=s1)
        s1 /= np.add(np.sqrt(np.divide(v, bias2, out=s2), out=s2), self.EPS, out=s2)
        if self.weight_decay > 0.0:
            s1 += np.multiply(self.value, self.weight_decay, out=s2)
        self.value -= np.multiply(s1, lr_t, out=s1)

    def zero_grad(self):
        self.grad.fill(0.0)


@dataclass(frozen=True)
class TrainConfig:
    """One Adam run: learning rate, decoupled decay, warmup steps, batch size
    and step count.  The bottleneck and the flow each train with one."""

    lr: float = 5e-5
    weight_decay: float = 5e-4
    warmup: int = 200
    batch_size: int = 32
    steps: int = 1000

    def __post_init__(self):
        if not self.lr > 0:
            raise RangeError(f"lr = {self.lr} must be > 0")
        check_sizes(self, "weight_decay", "warmup", limit=math.inf, low=0)
        check_sizes(self, "batch_size", "steps", limit=math.inf)


def fit(params: dict, cfg: TrainConfig, n_items: int, step, history_hook=None) -> list:
    """Train ``params`` with Adam for ``cfg.steps`` steps over ``n_items`` items.

    ``step(k)`` draws batch k, accumulates its gradients into the parameters
    and returns its loss components, ``total`` among them.  Returns one
    ``{"step": k, **components}`` record per step; ``history_hook`` (if
    given) is called with each record as it is produced.  A non-finite total,
    or a ``DivergenceDetected`` that the step raises, ends the run with one
    ``DivergenceDetected`` that names step k.
    """
    if n_items < cfg.batch_size:
        raise DegenerateBatch(f"{n_items} samples cannot fill batches of {cfg.batch_size}")
    opt = Adam(params, cfg.lr, cfg.weight_decay, cfg.warmup)
    history = []
    for k in range(cfg.steps):
        opt.zero_grad()
        try:
            comps = step(k)
            if not np.isfinite(comps["total"]):
                raise DivergenceDetected("loss diverged")
        except DivergenceDetected as exc:  # one report, naming the step
            raise DivergenceDetected(f"{exc} at step {k}") from exc
        opt.step()
        record = {"step": k, **comps}
        history.append(record)
        if history_hook is not None:
            history_hook(record)
    return history


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
