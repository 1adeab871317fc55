"""Flow matching over compact programs.

The generator learns a velocity field on the straight-line path
m(r) = (1 - r) noise + r program.  The field is a per-frame residual MLP; a
shared conditioning vector (sinusoidal embedding of r, the mean-pooled
program state, and the pooled text context) is added to every frame, which
lets one parameter set handle programs of any length.  Sampling integrates
the field with a fixed-step Euler scheme, optionally with classifier-free
guidance against a learned null context.
"""

from dataclasses import dataclass

import numpy as np

from .bottleneck import embed_text, encode_packed, sample_posterior
from .errors import (
    CountMismatch,
    DegenerateBatch,
    DivergenceDetected,
    RangeError,
    ShapeMismatch,
)
from .nn import Adam, Linear, Module, ReLU


@dataclass(frozen=True)
class FlowConfig:
    d_m: int
    d_e: int
    width: int = 64
    blocks: int = 2
    r_dim: int = 16
    cond_dropout: float = 0.2

    def __post_init__(self):
        if min(self.d_m, self.d_e, self.width, self.blocks) < 1:
            raise RangeError("flow dimensions must be >= 1")
        if self.r_dim < 2 or self.r_dim % 2 != 0:
            raise RangeError("r_dim must be an even integer >= 2")
        if not (0.0 <= self.cond_dropout < 1.0):
            raise RangeError("cond_dropout must lie in [0, 1)")


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 16
    guidance: float = 1.5

    def __post_init__(self):
        if int(self.steps) < 1:
            raise RangeError("sampler needs at least one step")


def time_embedding(r: float, dim: int) -> np.ndarray:
    """Sinusoidal features of the path position r at geometric frequencies."""
    half = dim // 2
    freqs = np.pi * (2.0 ** np.arange(half))
    return np.concatenate([np.sin(freqs * r), np.cos(freqs * r)])


class FlowModel(Module):
    """Velocity field v(m, r, y) for programs of arbitrary length."""

    def __init__(self, cfg: FlowConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        w = cfg.width
        self.in_proj = self.add_child("in", Linear(rng, cfg.d_m, w, gain=np.sqrt(2.0)))
        self.pool_proj = self.add_child("pool", Linear(rng, cfg.d_m, w))
        self.r_proj = self.add_child("r", Linear(rng, cfg.r_dim, w))
        self.y_proj = self.add_child("y", Linear(rng, cfg.d_e, w))
        self.blocks = []
        for i in range(cfg.blocks):
            b1 = self.add_child(f"b{i}.fc1", Linear(rng, w, w, gain=np.sqrt(2.0)))
            b2 = self.add_child(f"b{i}.fc2", Linear(rng, w, w))
            self.blocks.append((b1, ReLU(), b2))
        self.out_proj = self.add_child("out", Linear(rng, w, cfg.d_m))
        self.null_ctx = self.add_param("null_ctx", 0.1 * rng.normal(size=cfg.d_e))

    def field(self, m: np.ndarray, r: float, y_vec=None):
        v, _ = self._field_forward(m, r, y_vec)
        return v

    def _field_forward(self, m: np.ndarray, r: float, y_vec):
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[1] != self.cfg.d_m:
            raise ShapeMismatch(f"program shape {m.shape}, want [T, {self.cfg.d_m}]")
        if not (0.0 <= r <= 1.0):
            raise RangeError(f"path position r = {r} outside [0, 1]")
        used_null = y_vec is None
        ctx = self.null_ctx.value if used_null else np.asarray(y_vec, dtype=float)
        if ctx.shape != (self.cfg.d_e,):
            raise ShapeMismatch(f"context shape {ctx.shape}, want ({self.cfg.d_e},)")

        remb = time_embedding(r, self.cfg.r_dim)
        h0, c_in = self.in_proj.forward(m)
        pooled = m.mean(axis=0)
        hp, c_pool = self.pool_proj.forward(pooled)
        hr, c_r = self.r_proj.forward(remb)
        hy, c_y = self.y_proj.forward(ctx)
        x = h0 + (hp + hr + hy)[None, :]
        block_caches = []
        for b1, relu, b2 in self.blocks:
            a, c1 = b1.forward(x)
            a, cr = relu.forward(a)
            a, c2 = b2.forward(a)
            x = x + a
            block_caches.append((c1, cr, c2))
        v, c_out = self.out_proj.forward(x)
        cache = (m.shape[0], used_null, c_in, c_pool, c_r, c_y, block_caches, c_out)
        return v, cache

    def _field_backward(self, dv: np.ndarray, cache):
        t_len, used_null, c_in, c_pool, c_r, c_y, block_caches, c_out = cache
        dx = self.out_proj.backward(dv, c_out)
        for (b1, relu, b2), (c1, cr, c2) in zip(reversed(self.blocks),
                                                reversed(block_caches)):
            da = b2.backward(dx, c2)
            da = relu.backward(da, cr)
            dx = dx + b1.backward(da, c1)
        dcond = dx.sum(axis=0)
        dm = self.in_proj.backward(dx, c_in)
        dpool = self.pool_proj.backward(dcond, c_pool)
        dm = dm + dpool[None, :] / t_len
        self.r_proj.backward(dcond, c_r)
        dctx = self.y_proj.backward(dcond, c_y)
        if used_null:
            self.null_ctx.grad += dctx
        return dm


def interpolate(noise: np.ndarray, program: np.ndarray, r: float) -> np.ndarray:
    """Straight-line path point (1 - r) noise + r program."""
    noise = np.asarray(noise, dtype=float)
    program = np.asarray(program, dtype=float)
    if noise.shape != program.shape:
        raise ShapeMismatch(f"endpoint shapes {noise.shape} vs {program.shape}")
    if not (0.0 <= r <= 1.0):
        raise RangeError(f"path position r = {r} outside [0, 1]")
    return (1.0 - r) * noise + r * program


def fm_loss(model: FlowModel, program: np.ndarray, noise: np.ndarray, r: float,
            y_vec=None) -> float:
    """Squared error between the field and the path velocity (program - noise)."""
    point = interpolate(noise, program, r)
    v = model.field(point, r, y_vec)
    resid = v - (np.asarray(program, dtype=float) - np.asarray(noise, dtype=float))
    return float((resid * resid).mean())


def fm_grad(model: FlowModel, program: np.ndarray, noise: np.ndarray, r: float,
            y_vec=None, scale: float = 1.0) -> float:
    """fm_loss plus hand-derived parameter gradients (times ``scale``)."""
    point = interpolate(noise, program, r)
    v, cache = model._field_forward(point, r, y_vec)
    target = np.asarray(program, dtype=float) - np.asarray(noise, dtype=float)
    resid = v - target
    loss = float((resid * resid).mean())
    dv = scale * 2.0 * resid / resid.size
    model._field_backward(dv, cache)
    return loss


def euler_sample(model: FlowModel, noise: np.ndarray, cfg: SamplerConfig,
                 y_vec=None) -> np.ndarray:
    """Integrate the field from r = 0 to 1 with fixed Euler steps.

    With guidance g != 1 the velocity is v_null + g (v_cond - v_null), which
    reduces to the unconditional field at g = 0 and the conditional one at
    g = 1 (where the null branch is skipped).
    """
    m = np.array(noise, dtype=float)
    if m.ndim != 2 or m.shape[1] != model.cfg.d_m:
        raise ShapeMismatch(f"noise shape {m.shape}, want [T, {model.cfg.d_m}]")
    dt = 1.0 / cfg.steps
    for k in range(cfg.steps):
        r = k / cfg.steps
        if y_vec is None or cfg.guidance == 1.0:
            v = model.field(m, r, y_vec)
        else:
            v_null = model.field(m, r, None)
            v_cond = model.field(m, r, y_vec)
            v = v_null + cfg.guidance * (v_cond - v_null)
        m = m + dt * v
    if not np.all(np.isfinite(m)):
        raise DivergenceDetected("Euler integration produced non-finite values")
    return m


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowTrainConfig:
    lr: float = 3e-5
    weight_decay: float = 5e-4
    warmup: int = 200
    batch_size: int = 32
    steps: int = 2000

    def __post_init__(self):
        if self.lr <= 0 or self.steps < 1 or self.batch_size < 1:
            raise RangeError("invalid flow training configuration")


def prepare_flow_targets(bottleneck, samples, rng):
    """Fresh posterior draws for every sample; called once per epoch.

    One noise draw covers every sample's frames back to back, which is the
    same stream as one draw per sample in order.
    """
    post, starts = encode_packed(bottleneck, [s.latents for s in samples])
    draws = sample_posterior(post, rng.standard_normal(post.mu.shape))
    return np.split(draws, starts[1:])


def prepare_text_contexts(bottleneck, vocab, samples):
    """Frozen pooled text embedding per sample."""
    return [
        embed_text(bottleneck, vocab.embeddings[list(s.token_ids)])
        for s in samples
    ]


def train_flow(model: FlowModel, bottleneck, vocab, samples,
               train_cfg: FlowTrainConfig, seed: int, history_hook=None):
    """Train the field against a frozen bottleneck; deterministic per seed."""
    if len(samples) < 1:
        raise DegenerateBatch("flow training needs at least one sample")
    if len(samples) < train_cfg.batch_size:
        raise DegenerateBatch(
            f"{len(samples)} samples cannot fill batches of {train_cfg.batch_size}"
        )
    contexts = prepare_text_contexts(bottleneck, vocab, samples)
    rng = np.random.default_rng(seed)
    opt = Adam(model.params(), lr=train_cfg.lr, weight_decay=train_cfg.weight_decay,
               warmup=train_cfg.warmup)
    n = len(samples)
    steps_per_epoch = max(1, n // train_cfg.batch_size)
    targets = None
    history = []
    for step_idx in range(train_cfg.steps):
        if step_idx % steps_per_epoch == 0:
            targets = prepare_flow_targets(bottleneck, samples, rng)
        idx = rng.choice(n, size=train_cfg.batch_size, replace=False)
        opt.zero_grad()
        loss_sum = 0.0
        for i in idx:
            r = float(rng.uniform())
            eps = rng.standard_normal(targets[i].shape)
            drop = rng.uniform() < model.cfg.cond_dropout
            y_vec = None if drop else contexts[i]
            loss_sum += fm_grad(model, targets[i], eps, r, y_vec,
                                scale=1.0 / len(idx))
        total = loss_sum / len(idx)
        if not np.isfinite(total):
            raise DivergenceDetected(f"flow loss diverged at step {step_idx}")
        opt.step()
        record = {"step": step_idx, "total": float(total)}
        history.append(record)
        if history_hook is not None:
            history_hook(record)
    return history


def generate_program(model: FlowModel, bottleneck, vocab, token_ids, t_m: int,
                     sampler: SamplerConfig, rng) -> np.ndarray:
    """Sample one program for a prompt: pooled text context, Euler integration."""
    if t_m < 1:
        raise RangeError(f"program length {t_m} must be >= 1")
    ids = list(token_ids)
    if len(ids) == 0:
        raise CountMismatch("prompt has no tokens")
    y_vec = embed_text(bottleneck, vocab.embeddings[ids])
    noise = rng.standard_normal((t_m, model.cfg.d_m))
    return euler_sample(model, noise, sampler, y_vec)
