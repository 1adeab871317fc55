"""Flow matching over compact programs.

The generator learns a velocity field on the straight-line path
m(r) = (1 - r) noise + r program.  The field is a per-frame residual MLP; a
shared conditioning vector (sinusoidal embedding of r, the mean-pooled
program state, and the pooled text context) is added to every frame, which
lets one parameter set handle programs of any length.  Sampling integrates
the field with a fixed-step Euler scheme, optionally with classifier-free
guidance against a learned null context.  Training draws each batch fresh,
in a few calls, from the frozen bottleneck's posteriors, encoded once per run.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .bottleneck import Posterior, embed_text, encode_packed, sample_posterior
from .errors import (
    MAX_COUNT,
    MAX_SCALE,
    CountMismatch,
    DivergenceDetected,
    RangeError,
    ShapeMismatch,
    check_sizes,
)
from .nn import Linear, Module, ReLU, Residual, TrainConfig, chain_backward, chain_forward, fit


@dataclass(frozen=True)
class FlowConfig:
    d_m: int
    d_e: int
    width: int = 64
    blocks: int = 2
    r_dim: int = 16
    cond_dropout: float = 0.2

    def __post_init__(self):
        check_sizes(self, "d_m", "d_e", "width", "blocks", "r_dim")
        if self.r_dim < 2 or self.r_dim % 2 != 0:
            raise RangeError("r_dim must be an even integer >= 2")
        if not (0.0 <= self.cond_dropout < 1.0):
            raise RangeError("cond_dropout must lie in [0, 1)")


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 16
    guidance: float = 1.5

    def __post_init__(self):
        check_sizes(self, "steps", limit=MAX_COUNT)
        check_sizes(self, "guidance", limit=MAX_SCALE, low=-MAX_SCALE)


def time_embedding(r, dim: int) -> np.ndarray:
    """Sinusoidal features of the path position r at geometric frequencies;
    an array of positions gives one row each."""
    angles = np.multiply.outer(r, np.pi * (2.0 ** np.arange(dim // 2)))
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


# The programs' lengths and start rows, which of them take the null context,
# their projected contexts ``hy`` and the cache of that projection
Conditioning = namedtuple("Conditioning", "lengths starts null hy c_y")


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
        self.trunk = [self.add_child(f"b{i}", Residual({
            "fc1": Linear(rng, w, w, gain=np.sqrt(2.0)), "relu": ReLU(), "fc2": Linear(rng, w, w),
        })) for i in range(cfg.blocks)]
        self.trunk.append(self.add_child("out", Linear(rng, w, cfg.d_m)))
        self.null_ctx = self.add_param("null_ctx", 0.1 * rng.normal(size=cfg.d_e))

    def condition(self, lengths, y_vec=None) -> Conditioning:
        """Check and project the contexts of programs of ``lengths`` rows:
        ``y_vec`` (None for the null context) is shared, or one per program."""
        lengths = np.array(lengths, dtype=int)
        if lengths.ndim != 1 or lengths.size < 1 or lengths.min() < 1:
            raise ShapeMismatch(f"lengths {lengths.tolist()} are not program lengths")
        ctxs = y_vec if isinstance(y_vec, list) else [y_vec] * lengths.size
        if len(ctxs) != lengths.size:
            raise CountMismatch(f"{lengths.size} programs, {len(ctxs)} contexts")
        bad = [np.shape(c) for c in ctxs if c is not None and np.shape(c) != (self.cfg.d_e,)]
        if bad:
            raise ShapeMismatch(f"context shape {bad[0]}, want ({self.cfg.d_e},)")
        null = np.array([c is None for c in ctxs])
        ctx = np.array([self.null_ctx.value if c is None else c for c in ctxs], dtype=float)
        hy, c_y = self.y_proj.forward(ctx)
        return Conditioning(lengths, np.cumsum(lengths) - lengths, null, hy, c_y)

    def field(self, m: np.ndarray, cond: Conditioning, hr: np.ndarray):
        """The per-frame trunk: velocity at every row of ``m``, which holds the
        programs of ``cond`` back to back, and the cache of its backward pass.
        ``hr`` is the projected path position, one row per program or one
        row for all."""
        h0, c_in = self.in_proj.forward(m)
        if len(c_in) != cond.starts[-1] + cond.lengths[-1]:
            raise ShapeMismatch(f"lengths {cond.lengths.tolist()} do not split {len(c_in)} rows")
        # one conditioning row per program: its mean frame, r and context
        hp, c_pool = self.pool_proj.forward(np.add.reduceat(c_in, cond.starts)
                                            / cond.lengths[:, None])
        v, c_trunk = chain_forward(self.trunk, h0 + np.repeat(hp + hr + cond.hy, cond.lengths, 0))
        return v, (c_in, c_pool, c_trunk)

    def _field_backward(self, dv: np.ndarray, cond: Conditioning, cache) -> np.ndarray:
        """Accumulate the parameter gradients of the rows' velocities; returns
        the gradient of each program's conditioning row, for ``hr``."""
        c_in, c_pool, c_trunk = cache
        dx = chain_backward(self.trunk, dv, c_trunk)
        dcond = np.add.reduceat(dx, cond.starts)
        self.in_proj.backward(dx, c_in)
        self.pool_proj.backward(dcond, c_pool)
        dctx = self.y_proj.backward(dcond, cond.c_y)
        self.null_ctx.grad += dctx[cond.null].sum(axis=0)
        return dcond


def interpolate(noise: np.ndarray, program: np.ndarray, r) -> np.ndarray:
    """Straight-line path point (1 - r) noise + r program; ``r`` may hold
    one position per row."""
    noise = np.asarray(noise, dtype=float)
    program = np.asarray(program, dtype=float)
    if noise.shape != program.shape:
        raise ShapeMismatch(f"endpoint shapes {noise.shape} vs {program.shape}")
    if not np.all((0.0 <= r) & (r <= 1.0)):
        raise RangeError(f"path position r = {r} outside [0, 1]")
    return (1.0 - r) * noise + r * program


def fm_loss(model: FlowModel, program, noise, r, y_vec=None, lengths=None) -> float:
    """Squared error between the field and the path velocity (program - noise).
    ``program`` and ``noise`` pack programs of ``lengths`` rows, each with a
    path position in ``r`` and a context in ``y_vec`` (None: the null context);
    the loss is the mean of theirs.  ``lengths=None`` is one program."""
    return _fm_step(model, program, noise, r, y_vec, None, lengths)


def fm_grad(model: FlowModel, program, noise, r, y_vec=None, scale=1.0, lengths=None) -> float:
    """fm_loss plus hand-derived parameter gradients (times ``scale``), in one
    backward pass of the field."""
    return _fm_step(model, program, noise, r, y_vec, scale, lengths)


def _fm_step(model: FlowModel, program, noise, r, y_vec, scale, lengths):
    if lengths is None:  # one program
        lengths, r, y_vec = [len(program)], [r], [y_vec]
    cond = model.condition(lengths, None if y_vec is None else list(y_vec))
    r = np.asarray(r, dtype=float)
    if r.shape != cond.lengths.shape:
        raise CountMismatch(f"{cond.lengths.size} programs, {r.size} path positions")
    if len(program) != cond.lengths.sum():
        raise ShapeMismatch(f"lengths {cond.lengths.tolist()} do not split {len(program)} rows")
    point = interpolate(noise, program, np.repeat(r, cond.lengths)[:, None])
    hr, c_r = model.r_proj.forward(time_embedding(r, model.cfg.r_dim))
    v, cache = model.field(point, cond, hr)
    resid = v - (program - noise)
    # every program weighs the same, whatever its length
    weight = np.repeat(1.0 / (cond.lengths.size * cond.lengths * resid.shape[1]), cond.lengths)
    loss = float(((resid * resid).sum(axis=1) * weight).sum())
    if scale is not None:
        dcond = model._field_backward(scale * 2.0 * resid * weight[:, None], cond, cache)
        model.r_proj.backward(dcond, c_r)
    return loss


def euler_sample(model: FlowModel, noise, cfg: SamplerConfig, y_vec=None):
    """Integrate the field from r = 0 to 1 with fixed Euler steps.

    ``noise`` is one [T, d_m] start with its context ``y_vec`` (None for the
    null context), or a list of starts with a list of contexts, returned as a
    list.  With guidance g != 1 a conditioned program moves with
    v_null + g (v_cond - v_null); at g = 1 the null branch is skipped.  The
    conditioning is projected once per call, and all programs and null
    branches of a step share one call of the field's per-frame trunk.
    """
    single = isinstance(noise, np.ndarray)
    noises, ctxs = ([noise], [y_vec]) if single else (list(noise), list(y_vec))
    if len(ctxs) != len(noises) or not noises:
        raise CountMismatch(f"{len(noises)} noises vs {len(ctxs)} contexts")
    if any(np.ndim(e) != 2 or np.shape(e)[1] != model.cfg.d_m for e in noises):
        raise ShapeMismatch(f"noises must be [T, {model.cfg.d_m}] arrays")
    lengths = [len(e) for e in noises]
    guided = [c is not None and cfg.guidance != 1.0 for c in ctxs]
    rows = np.flatnonzero(np.repeat(guided, lengths))  # frames that also get a null branch
    cond = model.condition(lengths + [n for n, g in zip(lengths, guided) if g],
                           ctxs + [None] * sum(guided))
    # one product projects each step's path position as a block of min(branches,
    # 2) equal rows: BLAS rounds one row (gemv) unlike more (gemm), whose rows do
    # not depend on the height, so a block's first row has the branches' bits
    blocks = np.outer(np.arange(cfg.steps), np.ones(min(len(cond.lengths), 2))) / cfg.steps
    hr, _ = model.r_proj.forward(time_embedding(blocks, model.cfg.r_dim))
    m = np.concatenate(noises, dtype=float)
    dt = 1.0 / cfg.steps
    for k in range(cfg.steps):
        v, _ = model.field(np.concatenate([m, m[rows]]), cond, hr[k, :1])
        v, v_null = v[:m.shape[0]], v[m.shape[0]:]
        v[rows] = v_null + cfg.guidance * (v[rows] - v_null)
        m = m + dt * v
    if not np.all(np.isfinite(m)):
        raise DivergenceDetected("Euler integration produced non-finite values")
    out = np.split(m, np.cumsum(lengths)[:-1])
    return out[0] if single else out


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def prepare_flow_targets(post, rows, rng):
    """Fresh posterior draws, in one call, at rows ``rows`` of ``post``: the
    corpus's ``encode_packed`` by the frozen bottleneck, made once per run."""
    return sample_posterior(Posterior(post.mu[rows], post.log_var[rows]),
                            rng.standard_normal((len(rows), post.mu.shape[1])))


def train_flow(model: FlowModel, bottleneck, vocab, samples,
               train_cfg: TrainConfig, seed: int, history_hook=None):
    """Train the field against a frozen bottleneck with ``fit``; deterministic per
    seed.  A step draws its samples, path positions, null contexts, path noise
    and targets from one generator, then makes one packed ``fm_grad`` call."""
    contexts = np.array([embed_text(bottleneck, vocab.embeddings[list(s.token_ids)])
                         for s in samples])  # frozen pooled text embeddings
    post, starts = encode_packed(bottleneck, [s.latents for s in samples])
    sizes = np.diff(starts, append=len(post.mu))
    rng = np.random.default_rng(seed)
    n, batch = len(samples), train_cfg.batch_size

    def step(k):
        idx = rng.choice(n, size=batch, replace=False)
        r = rng.uniform(size=batch)
        null = rng.uniform(size=batch) < model.cfg.cond_dropout
        lengths = sizes[idx]
        # one gather index: the drawn samples' rows of the packed posterior
        shift = starts[idx] - np.cumsum(lengths) + lengths
        rows = np.arange(lengths.sum()) + np.repeat(shift, lengths)
        noise = rng.standard_normal((len(rows), model.cfg.d_m))
        targets = prepare_flow_targets(post, rows, rng)
        ctxs = [None if drop else c for drop, c in zip(null, contexts[idx])]
        return {"total": fm_grad(model, targets, noise, r, ctxs, lengths=lengths)}

    return fit(model.params(), train_cfg, n, step, history_hook)
