"""Variational compression of latent trajectories, aligned with text.

The encoder halves the sequence length at every strided level, so a stack of
``levels`` levels compresses time by 2^levels.  The posterior is a diagonal
Gaussian per compressed frame; sampling uses the reparameterisation
m = mu + sigma * noise so gradients reach the encoder.  The decoder mirrors
the encoder with nearest-neighbour upsampling and emits raw latent frames; it
does not re-project onto the sphere, reconstruction happens in the ambient
space.

The training loss combines reconstruction (plus a policy-divergence term that
pulls decoded latents toward action-equivalence with the originals), a KL to
the unit Gaussian prior, and a bidirectional contrastive alignment between
projected program frames and projected prompt tokens.  All gradients are
derived by hand; ``vbb_grad`` is validated against finite differences in the
test suite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MAX_LEVELS,
    MAX_SCALE,
    CountMismatch,
    DegenerateBatch,
    DimensionMismatch,
    DivergenceDetected,
    NonUnitInput,
    RangeError,
    ShapeMismatch,
    ZeroNormInput,
    check_sizes,
)
from .nn import (
    Conv1d,
    Linear,
    Module,
    ReLU,
    ResBlock,
    Segments,
    TrainConfig,
    Upsample2,
    chain_backward,
    chain_forward,
    fit,
)


@dataclass(frozen=True)
class BottleneckConfig:
    """Architecture and loss weights for the behavioral bottleneck."""

    d_z: int
    d_m: int = 48
    d_e: int = 32
    width: int = 32
    levels: int = 3
    d_text: int = 32
    beta: float = 1e-4
    lambda_pi: float = 0.1
    lambda_sem: float = 0.35
    lambda_tok: float = 0.2
    lambda_frm: float = 0.2
    logit_scale_init: float = math.log(1.0 / 0.07)

    def __post_init__(self):
        check_sizes(self, "d_z", "d_m", "d_e", "width", "d_text")
        check_sizes(self, "levels", limit=MAX_LEVELS)
        # an unbounded weight overflows Adam's second moment, not the loss
        check_sizes(self, "beta", "lambda_pi", "lambda_sem", limit=MAX_SCALE, low=0)
        # the logit scale starts at exp(logit_scale_init), which must be finite and nonzero
        check_sizes(self, "logit_scale_init", limit=math.log(MAX_SCALE), low=-math.log(MAX_SCALE))
        for name in ("lambda_tok", "lambda_frm"):  # pooling temperatures
            if not getattr(self, name) > 0:
                raise RangeError(f"{name} = {getattr(self, name)} must be > 0")

    @property
    def compression(self) -> int:
        return 2 ** self.levels


@dataclass(frozen=True)
class Posterior:
    """Diagonal Gaussian over compact program frames."""

    mu: np.ndarray
    log_var: np.ndarray

    def __post_init__(self):
        if self.mu.shape != self.log_var.shape or self.mu.ndim != 2:
            raise ShapeMismatch(
                f"posterior shapes {self.mu.shape} vs {self.log_var.shape}"
            )


class Encoder(Module):
    def __init__(self, rng, cfg: BottleneckConfig):
        super().__init__()
        self.cfg = cfg
        self.trunk = [self.add_child("in", Linear(rng, cfg.d_z, cfg.width, gain=np.sqrt(2.0)))]
        for i in range(cfg.levels):
            self.trunk += [self.add_child(f"down{i}", Conv1d(rng, cfg.width, cfg.width, stride=2,
                                                             gain=np.sqrt(2.0))),
                           ReLU(), self.add_child(f"res{i}", ResBlock(rng, cfg.width))]
        self.mu_head = self.add_child("mu", Linear(rng, cfg.width, cfg.d_m))
        self.logvar_head = self.add_child("logvar", Linear(rng, cfg.width, cfg.d_m))
        # start the posterior tight so early reconstruction is not noise-bound
        self.logvar_head.b.value[...] = -4.0

    def forward(self, z: np.ndarray, seg: Segments | None = None):
        """Posterior parameters of one sequence, or of packed ``seg`` segments
        whose lengths are multiples of the compression."""
        h, caches = chain_forward(self.trunk, z, Segments.of(z, seg))
        mu, c_mu = self.mu_head.forward(h)
        log_var, c_lv = self.logvar_head.forward(h)
        return mu, log_var, (caches, c_mu, c_lv)

    def backward(self, dmu: np.ndarray, dlog_var: np.ndarray, cache):
        caches, c_mu, c_lv = cache
        dh = self.mu_head.backward(dmu, c_mu)
        dh = dh + self.logvar_head.backward(dlog_var, c_lv)
        return chain_backward(self.trunk, dh, caches)


class Decoder(Module):
    def __init__(self, rng, cfg: BottleneckConfig):
        super().__init__()
        self.cfg = cfg
        self.trunk = [self.add_child("in", Linear(rng, cfg.d_m, cfg.width, gain=np.sqrt(2.0)))]
        for i in range(cfg.levels):
            self.trunk += [Upsample2(),
                           self.add_child(f"conv{i}", Conv1d(rng, cfg.width, cfg.width,
                                                             gain=np.sqrt(2.0))),
                           ReLU(), self.add_child(f"res{i}", ResBlock(rng, cfg.width))]
        self.trunk.append(self.add_child("out", Linear(rng, cfg.width, cfg.d_z)))

    def forward(self, m: np.ndarray, seg: Segments | None = None):
        """Latent frames of one compact program, or of packed ``seg`` segments."""
        return chain_forward(self.trunk, m, Segments.of(m, seg))

    def backward(self, dz_hat: np.ndarray, caches):
        return chain_backward(self.trunk, dz_hat, caches)


class BottleneckModel(Module):
    """Encoder, decoder, the two alignment heads, and the logit scale."""

    def __init__(self, cfg: BottleneckConfig, seed: int = 0):
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.encoder = self.add_child("enc", Encoder(rng, cfg))
        self.decoder = self.add_child("dec", Decoder(rng, cfg))
        self.P_m = self.add_child("pm", Linear(rng, cfg.d_m, cfg.d_e))
        self.P_y = self.add_child("py", Linear(rng, cfg.d_text, cfg.d_e))
        self.alpha = self.add_param("alpha", np.array(cfg.logit_scale_init))

    @property
    def compression(self) -> int:
        return self.cfg.compression

    @property
    def gamma(self) -> float:
        return float(np.exp(self.alpha.value))


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

# Bytes of padded frames per chunk (frames x width x 8; 640 frames at width 32),
# shared by training and inference: a wider config gets fewer frames, not more
# memory.  A batch of 32 on the base corpus fills about 1,224 padded frames.
# Train benchmark, 2 vCPUs, medians of 3 runs of VBB step p75 and peak RSS:
# 320 frames (4.5 chunks) 26.4 ms, 49.3 MB; 640 (2.35 chunks) 19.7 ms, 50.9 MB;
# whole batch 20.5 ms, 53.5 MB, and 16.9 ms, 74.0 MB with whole inference packs.
_PACK_BYTES = 640 * 32 * 8


def pad_to_multiple(z: np.ndarray, c: int):
    """Right-pad by repeating the final frame; returns (padded, n_real)."""
    n_real = z.shape[0]
    rem = n_real % c
    if rem == 0:
        return z, n_real
    extra = np.repeat(z[-1:], c - rem, axis=0)
    return np.concatenate([z, extra], axis=0), n_real


def _check_latents(model: BottleneckModel, z) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != model.cfg.d_z:
        raise DimensionMismatch(f"latents have shape {arr.shape}, want [T, {model.cfg.d_z}]")
    if not np.all(np.isfinite(arr)):
        raise DivergenceDetected("latents contain non-finite values")
    return arr


def _check_sequences(model: BottleneckModel, latents):
    """Checked latent arrays and their frame counts."""
    zs = [_check_latents(model, z) for z in latents]
    if not zs:
        raise DegenerateBatch("no latent sequences given")
    n_real = np.array([z.shape[0] for z in zs])
    if n_real.min() < 1:
        raise RangeError("every latent sequence needs at least one frame")
    return zs, n_real


def _offsets(lengths) -> np.ndarray:
    """Start row of each segment packed back to back."""
    lengths = np.asarray(lengths)
    return np.cumsum(lengths) - lengths


def _chunks(padded, width: int) -> list:
    """Runs [lo, hi) of consecutive items within the pack budget at this
    width; an item longer than the budget gets a run of its own."""
    bounds, used = [0], 0
    for i, n in enumerate(padded):
        if used and used + n > _PACK_BYTES // (8 * width):
            bounds.append(i)
            used = 0
        used += n
    bounds.append(len(padded))
    return list(zip(bounds[:-1], bounds[1:]))


def _pack(zs, c: int) -> np.ndarray:
    return np.concatenate([pad_to_multiple(z, c)[0] for z in zs])


def encode_packed(model: BottleneckModel, latents):
    """Posteriors of many sequences, encoded in packed chunks.

    Returns one Posterior over every sequence's compact frames, back to
    back, and the row at which each sequence's frames start.
    """
    zs, n_real = _check_sequences(model, latents)
    c = model.compression
    t_m = -(-n_real // c)
    mus, log_vars = [], []
    for lo, hi in _chunks(t_m * c, model.cfg.width):
        mu, log_var, _ = model.encoder.forward(_pack(zs[lo:hi], c), Segments(t_m[lo:hi] * c))
        mus.append(mu)
        log_vars.append(log_var)
    post = Posterior(mu=np.concatenate(mus), log_var=np.concatenate(log_vars))
    return post, _offsets(t_m)


def encode(model: BottleneckModel, z) -> Posterior:
    """Posterior over compact program frames; T_m = ceil(T_z / compression)."""
    return encode_packed(model, [z])[0]


def sample_posterior(post: Posterior, noise: np.ndarray) -> np.ndarray:
    """Reparameterised draw m = mu + exp(log_var / 2) * noise."""
    noise = np.asarray(noise, dtype=float)
    if noise.shape != post.mu.shape:
        raise ShapeMismatch(f"noise shape {noise.shape} vs posterior {post.mu.shape}")
    return post.mu + np.exp(0.5 * post.log_var) * noise


def decode_packed(model: BottleneckModel, programs) -> list:
    """Latent frames of many compact programs, decoded in packed chunks;
    one [T_m * compression, d_z] array per program."""
    ms = [np.asarray(m, dtype=float) for m in programs]
    bad = [m.shape for m in ms if m.ndim != 2 or len(m) < 1 or m.shape[1] != model.cfg.d_m]
    if bad or not ms:
        raise DimensionMismatch(f"need programs of shape [T_m >= 1, {model.cfg.d_m}], "
                                f"got {bad or 'none'}")
    t_m = np.array([m.shape[0] for m in ms])
    out = []
    for lo, hi in _chunks(t_m * model.compression, model.cfg.width):
        z_hat, _ = model.decoder.forward(np.concatenate(ms[lo:hi]), Segments(t_m[lo:hi]))
        out += np.split(z_hat, np.cumsum(t_m[lo:hi] * model.compression)[:-1])
    return out


def decode(model: BottleneckModel, m) -> np.ndarray:
    """Decode a compact program to latent frames ([T_m * compression, d_z])."""
    return decode_packed(model, [m])[0]


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def reconstruction_loss(model: BottleneckModel, world, z, z_hat, states,
                        n_real: int | None = None) -> float:
    """Ambient-space MSE plus the policy divergence of decoded latents.

    Frames past ``n_real`` (padding) are masked out.  The policy term is
    teacher-forced: both latent sequences drive the policy along the same
    reference states, so per frame it is ||W_z (z_hat - z)||^2 / (2 sigma^2).
    """
    z = np.asarray(z, dtype=float)
    z_hat = np.asarray(z_hat, dtype=float)
    if z.shape != z_hat.shape:
        raise ShapeMismatch(f"latent shapes {z.shape} vs {z_hat.shape}")
    n = z.shape[0] if n_real is None else int(n_real)
    if not (1 <= n <= z.shape[0]):
        raise RangeError(f"n_real {n} outside [1, {z.shape[0]}]")
    states = np.asarray(states, dtype=float)
    if states.shape[0] < n:
        raise CountMismatch(f"need {n} states, got {states.shape[0]}")
    diff = z_hat[:n] - z[:n]
    mse = float((diff * diff).sum()) / n
    act_gap = diff @ world.W_z.T
    policy = float((act_gap * act_gap).sum()) / (2.0 * world.sigma_pi ** 2) / n
    return mse + model.cfg.lambda_pi * policy


def kl_prior_loss(post: Posterior) -> float:
    """Mean over frames and dims of the per-entry KL to the unit Gaussian."""
    var = np.exp(post.log_var)
    per_entry = 0.5 * (post.mu ** 2 + var - post.log_var - 1.0)
    return float(per_entry.mean())


def _normalize_rows(v: np.ndarray, floor: float = 1e-12):
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms < floor):
        raise ZeroNormInput("projected embedding row has near-zero norm")
    return v / norms[:, None], norms


def align_rows(head: Linear, rows) -> np.ndarray:
    """Unit-norm alignment embeddings of ``rows``: program frames through the
    model's ``P_m``, prompt token rows through its ``P_y``."""
    v, _ = head.forward(np.asarray(rows, dtype=float))
    return _normalize_rows(v)[0]


def _check_unit_rows(name: str, rows_list):
    for idx, rows in enumerate(rows_list):
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ShapeMismatch(f"{name}[{idx}] must be a non-empty [n, d_e] array")
        norms = np.linalg.norm(arr, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise NonUnitInput(f"{name}[{idx}] rows deviate from unit norm")


def _similarity_forward(prog, p_starts, text, t_starts, lambda_tok: float, lambda_frm: float):
    """R[i, j] for packed unit rows, plus the caches the backward pass needs.

    Program i holds the rows of ``prog`` from ``p_starts[i]`` up to the next
    start, text j likewise in ``text``.  Every pair shares one cosine matrix;
    token and frame pooling are segment reductions over it.
    """
    p_starts, t_starts = np.asarray(p_starts), np.asarray(t_starts)
    k_len = np.diff(t_starts, append=text.shape[0])
    row_item = np.repeat(np.arange(p_starts.size), np.diff(p_starts, append=prog.shape[0]))
    col_item = np.repeat(np.arange(t_starts.size), k_len)
    scaled = (prog @ text.T) / lambda_tok  # [sum T, sum K]
    peak = np.maximum.reduceat(scaled, t_starts, axis=1)  # [sum T, n texts]
    expd = np.exp(scaled - peak[:, col_item])
    sums = np.add.reduceat(expd, t_starts, axis=1)
    f_mat = lambda_tok * (peak + np.log(sums / k_len))  # token-pooled score of frame vs text
    a_mat = expd / sums[:, col_item]  # softmax over each text's tokens
    g = f_mat / lambda_frm
    w_mat = np.exp(g - np.maximum.reduceat(g, p_starts, axis=0)[row_item])
    w_mat /= np.add.reduceat(w_mat, p_starts, axis=0)[row_item]  # softmax over each program's frames
    r_mat = np.add.reduceat(w_mat * f_mat, p_starts, axis=0)
    return r_mat, (a_mat, w_mat, f_mat, r_mat, row_item, col_item)


def similarity_matrix(programs, texts, lambda_tok: float, lambda_frm: float) -> np.ndarray:
    """Frame-weighted token-pooled cosine similarity for each (program, text) pair.

    Token pooling is a soft maximum (temperature ``lambda_tok``) over the
    tokens of the text; frame weights are a softmax (temperature
    ``lambda_frm``) over the program's own pooled scores, so frames that
    match the text dominate the aggregate.
    """
    if lambda_tok <= 0 or lambda_frm <= 0:
        raise RangeError("pooling temperatures must be positive")
    if len(programs) != len(texts):
        raise CountMismatch(f"{len(programs)} programs vs {len(texts)} texts")
    if len(programs) == 0:
        raise DegenerateBatch("empty batch")
    _check_unit_rows("programs", programs)
    _check_unit_rows("texts", texts)
    progs = [np.asarray(p, dtype=float) for p in programs]
    toks = [np.asarray(t, dtype=float) for t in texts]
    r_mat, _ = _similarity_forward(
        np.concatenate(progs), _offsets([len(p) for p in progs]),
        np.concatenate(toks), _offsets([len(t) for t in toks]),
        lambda_tok, lambda_frm,
    )
    return r_mat


def _similarity_backward(prog, text, cache, g_mat, lambda_frm: float):
    """Push dL/dR back to the packed unit-norm program and text rows."""
    a_mat, w_mat, f_mat, r_mat, row_item, col_item = cache
    # dR/dF_t = w_t (1 + (F_t - R) / lambda_frm), per frame and text
    dfd = g_mat[row_item] * w_mat * (1.0 + (f_mat - r_mat[row_item]) / lambda_frm)
    # dF_t/d cos_tk = a_tk
    dcos = dfd[:, col_item] * a_mat
    return dcos @ text, dcos.T @ prog


def _unit_rows_backward(g: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """dL/dv from dL/du for u = v / ||v|| per row: (g - (g . u) u) / ||v||."""
    return (g - (g * unit).sum(axis=1, keepdims=True) * unit) / norms[:, None]


def _softmax_rows(mat: np.ndarray) -> np.ndarray:
    shifted = mat - mat.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def contrastive_loss(r_mat: np.ndarray, gamma: float) -> float:
    """Symmetric cross-entropy over rows and columns of gamma * R."""
    loss, _, _ = _contrastive_forward(r_mat, gamma)
    return loss


def _contrastive_forward(r_mat: np.ndarray, gamma: float):
    r_mat = np.asarray(r_mat, dtype=float)
    if r_mat.ndim != 2 or r_mat.shape[0] != r_mat.shape[1]:
        raise ShapeMismatch(f"similarity matrix must be square, got {r_mat.shape}")
    b = r_mat.shape[0]
    if b < 2:
        raise DegenerateBatch("contrastive loss needs a batch of at least 2")
    if gamma <= 0:
        raise RangeError(f"logit scale must be positive, got {gamma}")
    s = gamma * r_mat
    p_rows = _softmax_rows(s)
    p_cols = _softmax_rows(s.T).T
    eye = np.arange(b)
    row_ce = -np.log(p_rows[eye, eye]).mean()
    col_ce = -np.log(p_cols[eye, eye]).mean()
    loss = 0.5 * (row_ce + col_ce)
    return float(loss), p_rows, p_cols


def _contrastive_backward(r_mat, gamma, p_rows, p_cols):
    """Returns (dL/dR, dL/dalpha) for loss = contrastive(R, gamma=e^alpha)."""
    b = r_mat.shape[0]
    identity = np.eye(b)
    ds = ((p_rows - identity) + (p_cols - identity)) / (2.0 * b)
    dr = gamma * ds
    dalpha = float((dr * r_mat).sum())
    return dr, dalpha


# ---------------------------------------------------------------------------
# assembled objective
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchItem:
    """One training example: latents, the states they were extracted from,
    and the prompt's token embedding rows."""

    latents: np.ndarray
    states: np.ndarray
    text_emb: np.ndarray


def batch_from_samples(samples, vocab) -> list:
    return [
        BatchItem(
            latents=s.latents,
            states=s.states,
            text_emb=vocab.embeddings[list(s.token_ids)],
        )
        for s in samples
    ]


def make_noises(model: BottleneckModel, batch, rng) -> list:
    """One standard-normal noise array per item, shaped like its posterior."""
    c = model.compression
    return [rng.standard_normal((-(-len(item.latents) // c), model.cfg.d_m))
            for item in batch]


def vbb_loss(model: BottleneckModel, world, batch, noises):
    """Total objective and its components for one batch (forward only)."""
    return _vbb_step(model, world, batch, noises, grad=False)


def vbb_grad(model: BottleneckModel, world, batch, noises):
    """Forward plus hand-derived backward; accumulates into param grads."""
    return _vbb_step(model, world, batch, noises, grad=True)


def _vbb_step(model: BottleneckModel, world, batch, noises, grad: bool):
    """Objective and components; with ``grad`` also the parameter gradients.

    Items run through the encoder and decoder in packed chunks of
    consecutive items.  Reconstruction is per item, so the decoder's
    backward pass runs inside its chunk; the encoder's waits for the
    contrastive term, which couples the whole batch.
    """
    cfg = model.cfg
    if len(batch) != len(noises):
        raise CountMismatch(f"{len(batch)} items vs {len(noises)} noises")
    if len(batch) < 2:
        raise DegenerateBatch("alignment needs a batch of at least 2")
    c = model.compression
    b = len(batch)
    zs, n_real = _check_sequences(model, [item.latents for item in batch])
    t_m = -(-n_real // c)
    texts = [np.asarray(item.text_emb, dtype=float) for item in batch]
    for item, noise, n, t, text in zip(batch, noises, n_real, t_m, texts):
        if np.shape(item.states)[0] < n:
            raise CountMismatch(f"need {n} states, got {np.shape(item.states)[0]}")
        if np.shape(noise) != (t, cfg.d_m):
            raise ShapeMismatch(f"noise {np.shape(noise)} vs posterior {(t, cfg.d_m)}")
        if text.ndim != 2 or text.shape[0] < 1 or text.shape[1] != cfg.d_text:
            raise ShapeMismatch(f"prompt embedding {text.shape}, want [K >= 1, {cfg.d_text}]")

    pi_scale = cfg.lambda_pi / (2.0 * world.sigma_pi ** 2)
    rec_sum = kl_sum = 0.0
    programs, saved = [], []
    for lo, hi in _chunks(t_m * c, cfg.width):
        padded, t_chunk = t_m[lo:hi] * c, t_m[lo:hi]
        z = _pack(zs[lo:hi], c)
        mu, log_var, enc_cache = model.encoder.forward(z, Segments(padded))
        noise = np.concatenate(noises[lo:hi])
        sigma = np.exp(0.5 * log_var)
        m = mu + sigma * noise
        z_hat, dec_cache = model.decoder.forward(m, Segments(t_chunk))
        programs.append(m)

        # reconstruction over real frames only; the policy term is teacher-forced
        starts = _offsets(padded)
        real = np.arange(z.shape[0]) - np.repeat(starts, padded) < np.repeat(n_real[lo:hi], padded)
        diff = (z_hat - z) * real[:, None]
        gap = diff @ world.W_z.T
        frame_rec = (diff * diff).sum(axis=1) + pi_scale * (gap * gap).sum(axis=1)
        rec_sum += float((np.add.reduceat(frame_rec, starts) / n_real[lo:hi]).sum())
        frame_kl = (0.5 * (mu ** 2 + np.exp(log_var) - log_var - 1.0)).sum(axis=1)
        kl_sum += float((np.add.reduceat(frame_kl, _offsets(t_chunk)) / (t_chunk * cfg.d_m)).sum())

        if grad:
            frame_scale = np.repeat(1.0 / (b * n_real[lo:hi]), padded)[:, None]
            dz_hat = (2.0 * diff + 2.0 * pi_scale * (gap @ world.W_z)) * frame_scale
            dm_rec = model.decoder.backward(dz_hat, dec_cache)
            kl_scale = np.repeat(cfg.beta / (b * t_chunk * cfg.d_m), t_chunk)[:, None]
            saved.append((enc_cache, mu, log_var, sigma, noise, dm_rec, kl_scale))

    v_m, pm_cache = model.P_m.forward(np.concatenate(programs))
    m_unit, m_norms = _normalize_rows(v_m)
    v_y, py_cache = model.P_y.forward(np.concatenate(texts))
    y_unit, y_norms = _normalize_rows(v_y)
    r_mat, sim_cache = _similarity_forward(m_unit, _offsets(t_m),
                                           y_unit, _offsets([len(t) for t in texts]),
                                           cfg.lambda_tok, cfg.lambda_frm)
    gamma = model.gamma
    if not 0.0 < gamma < np.inf:  # exp(alpha) under- or overflowed
        raise DivergenceDetected(f"logit scale diverged to {gamma}")
    sem, p_rows, p_cols = _contrastive_forward(r_mat, gamma)

    rec = rec_sum / b
    kl = kl_sum / b
    total = rec + cfg.beta * kl + cfg.lambda_sem * sem
    if not np.isfinite(total):
        raise DivergenceDetected("objective is non-finite")
    comps = {"total": float(total), "rec": float(rec), "kl": float(kl), "sem": float(sem)}
    if not grad:
        return float(total), comps

    # semantic head: dL/dR and dL/dalpha, then back to the projected rows
    dr, dalpha = _contrastive_backward(r_mat, gamma, p_rows, p_cols)
    model.alpha.grad += cfg.lambda_sem * dalpha
    d_munit, d_yunit = _similarity_backward(m_unit, y_unit, sim_cache,
                                            cfg.lambda_sem * dr, cfg.lambda_frm)
    model.P_y.backward(_unit_rows_backward(d_yunit, y_unit, y_norms), py_cache)
    dm_sem = model.P_m.backward(_unit_rows_backward(d_munit, m_unit, m_norms), pm_cache)

    row = 0
    for enc_cache, mu, log_var, sigma, noise, dm_rec, kl_scale in saved:
        dm = dm_rec + dm_sem[row:row + mu.shape[0]]
        row += mu.shape[0]
        dmu = dm + kl_scale * mu
        dlog_var = dm * noise * 0.5 * sigma + kl_scale * 0.5 * (np.exp(log_var) - 1.0)
        model.encoder.backward(dmu, dlog_var, enc_cache)
    return float(total), comps


# ---------------------------------------------------------------------------
# embeddings reused by generation, metrics and retrieval
# ---------------------------------------------------------------------------

def _pooled_unit(head: Linear, rows, what: str) -> np.ndarray:
    """Single unit vector for a whole program or prompt: the normalised mean
    of its rows' alignment embeddings."""
    mean = align_rows(head, rows).mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        raise ZeroNormInput(f"{what} embedding collapsed to zero")
    return mean / norm


def embed_program(model: BottleneckModel, m) -> np.ndarray:
    return _pooled_unit(model.P_m, m, "program")


def embed_text(model: BottleneckModel, y) -> np.ndarray:
    return _pooled_unit(model.P_y, y, "text")


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train_bottleneck(model: BottleneckModel, world, vocab, samples,
                     train_cfg: TrainConfig, seed: int, history_hook=None):
    """Train the bottleneck with ``fit``; deterministic for a fixed seed."""
    items = batch_from_samples(samples, vocab)
    rng = np.random.default_rng(seed)

    def step(k):
        idx = rng.choice(len(items), size=train_cfg.batch_size, replace=False)
        batch = [items[i] for i in idx]
        return vbb_grad(model, world, batch, make_noises(model, batch, rng))[1]

    return fit(model.params(), train_cfg, len(items), step, history_hook)
