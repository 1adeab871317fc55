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
    CountMismatch,
    DegenerateBatch,
    DimensionMismatch,
    DivergenceDetected,
    LengthNotCompressible,
    NonUnitInput,
    RangeError,
    ShapeMismatch,
    ZeroNormInput,
)
from .nn import Adam, Conv1d, Linear, Module, ReLU, ResBlock, Segments, Upsample2


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
        for name in ("d_z", "d_m", "d_e", "width", "levels", "d_text"):
            if int(getattr(self, name)) < 1:
                raise RangeError(f"{name} must be >= 1")
        if self.beta < 0 or self.lambda_pi < 0 or self.lambda_sem < 0:
            raise RangeError("loss weights must be >= 0")
        if self.lambda_tok <= 0 or self.lambda_frm <= 0:
            raise RangeError("pooling temperatures must be > 0")

    @property
    def compression(self) -> int:
        return 2 ** self.levels

    def to_dict(self) -> dict:
        return {
            "d_z": self.d_z, "d_m": self.d_m, "d_e": self.d_e,
            "width": self.width, "levels": self.levels, "d_text": self.d_text,
            "beta": self.beta, "lambda_pi": self.lambda_pi,
            "lambda_sem": self.lambda_sem, "lambda_tok": self.lambda_tok,
            "lambda_frm": self.lambda_frm, "logit_scale_init": self.logit_scale_init,
        }

    @staticmethod
    def from_dict(d: dict) -> "BottleneckConfig":
        return BottleneckConfig(
            d_z=int(d["d_z"]), d_m=int(d["d_m"]), d_e=int(d["d_e"]),
            width=int(d["width"]), levels=int(d["levels"]), d_text=int(d["d_text"]),
            beta=float(d["beta"]), lambda_pi=float(d["lambda_pi"]),
            lambda_sem=float(d["lambda_sem"]), lambda_tok=float(d["lambda_tok"]),
            lambda_frm=float(d["lambda_frm"]),
            logit_scale_init=float(d["logit_scale_init"]),
        )


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

    @property
    def T_m(self) -> int:
        return self.mu.shape[0]

    @property
    def d_m(self) -> int:
        return self.mu.shape[1]


class Encoder(Module):
    def __init__(self, rng, cfg: BottleneckConfig):
        super().__init__()
        self.cfg = cfg
        self.in_proj = self.add_child("in", Linear(rng, cfg.d_z, cfg.width, gain=np.sqrt(2.0)))
        self.levels = []
        for i in range(cfg.levels):
            down = self.add_child(f"down{i}", Conv1d(rng, cfg.width, cfg.width, stride=2, gain=np.sqrt(2.0)))
            res = self.add_child(f"res{i}", ResBlock(rng, cfg.width))
            self.levels.append((down, res, ReLU()))
        self.mu_head = self.add_child("mu", Linear(rng, cfg.width, cfg.d_m))
        self.logvar_head = self.add_child("logvar", Linear(rng, cfg.width, cfg.d_m))
        # start the posterior tight so early reconstruction is not noise-bound
        self.logvar_head.b.value[...] = -4.0

    def forward(self, z: np.ndarray, seg: Segments | None = None):
        """Posterior parameters of one sequence, or of packed ``seg`` segments
        whose lengths are multiples of the compression."""
        seg = Segments.of(z, seg)
        h, c_in = self.in_proj.forward(z)
        caches = [c_in]
        for down, res, relu in self.levels:
            h, c_down = down.forward(h, seg)
            seg = down.out_segments(seg)
            h, c_relu = relu.forward(h)
            h, c_res = res.forward(h, seg)
            caches.append((c_down, c_relu, c_res))
        mu, c_mu = self.mu_head.forward(h)
        log_var, c_lv = self.logvar_head.forward(h)
        caches.append((c_mu, c_lv))
        return mu, log_var, caches

    def backward(self, dmu: np.ndarray, dlog_var: np.ndarray, caches):
        c_mu, c_lv = caches[-1]
        dh = self.mu_head.backward(dmu, c_mu)
        dh = dh + self.logvar_head.backward(dlog_var, c_lv)
        for (down, res, relu), cache in zip(reversed(self.levels), reversed(caches[1:-1])):
            c_down, c_relu, c_res = cache
            dh = res.backward(dh, c_res)
            dh = relu.backward(dh, c_relu)
            dh = down.backward(dh, c_down)
        return self.in_proj.backward(dh, caches[0])


class Decoder(Module):
    def __init__(self, rng, cfg: BottleneckConfig):
        super().__init__()
        self.cfg = cfg
        self.in_proj = self.add_child("in", Linear(rng, cfg.d_m, cfg.width, gain=np.sqrt(2.0)))
        self.levels = []
        for i in range(cfg.levels):
            up = Upsample2()
            conv = self.add_child(f"conv{i}", Conv1d(rng, cfg.width, cfg.width, gain=np.sqrt(2.0)))
            res = self.add_child(f"res{i}", ResBlock(rng, cfg.width))
            self.levels.append((up, conv, res, ReLU()))
        self.out_head = self.add_child("out", Linear(rng, cfg.width, cfg.d_z))

    def forward(self, m: np.ndarray, seg: Segments | None = None):
        """Latent frames of one compact program, or of packed ``seg`` segments."""
        seg = Segments.of(m, seg)
        h, c_in = self.in_proj.forward(m)
        caches = [c_in]
        for up, conv, res, relu in self.levels:
            h, c_up = up.forward(h)
            seg = up.out_segments(seg)
            h, c_conv = conv.forward(h, seg)
            h, c_relu = relu.forward(h)
            h, c_res = res.forward(h, seg)
            caches.append((c_up, c_conv, c_relu, c_res))
        z_hat, c_out = self.out_head.forward(h)
        caches.append(c_out)
        return z_hat, caches

    def backward(self, dz_hat: np.ndarray, caches):
        dh = self.out_head.backward(dz_hat, caches[-1])
        for (up, conv, res, relu), cache in zip(reversed(self.levels), reversed(caches[1:-1])):
            c_up, c_conv, c_relu, c_res = cache
            dh = res.backward(dh, c_res)
            dh = relu.backward(dh, c_relu)
            dh = conv.backward(dh, c_conv)
            dh = up.backward(dh, c_up)
        return self.in_proj.backward(dh, caches[0])


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

# Padded input frames per packed chunk.  One pack per batch holds every
# layer's activations for every item at once; chunks of about this size keep
# peak memory at the per-item level for nearly all of the speed.
_FRAME_BUDGET = 320


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


def _chunks(padded) -> list:
    """Runs [lo, hi) of consecutive items within the frame budget; an item
    longer than the budget gets a run of its own."""
    bounds, used = [0], 0
    for i, n in enumerate(padded):
        if used and used + n > _FRAME_BUDGET:
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
    for lo, hi in _chunks(t_m * c):
        mu, log_var, _ = model.encoder.forward(_pack(zs[lo:hi], c), Segments(t_m[lo:hi] * c))
        mus.append(mu)
        log_vars.append(log_var)
    post = Posterior(mu=np.concatenate(mus), log_var=np.concatenate(log_vars))
    return post, _offsets(t_m)


def encode(model: BottleneckModel, z, pad: bool = True) -> Posterior:
    """Posterior over compact program frames; T_m = ceil(T_z / compression)."""
    arr = _check_latents(model, z)
    c = model.compression
    if arr.shape[0] % c != 0:
        if not pad:
            raise LengthNotCompressible(
                f"length {arr.shape[0]} not divisible by {c} and padding is off"
            )
        arr, _ = pad_to_multiple(arr, c)
    mu, log_var, _ = model.encoder.forward(arr)
    return Posterior(mu=mu, log_var=log_var)


def sample_posterior(post: Posterior, noise: np.ndarray) -> np.ndarray:
    """Reparameterised draw m = mu + exp(log_var / 2) * noise."""
    noise = np.asarray(noise, dtype=float)
    if noise.shape != post.mu.shape:
        raise ShapeMismatch(f"noise shape {noise.shape} vs posterior {post.mu.shape}")
    return post.mu + np.exp(0.5 * post.log_var) * noise


def decode(model: BottleneckModel, m) -> np.ndarray:
    """Decode a compact program to latent frames ([T_m * compression, d_z])."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != model.cfg.d_m:
        raise DimensionMismatch(f"program has shape {arr.shape}, want [T_m, {model.cfg.d_m}]")
    z_hat, _ = model.decoder.forward(arr)
    return z_hat


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


def project_program_frames(model: BottleneckModel, m) -> np.ndarray:
    """Unit-norm alignment embeddings of program frames."""
    v, _ = model.P_m.forward(np.asarray(m, dtype=float))
    unit, _ = _normalize_rows(v)
    return unit


def project_text_tokens(model: BottleneckModel, y) -> np.ndarray:
    """Unit-norm alignment embeddings of prompt token rows."""
    v, _ = model.P_y.forward(np.asarray(y, dtype=float))
    unit, _ = _normalize_rows(v)
    return unit


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
    noises = []
    for item in batch:
        padded, _ = pad_to_multiple(item.latents, c)
        t_m = padded.shape[0] // c
        noises.append(rng.standard_normal((t_m, model.cfg.d_m)))
    return noises


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
    for lo, hi in _chunks(t_m * c):
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

def embed_program(model: BottleneckModel, m) -> np.ndarray:
    """Single unit vector for a whole program: normalised mean of frame embeddings."""
    frames = project_program_frames(model, m)
    mean = frames.mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        raise ZeroNormInput("program embedding collapsed to zero")
    return mean / norm


def embed_text(model: BottleneckModel, y) -> np.ndarray:
    """Single unit vector for a prompt: normalised mean of token embeddings."""
    tokens = project_text_tokens(model, y)
    mean = tokens.mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        raise ZeroNormInput("text embedding collapsed to zero")
    return mean / norm


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-5
    weight_decay: float = 5e-4
    warmup: int = 200
    batch_size: int = 32
    steps: int = 1000

    def __post_init__(self):
        if self.lr <= 0 or self.steps < 1 or self.batch_size < 2:
            raise RangeError("invalid training configuration")

    def to_dict(self) -> dict:
        return {"lr": self.lr, "weight_decay": self.weight_decay,
                "warmup": self.warmup, "batch_size": self.batch_size,
                "steps": self.steps}


def train_bottleneck(model: BottleneckModel, world, vocab, samples,
                     train_cfg: TrainConfig, seed: int, history_hook=None):
    """Adam training loop; deterministic for a fixed seed.

    Returns the per-step loss history as a list of dicts.  ``history_hook``
    (if given) is called with each record as it is produced.
    """
    if len(samples) < train_cfg.batch_size:
        raise DegenerateBatch(
            f"{len(samples)} samples cannot fill batches of {train_cfg.batch_size}"
        )
    items = batch_from_samples(samples, vocab)
    rng = np.random.default_rng(seed)
    opt = Adam(model.params(), lr=train_cfg.lr, weight_decay=train_cfg.weight_decay,
               warmup=train_cfg.warmup)
    history = []
    n = len(items)
    for step_idx in range(train_cfg.steps):
        idx = rng.choice(n, size=train_cfg.batch_size, replace=False)
        batch = [items[i] for i in idx]
        noises = make_noises(model, batch, rng)
        opt.zero_grad()
        total, comps = vbb_grad(model, world, batch, noises)
        if not np.isfinite(total):
            raise DivergenceDetected(f"loss diverged at step {step_idx}")
        opt.step()
        record = {"step": step_idx, **comps}
        history.append(record)
        if history_hook is not None:
            history_hook(record)
    return history
