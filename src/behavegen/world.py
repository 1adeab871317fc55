"""Synthetic control world and latent extraction.

The world is a linear stand-in for a frozen behavior engine: a latent command
z steers a linear policy whose actions drive linear dynamics.  Everything is
chosen so the Lipschitz constants that the rollout-error bound needs are exact
operator norms of small matrices, which an SVD gives to rounding.

Latent commands are extracted from state trajectories by averaging a linear
feature of the next ``lookahead`` states and projecting the average onto the
sqrt(d_z) sphere, so nearby timesteps receive similar commands and a
trajectory's commands vary smoothly in time.
"""

from dataclasses import asdict, dataclass, field
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    MAX_COUNT,
    MAX_SCALE,
    CountMismatch,
    DimensionMismatch,
    InvalidSpec,
    NonFiniteState,
    RangeError,
    ShapeMismatch,
    UnknownToken,
    UnstableWorld,
    check_sizes,
)
from .geometry import project_rows
from .serialization import F8Matrix, from_doc, to_doc


def operator_norm(mat):
    """Largest singular value, from LAPACK's SVD: a float for one matrix, an
    array for a stack [k, rows, cols].

    Exact to rounding on every spectrum, near-degenerate ones included, and
    deterministic for a given matrix.  NumPy runs a stack as one LAPACK call
    per matrix, so each norm has the bits of that matrix's own call.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim not in (2, 3):
        raise ShapeMismatch(f"operator norm needs a matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteState("matrix contains non-finite entries")
    norms = np.linalg.svd(m, compute_uv=False)[..., 0] if m.size else np.zeros(m.shape[:-2])
    return float(norms) if m.ndim == 2 else norms


def _operator_norms(mats) -> list:
    """``operator_norm`` of each matrix, in order, with one stacked SVD per
    distinct shape."""
    groups = {}
    for i, m in enumerate(mats):
        groups.setdefault(m.shape, []).append(i)
    out = [0.0] * len(mats)
    for idx in groups.values():
        for i, norm in zip(idx, operator_norm(np.stack([mats[i] for i in idx])).tolist()):
            out[i] = norm
    return out


@dataclass(frozen=True)
class WorldConfig:
    """Recipe of a synthetic world: sizes, target operator norms, policy
    noise and the seed of the random draw.  ``make_world`` turns it into
    matrices, and the same recipe always gives the same bits."""

    state_dim: int = 6
    action_dim: int = 4
    d_z: int = 4
    target_L_s: float = 0.9
    target_L_z: float = 1.0
    target_L_B: float = 1.0
    sigma_pi: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_sizes(self, "state_dim", "action_dim", "d_z")
        if not (0.0 < self.target_L_s < 1.0):
            raise RangeError(f"target_L_s must lie in (0, 1), got {self.target_L_s}")
        for name in ("target_L_z", "target_L_B"):
            if not 0.0 < getattr(self, name) <= MAX_SCALE:
                raise RangeError(f"{name} = {getattr(self, name)} outside (0, {MAX_SCALE}]")
        # the policy KL divides by 2 sigma_pi^2, which underflows to 0 near 1e-162
        check_sizes(self, "sigma_pi", limit=MAX_SCALE, low=1e-6)
        if self.seed < 0:
            raise RangeError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SyntheticWorld:
    """Linear dynamics s' = A_s s + A_a a with policy mean W_s s + W_z z.

    ``B_mat`` maps states to the latent feature space used by extraction.
    ``config`` is the recipe the matrices were drawn from.  The matrices are
    read-only, and ``L_s``, ``L_z`` and ``L_B`` are their Lipschitz constants,
    the operator norms that ``make_worlds`` measured on them.
    """

    A_s: np.ndarray
    A_a: np.ndarray
    W_s: np.ndarray
    W_z: np.ndarray
    B_mat: np.ndarray
    config: WorldConfig
    L_s: float  # norm of the state-to-state map of the mean dynamics, A_s + A_a W_s
    L_z: float  # norm of the latent-to-state map of the mean dynamics, A_a W_z
    L_B: float  # norm of the feature map B_mat

    def __post_init__(self):
        n, a, d = self.state_dim, self.action_dim, self.d_z
        checks = [
            (self.A_s.shape, (n, n), "A_s"),
            (self.A_a.shape, (n, a), "A_a"),
            (self.W_s.shape, (a, n), "W_s"),
            (self.W_z.shape, (a, d), "W_z"),
            (self.B_mat.shape, (d, n), "B_mat"),
        ]
        for got, want, name in checks:
            if got != want:
                raise ShapeMismatch(f"{name}: expected {want}, got {got}")
        for mat in (self.A_s, self.A_a, self.W_s, self.W_z, self.B_mat):
            mat.flags.writeable = False

    @property
    def state_dim(self) -> int:
        return self.config.state_dim

    @property
    def action_dim(self) -> int:
        return self.config.action_dim

    @property
    def d_z(self) -> int:
        return self.config.d_z

    @property
    def sigma_pi(self) -> float:
        return self.config.sigma_pi

    def to_config(self) -> dict:
        """The recipe as a JSON document; ``make_world(**doc)`` rebuilds
        this world from it bit for bit."""
        return to_doc(self.config)


def make_world(**recipe) -> SyntheticWorld:
    """The world of one recipe: ``make_worlds([recipe])[0]``."""
    return make_worlds([recipe])[0]


def _draw(cfg: WorldConfig) -> tuple:
    """The unscaled A_s, A_a, W_s, W_z, B_mat of a recipe, from its own rng."""
    n, a, d = cfg.state_dim, cfg.action_dim, cfg.d_z
    rng = np.random.default_rng(cfg.seed)
    return (rng.normal(size=(n, n)) / np.sqrt(n), rng.normal(size=(n, a)) / np.sqrt(a),
            rng.normal(size=(a, n)) / np.sqrt(n), rng.normal(size=(a, d)) / np.sqrt(d),
            rng.normal(size=(d, n)) / np.sqrt(n))


def _map_norms(mats) -> list:
    """The (closed-loop A_s + A_a W_s, latent gain A_a W_z, feature map B_mat)
    operator norms of each (A_s, A_a, W_s, W_z, B_mat)."""
    return list(zip(_operator_norms([A_s + A_a @ W_s for A_s, A_a, W_s, _, _ in mats]),
                    _operator_norms([A_a @ W_z for _, A_a, _, W_z, _ in mats]),
                    _operator_norms([B_mat for *_, B_mat in mats])))


def make_worlds(recipes) -> list:
    """Draw each recipe's random matrices and rescale them to hit its norms.

    A recipe holds ``WorldConfig`` fields as keywords, with its defaults.  The
    closed-loop state map is scaled to ``target_L_s`` (must be < 1 so the
    mean dynamics contract), the latent gain to ``target_L_z`` and the feature
    map to ``target_L_B``.  Each world draws from its own
    ``default_rng(seed)``, and each kind of matrix is measured with one
    stacked SVD per shape, so every world has the bits it has when built
    alone.  Every recipe is checked, then every draw, before any world is
    rescaled.
    """
    cfgs = [WorldConfig(**r) for r in recipes]
    draws = [_draw(cfg) for cfg in cfgs]
    mats = []
    for cfg, (A_s, A_a, W_s, W_z, B_mat), norms in zip(cfgs, draws, _map_norms(draws)):
        for norm, what in zip(norms, ("closed-loop norm", "latent gain norm", "feature map norm")):
            if norm < 1e-12:
                raise UnstableWorld(f"degenerate random draw: {what} ~ 0")
        n_closed, n_gain, n_b = norms
        scale = cfg.target_L_s / n_closed
        mats.append((A_s * scale, A_a, W_s * scale, W_z * (cfg.target_L_z / n_gain),
                     B_mat * (cfg.target_L_B / n_b)))
    worlds = []
    for cfg, (A_s, A_a, W_s, W_z, B_mat), (L_s, L_z, L_B) in zip(cfgs, mats, _map_norms(mats)):
        if abs(L_s - cfg.target_L_s) > 1e-6:
            raise UnstableWorld(f"rescaling missed target L_s: {L_s} vs {cfg.target_L_s}")
        worlds.append(SyntheticWorld(A_s=A_s, A_a=A_a, W_s=W_s, W_z=W_z, B_mat=B_mat,
                                     config=cfg, L_s=L_s, L_z=L_z, L_B=L_B))
    return worlds


def rollout(world: SyntheticWorld, s1, z_seq) -> np.ndarray:
    """Roll the world for len(z_seq) steps under the mean policy; returns
    [T_z + 1, state_dim] states."""
    return rollouts(world, (s1,), (z_seq,))[0]


def _padded(mats, shape) -> np.ndarray:
    """The matrices stacked and zero-padded to one [len(mats), *shape]."""
    out = np.zeros((len(mats), *shape))
    for o, m in zip(out, mats):
        o[:m.shape[0], :m.shape[1]] = m
    return out


def rollouts(worlds, s1s, z_seqs) -> list:
    """Roll sequence i from ``s1s[i]`` under ``z_seqs[i]`` in ``worlds[i]``,
    or in ``worlds`` itself when it is one world; returns each sequence's
    [T_i + 1, state_dim_i] states, in input order.

    Sequences are sorted longest first and packed time-major, so step t
    advances the first live[t] of them.  Each product is a stacked matmul over
    (d, 1) columns, which NumPy runs as one gemv per item like ``M @ v``, so in
    one world every sequence gets the bits of a rollout of its own.  Distinct
    worlds are stacked and zero-padded to the largest state, action and latent
    sizes; padded components stay exactly 0, and the states agree with
    per-world rollouts to rounding.
    """
    n_seq = len(z_seqs)
    if n_seq == 0 or len(s1s) != n_seq:
        raise CountMismatch(f"rollouts needs one initial state per latent sequence, "
                            f"got {len(s1s)} states and {n_seq} sequences")
    if isinstance(worlds, SyntheticWorld):
        worlds = (worlds,) * n_seq
    elif len(worlds) != n_seq:
        raise CountMismatch(f"rollouts needs one world per latent sequence, "
                            f"got {len(worlds)} worlds and {n_seq} sequences")
    zs = [np.asarray(z, dtype=float) for z in z_seqs]
    s1s = [np.asarray(s, dtype=float) for s in s1s]
    for w, s, z in zip(worlds, s1s, zs):
        if z.ndim != 2 or z.shape[1] != w.d_z:
            raise DimensionMismatch(f"latent sequence has shape {z.shape}")
        if s.shape != (w.state_dim,):
            raise DimensionMismatch(f"initial state has shape {s.shape}")
    order = sorted(range(n_seq), key=lambda i: len(zs[i]), reverse=True)
    lens = [len(zs[i]) for i in order]
    live = []  # live[t - 1]: how many sequences take step t
    for r, end in zip(range(n_seq, 0, -1), [0] + lens[:0:-1]):
        live += [r] * (lens[r - 1] - end)
    # one stack entry per sequence in step order; a single entry, which [:k]
    # keeps, broadcasts over a batch in one world
    ws = worlds[:1] if all(w is worlds[0] for w in worlds) else [worlds[i] for i in order]
    n, a = max(w.state_dim for w in ws), max(w.action_dim for w in ws)
    W_s = _padded([w.W_s for w in ws], (a, n))
    A_s = _padded([w.A_s for w in ws], (n, n))
    A_a = _padded([w.A_a for w in ws], (n, a))
    states = np.zeros((n_seq + sum(lens), n, 1))  # s1s, then step by step
    starts = np.fromiter(accumulate(live[:-1], initial=0), dtype=np.intp)  # first packed frame of each step
    wz = np.zeros((sum(lens), a, 1))
    for r, i in enumerate(order):
        states[r, :len(s1s[i]), 0] = s1s[i]
        wz[starts[:lens[r]] + r, :worlds[i].action_dim] = worlds[i].W_z @ zs[i][..., None]
    s, at = states[:n_seq], 0  # the previous step's states; its first packed frame
    for k in live:
        if k < len(s):
            s, W_s, A_s, A_a = s[:k], W_s[:k], A_s[:k], A_a[:k]
        act = W_s @ s
        act += wz[at:at + k]
        s = np.add(A_s @ s, A_a @ act, out=states[n_seq + at:n_seq + at + k])
        at += k
    if not np.isfinite(states).all():
        raise NonFiniteState("rollout diverged to non-finite states")
    rank = sorted(range(n_seq), key=order.__getitem__)
    rows = np.concatenate(([0], n_seq + starts))  # sequence r holds rows[:len + 1] + r
    flat = states[..., 0]  # contiguous, so take copies only the rows it gathers
    return [np.ascontiguousarray(flat.take(rows[:lens[r] + 1] + r, axis=0)[:, :worlds[i].state_dim])
            for i, r in enumerate(rank)]


@dataclass(frozen=True)
class ExtractionConfig:
    lookahead: int = 4
    norm_floor: float = 1e-8

    def __post_init__(self):
        if self.lookahead < 1:
            raise RangeError(f"lookahead must be >= 1, got {self.lookahead}")
        # the floor screens out near-zero features; one above 1 rejects ordinary ones
        if not 0.0 < self.norm_floor <= 1.0:
            raise RangeError(f"norm_floor = {self.norm_floor} outside (0, 1]")


def lookahead_averages(world: SyntheticWorld, cfg: ExtractionConfig, states,
                       lengths=None) -> np.ndarray:
    """Pre-projection latent features: windowed averages of B s.

    ``states`` packs sequences of ``lengths`` states (None: one sequence).  Row i
    of a sequence of T states averages B s over its states i+1 .. i+H, H = min(lookahead,
    T - 1 - i), so the final rows shrink their window; returns each one's T - 1 rows, packed.
    """
    s_arr = np.asarray(states, dtype=float)
    if s_arr.ndim != 2 or s_arr.shape[1] != world.state_dim:
        raise DimensionMismatch(f"states have shape {s_arr.shape}")
    lengths = np.array([len(s_arr)] if lengths is None else lengths, dtype=np.intp)
    if lengths.sum() != len(s_arr) or not lengths.size or lengths.min() < 2:
        raise ShapeMismatch(f"lengths {lengths.tolist()} do not split {len(s_arr)} states "
                            f"into sequences of at least two")
    feats = s_arr @ world.B_mat.T
    top = min(cfg.lookahead, len(feats) - 1)
    # avg[p]: the window after packed state p; those a sequence's end cuts short are gathered per span
    avg = np.empty_like(feats)
    avg[:len(feats) - top] = np.add.reduce(as_strided(
        feats[1:], (len(feats) - top, world.d_z, top), feats.strides + feats.strides[:1],
        writeable=False), axis=-1) / top
    last = np.cumsum(lengths) - 1  # each sequence's last packed state
    for span in range(1, min(top, lengths.max())):
        at = last[lengths > span] - span
        avg[at] = np.add.reduce(feats[at[:, None] + np.arange(1, span + 1)], axis=1) / span
    return np.delete(avg, last, axis=0)


def extract_latents(world: SyntheticWorld, cfg: ExtractionConfig, states, lengths=None):
    """Sphere-projected latent commands of the packed sequences' steps."""
    rows = None if lengths is None else np.asarray(lengths) - 1
    return project_rows(lookahead_averages(world, cfg, states, lengths), cfg.norm_floor, rows)


def action_kl(world: SyntheticWorld, states, z_ref, z_hat) -> float:
    """Mean per-step KL between the policies driven by z_hat and z_ref.

    Both policies are evaluated along the same reference states, and both are
    isotropic Gaussians with shared sigma_pi, so each step contributes
    ||mu_hat - mu_ref||^2 / (2 sigma^2).
    """
    z_a = np.asarray(z_ref, dtype=float)
    z_b = np.asarray(z_hat, dtype=float)
    if z_a.shape != z_b.shape:
        raise ShapeMismatch(f"latent shapes {z_a.shape} vs {z_b.shape}")
    if z_a.ndim != 2 or z_a.shape[1] != world.d_z:
        raise DimensionMismatch(f"latents have shape {z_a.shape}")
    s_arr = np.asarray(states, dtype=float)
    n_steps = z_a.shape[0]
    if s_arr.ndim != 2 or s_arr.shape[0] < n_steps:
        raise CountMismatch(
            f"need at least {n_steps} states, got {s_arr.shape}"
        )
    gap = (z_b - z_a) @ world.W_z.T  # the shared W_s s term cancels
    return float((gap * gap).sum()) / (2.0 * world.sigma_pi ** 2) / n_steps


# ---------------------------------------------------------------------------
# vocabulary and prompts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vocabulary:
    """Whitespace-token vocabulary with a fixed random embedding table.

    Embedding rows are unit-norm and fully determined by ``embed_seed``; the
    table is the only text representation in the pipeline.
    """

    words: tuple
    embeddings: np.ndarray
    separator_id: int

    def __post_init__(self):
        if len(self.words) != self.embeddings.shape[0]:
            raise CountMismatch("one embedding row per word required")
        if not (0 <= self.separator_id < len(self.words)):
            raise RangeError("separator_id outside vocabulary")
        norms = np.linalg.norm(self.embeddings, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise InvalidSpec("embedding rows must be unit-norm")

    def encode(self, text: str) -> tuple:
        ids = []
        index = {w: i for i, w in enumerate(self.words)}
        for word in text.split():
            if word not in index:
                raise UnknownToken(f"word {word!r} not in vocabulary")
            ids.append(index[word])
        if not ids:
            raise UnknownToken("empty prompt")
        return tuple(ids)


def make_vocabulary(behaviors, separator: str = "then", d_text: int = 32,
                    embed_seed: int = 1234) -> Vocabulary:
    behaviors = tuple(behaviors)
    if len(set(behaviors)) != len(behaviors):
        raise InvalidSpec("behavior names must be unique")
    if separator in behaviors:
        raise InvalidSpec("separator must not collide with a behavior name")
    words = behaviors + (separator,)
    rng = np.random.default_rng(embed_seed)
    table = rng.normal(size=(len(words), d_text))
    table /= np.linalg.norm(table, axis=1)[:, None]
    return Vocabulary(words=words, embeddings=table, separator_id=len(words) - 1)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for the synthetic behavior corpus."""

    n_samples: int = 500
    behaviors: tuple[str, ...] = (
        "walk", "run", "turn", "sit", "jump", "wave", "kick", "spin",
    )
    separator: str = "then"
    d_text: int = 32
    embed_seed: int = 1234
    dur_min: int = 12
    dur_max: int = 28
    stage_probs: tuple[float, ...] = (0.5, 0.25, 0.25)
    script_noise: float = 0.25
    init_state_scale: float = 0.5

    def __post_init__(self):
        if self.n_samples < 1:
            raise InvalidSpec("n_samples must be >= 1")
        if len(self.behaviors) < 1:
            raise InvalidSpec("need at least one behavior")
        if len(set(self.behaviors)) != len(self.behaviors):
            raise InvalidSpec("behavior names must be unique")
        if self.separator in self.behaviors:
            raise InvalidSpec("separator collides with a behavior name")
        if self.d_text < 1 or self.embed_seed < 0:
            raise InvalidSpec("need d_text >= 1 and embed_seed >= 0")
        if not (2 <= self.dur_min <= self.dur_max):
            raise InvalidSpec("need 2 <= dur_min <= dur_max")
        check_sizes(self, "n_samples", "dur_max", limit=MAX_COUNT)
        check_sizes(self, "d_text")
        probs = np.asarray(self.stage_probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1 or np.any(probs < 0) or not np.isclose(probs.sum(), 1.0):
            raise InvalidSpec("stage_probs must be a probability vector")
        if len(self.behaviors) == 1 and np.any(probs[1:] > 0):
            raise InvalidSpec("one behavior cannot fill two stages without a repeat; "
                              "stage_probs must put all weight on one stage")
        check_sizes(self, "script_noise", "init_state_scale", limit=MAX_SCALE, low=0)


@dataclass(frozen=True)
class Sample:
    """One corpus entry: prompt token ids, rolled states, extracted latents."""

    token_ids: tuple[int, ...] = field(metadata={"key": "prompt_tokens"})
    states: F8Matrix
    latents: F8Matrix

    def __post_init__(self):
        if self.states.ndim != 2 or self.latents.ndim != 2:
            raise ShapeMismatch(f"states {self.states.shape} and latents "
                                f"{self.latents.shape} must be matrices")
        if self.states.shape[0] != self.latents.shape[0] + 1:
            raise CountMismatch(
                f"{self.states.shape[0]} states vs {self.latents.shape[0]} latents"
            )


def prototype_directions(n_behaviors: int, d_z: int, seed: int) -> np.ndarray:
    """Unit latent directions, one per behavior.

    When the latent space has room, directions are orthonormal columns of a
    random rotation, which keeps behaviors maximally separated; otherwise
    plain random unit vectors.
    """
    rng = np.random.default_rng(seed)
    if n_behaviors <= d_z:
        q, _ = np.linalg.qr(rng.normal(size=(d_z, d_z)))
        return q[:, :n_behaviors].T.copy()
    dirs = rng.normal(size=(n_behaviors, d_z))
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


def draw_sample(spec: DatasetSpec, state_dim: int, d_z: int, seed_seq):
    """One sample's behavior ids, stage durations, script noise [sum of
    durations, d_z] and initial state, drawn from the sample's own rng."""
    rng = np.random.default_rng(seed_seq)
    n_stages = int(rng.choice(len(spec.stage_probs), p=np.asarray(spec.stage_probs))) + 1
    n_beh = len(spec.behaviors)
    ids = [int(rng.integers(n_beh))]
    for _ in range(n_stages - 1):
        nxt = int(rng.integers(n_beh - 1))
        ids.append(nxt + (nxt >= ids[-1]))  # no immediate repeats
    durations = rng.integers(spec.dur_min, spec.dur_max + 1, size=n_stages)
    noise = rng.normal(size=(int(durations.sum()), d_z))
    s1 = spec.init_state_scale * rng.normal(size=state_dim)
    return ids, durations, noise, s1


def generate_sample(vocab: Vocabulary, ids, states, latents) -> Sample:
    """The corpus entry of a rolled-out script: its prompt, the behavior ids
    with the separator between them, its states and its latents."""
    tokens = [vocab.separator_id] * (2 * len(ids) - 1)
    tokens[::2] = ids
    return Sample(token_ids=tuple(tokens), states=states, latents=latents)


def generate_dataset(world: SyntheticWorld, extraction: ExtractionConfig,
                     spec: DatasetSpec, vocab: Vocabulary, seed: int):
    """Deterministic corpus from per-sample RNGs spawned from the master seed.  Each script,
    a noisy sphere-projected prototype per stage frame, is projected, rolled out and
    extracted in one pass over every sample, with the bits of a sample drawn alone."""
    protos = prototype_directions(len(spec.behaviors), world.d_z, spec.embed_seed)
    ids, durations, noises, s1s = zip(*(draw_sample(spec, world.state_dim, world.d_z, sq)
                                        for sq in np.random.SeedSequence(seed).spawn(spec.n_samples)))
    lengths = [len(n) for n in noises]
    stages = np.repeat(protos[np.concatenate(ids)], np.concatenate(durations), axis=0)
    scripts = project_rows(stages + spec.script_noise * np.concatenate(noises), lengths=lengths)
    cuts = np.cumsum(lengths)[:-1]
    states = rollouts(world, s1s, np.split(scripts, cuts))
    latents = extract_latents(world, extraction, np.concatenate(states), [n + 1 for n in lengths])
    return [generate_sample(vocab, b, s, z) for b, s, z in zip(ids, states, np.split(latents, cuts))]


# ---------------------------------------------------------------------------
# dataset serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusRecipe:
    """The ``spec`` of a dataset document: what the corpus was drawn from."""

    world: WorldConfig
    extraction: ExtractionConfig
    dataset: DatasetSpec


@dataclass(frozen=True)
class DatasetDocument:
    spec: CorpusRecipe
    seed: int
    samples: tuple[Sample, ...]


def dataset_to_dict(world: SyntheticWorld, extraction: ExtractionConfig,
                    spec: DatasetSpec, seed: int, samples) -> dict:
    recipe = CorpusRecipe(world=world.config, extraction=extraction, dataset=spec)
    return to_doc(DatasetDocument(spec=recipe, seed=seed, samples=tuple(samples)))


def dataset_from_dict(doc: dict):
    """Rebuild (world, extraction, spec, vocab, seed, samples) from a dataset doc.

    The document must be complete.  A missing or unknown key, a value of the
    wrong type, or a sample that does not fit the world and vocabulary is
    rejected with InvalidSpec.
    """
    data = from_doc(DatasetDocument, doc, "")
    spec = data.spec.dataset
    world = make_world(**asdict(data.spec.world))
    vocab = make_vocabulary(spec.behaviors, spec.separator, spec.d_text, spec.embed_seed)
    sep = vocab.separator_id
    for i, s in enumerate(data.samples):
        if s.latents.shape[0] < 1 or s.latents.shape[1] != world.d_z \
                or s.states.shape[1] != world.state_dim:
            raise InvalidSpec(
                f"samples[{i}] holds states {s.states.shape} and latents "
                f"{s.latents.shape}, want [T+1, {world.state_dim}] and [T, {world.d_z}]")
        # behavior ids at even positions, the separator between them
        if len(s.token_ids) % 2 == 0 or any(
                not 0 <= t <= sep or (t == sep) != (k % 2 == 1)
                for k, t in enumerate(s.token_ids)):
            raise InvalidSpec(f"samples[{i}].prompt_tokens {list(s.token_ids)} "
                              f"is not a prompt over this vocabulary")
    return world, data.spec.extraction, spec, vocab, data.seed, list(data.samples)
