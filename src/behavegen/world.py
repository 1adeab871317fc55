"""Synthetic control world and latent extraction.

The world is a linear stand-in for a frozen behavior engine: a latent command
z steers a linear policy whose actions drive linear dynamics.  Everything is
chosen so the Lipschitz constants that the rollout-error bound needs are exact
operator norms of small matrices, computable to tight tolerance.

Latent commands are extracted from state trajectories by averaging a linear
feature of the next ``lookahead`` states and projecting the average onto the
sqrt(d_z) sphere, so nearby timesteps receive similar commands and a
trajectory's commands vary smoothly in time.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    CountMismatch,
    DimensionMismatch,
    InvalidSpec,
    NonFiniteState,
    RangeError,
    ShapeMismatch,
    UnknownToken,
    UnstableWorld,
)
from .geometry import project_rows

OPNORM_REL_TOL = 1e-10
OPNORM_MAX_ITER = 1000


def operator_norm(mat, rel_tol: float = OPNORM_REL_TOL, max_iter: int = OPNORM_MAX_ITER) -> float:
    """Largest singular value by power iteration on M^T M.

    Deterministic: the starting vector is fixed by the matrix shape.  Stops
    when the Rayleigh estimate is stable to ``rel_tol`` or after ``max_iter``
    rounds, whichever is first.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2:
        raise ShapeMismatch(f"operator norm needs a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteState("matrix contains non-finite entries")
    if m.size == 0:
        return 0.0
    gram = m.T @ m
    rng = np.random.default_rng(np.int64(m.shape[0] * 1000003 + m.shape[1]))
    v = rng.normal(size=m.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        w = gram @ v
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        new_sigma = float(np.sqrt(norm_w))
        if abs(new_sigma - sigma) <= rel_tol * max(new_sigma, 1e-300):
            return new_sigma
        sigma = new_sigma
    return sigma


@dataclass(frozen=True)
class SyntheticWorld:
    """Linear dynamics s' = A_s s + A_a a with policy mean W_s s + W_z z.

    ``B_mat`` maps states to the latent feature space used by extraction.
    The Lipschitz properties are recomputed from the matrices on access so
    they can never go stale.
    """

    A_s: np.ndarray
    A_a: np.ndarray
    W_s: np.ndarray
    W_z: np.ndarray
    B_mat: np.ndarray
    sigma_pi: float = 0.1
    seed: int = 0

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
        if self.sigma_pi <= 0:
            raise RangeError(f"sigma_pi must be positive, got {self.sigma_pi}")

    @property
    def state_dim(self) -> int:
        return self.A_s.shape[0]

    @property
    def action_dim(self) -> int:
        return self.A_a.shape[1]

    @property
    def d_z(self) -> int:
        return self.B_mat.shape[0]

    @property
    def closed_loop_state(self) -> np.ndarray:
        """State-to-state map of the mean dynamics: A_s + A_a W_s."""
        return self.A_s + self.A_a @ self.W_s

    @property
    def latent_gain(self) -> np.ndarray:
        """Latent-to-state map of the mean dynamics: A_a W_z."""
        return self.A_a @ self.W_z

    @property
    def L_s(self) -> float:
        return operator_norm(self.closed_loop_state)

    @property
    def L_z(self) -> float:
        return operator_norm(self.latent_gain)

    @property
    def L_B(self) -> float:
        return operator_norm(self.B_mat)

    def to_config(self) -> dict:
        return {
            "state_dim": self.state_dim,
            "action_dim": self.action_dim,
            "d_z": self.d_z,
            "target_L_s": self.L_s,
            "target_L_z": self.L_z,
            "target_L_B": self.L_B,
            "sigma_pi": self.sigma_pi,
            "seed": self.seed,
        }


def make_world(
    state_dim: int,
    action_dim: int,
    d_z: int,
    target_L_s: float = 0.9,
    target_L_z: float = 1.0,
    target_L_B: float = 1.0,
    sigma_pi: float = 0.1,
    seed: int = 0,
) -> SyntheticWorld:
    """Draw random matrices and rescale them to hit the requested norms.

    The closed-loop state map is scaled to ``target_L_s`` (must be < 1 so the
    mean dynamics contract), the latent gain to ``target_L_z`` and the feature
    map to ``target_L_B``.
    """
    if not (0.0 < target_L_s < 1.0):
        raise RangeError(f"target_L_s must lie in (0, 1), got {target_L_s}")
    if target_L_z <= 0 or target_L_B <= 0:
        raise RangeError("target_L_z and target_L_B must be positive")
    rng = np.random.default_rng(seed)
    A_s = rng.normal(size=(state_dim, state_dim)) / np.sqrt(state_dim)
    A_a = rng.normal(size=(state_dim, action_dim)) / np.sqrt(action_dim)
    W_s = rng.normal(size=(action_dim, state_dim)) / np.sqrt(state_dim)
    W_z = rng.normal(size=(action_dim, d_z)) / np.sqrt(d_z)
    B_mat = rng.normal(size=(d_z, state_dim)) / np.sqrt(state_dim)

    closed = A_s + A_a @ W_s
    norm_closed = operator_norm(closed)
    if norm_closed < 1e-12:
        raise UnstableWorld("degenerate random draw: closed-loop norm ~ 0")
    scale = target_L_s / norm_closed
    A_s = A_s * scale
    W_s = W_s * scale

    gain = A_a @ W_z
    norm_gain = operator_norm(gain)
    if norm_gain < 1e-12:
        raise UnstableWorld("degenerate random draw: latent gain norm ~ 0")
    W_z = W_z * (target_L_z / norm_gain)

    norm_b = operator_norm(B_mat)
    if norm_b < 1e-12:
        raise UnstableWorld("degenerate random draw: feature map norm ~ 0")
    B_mat = B_mat * (target_L_B / norm_b)

    world = SyntheticWorld(
        A_s=A_s, A_a=A_a, W_s=W_s, W_z=W_z, B_mat=B_mat,
        sigma_pi=sigma_pi, seed=seed,
    )
    if abs(world.L_s - target_L_s) > 1e-6:
        raise UnstableWorld(
            f"rescaling missed target L_s: {world.L_s} vs {target_L_s}"
        )
    return world


def world_from_config(cfg: dict) -> SyntheticWorld:
    return make_world(
        state_dim=int(cfg["state_dim"]),
        action_dim=int(cfg["action_dim"]),
        d_z=int(cfg["d_z"]),
        target_L_s=float(cfg["target_L_s"]),
        target_L_z=float(cfg["target_L_z"]),
        target_L_B=float(cfg["target_L_B"]),
        sigma_pi=float(cfg["sigma_pi"]),
        seed=int(cfg["seed"]),
    )


def policy_mean(world: SyntheticWorld, s, z) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    z = np.asarray(z, dtype=float)
    if s.shape != (world.state_dim,):
        raise DimensionMismatch(f"state has shape {s.shape}, want ({world.state_dim},)")
    if z.shape != (world.d_z,):
        raise DimensionMismatch(f"latent has shape {z.shape}, want ({world.d_z},)")
    return world.W_s @ s + world.W_z @ z


def step(world: SyntheticWorld, s, z) -> np.ndarray:
    """One step of the deterministic mean dynamics."""
    return world.A_s @ np.asarray(s, dtype=float) + world.A_a @ policy_mean(world, s, z)


def rollout(world: SyntheticWorld, s1, z_seq, stochastic: bool = False, rng=None) -> np.ndarray:
    """Roll the world for len(z_seq) steps; returns [T_z + 1, state_dim] states.

    The default follows the mean policy exactly.  With ``stochastic=True``
    actions get N(0, sigma_pi^2 I) noise drawn from ``rng``.
    """
    z_arr = np.asarray(z_seq, dtype=float)
    if z_arr.ndim != 2 or z_arr.shape[1] != world.d_z:
        raise DimensionMismatch(f"latent sequence has shape {z_arr.shape}")
    s = np.asarray(s1, dtype=float)
    if s.shape != (world.state_dim,):
        raise DimensionMismatch(f"initial state has shape {s.shape}")
    if stochastic and rng is None:
        raise RangeError("stochastic rollout needs an explicit rng")
    states = np.empty((z_arr.shape[0] + 1, world.state_dim))
    states[0] = s
    for t in range(z_arr.shape[0]):
        act = policy_mean(world, states[t], z_arr[t])
        if stochastic:
            act = act + world.sigma_pi * rng.standard_normal(world.action_dim)
        states[t + 1] = world.A_s @ states[t] + world.A_a @ act
    if not np.all(np.isfinite(states)):
        raise NonFiniteState("rollout diverged to non-finite states")
    return states


@dataclass(frozen=True)
class ExtractionConfig:
    lookahead: int = 4
    norm_floor: float = 1e-8

    def __post_init__(self):
        if int(self.lookahead) != self.lookahead or self.lookahead < 1:
            raise RangeError(f"lookahead must be an integer >= 1, got {self.lookahead}")
        object.__setattr__(self, "lookahead", int(self.lookahead))

    def to_dict(self) -> dict:
        return {"lookahead": self.lookahead, "norm_floor": self.norm_floor}


def lookahead_averages(world: SyntheticWorld, cfg: ExtractionConfig, states) -> np.ndarray:
    """Pre-projection latent features: windowed averages of B s.

    Row i (0-based) averages B s over states i+1 .. i+H with
    H = min(lookahead, T - 1 - i); the final rows shrink their window so every
    step gets a feature.  Returns [T - 1, d_z].
    """
    s_arr = np.asarray(states, dtype=float)
    if s_arr.ndim != 2 or s_arr.shape[1] != world.state_dim:
        raise DimensionMismatch(f"states have shape {s_arr.shape}")
    n_states = s_arr.shape[0]
    if n_states < 2:
        raise ShapeMismatch("need at least two states to extract a latent")
    feats = s_arr @ world.B_mat.T
    out = np.empty((n_states - 1, world.d_z))
    span = cfg.lookahead
    for i in range(n_states - 1):
        h = min(span, n_states - 1 - i)
        out[i] = feats[i + 1:i + 1 + h].mean(axis=0)
    return out


def extract_latents(world: SyntheticWorld, cfg: ExtractionConfig, states) -> np.ndarray:
    """Sphere-projected latent commands for each step of a state trajectory."""
    return project_rows(lookahead_averages(world, cfg, states), cfg.norm_floor)


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
    total = 0.0
    var = world.sigma_pi ** 2
    for t in range(n_steps):
        mu_ref = policy_mean(world, s_arr[t], z_a[t])
        mu_hat = policy_mean(world, s_arr[t], z_b[t])
        diff = mu_hat - mu_ref
        total += float(diff @ diff) / (2.0 * var)
    return total / n_steps


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

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def d_text(self) -> int:
        return self.embeddings.shape[1]

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

    def decode(self, ids) -> str:
        return " ".join(self.words[i] for i in ids)


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


@dataclass(frozen=True)
class TextPrompt:
    """Token ids plus their embedding rows."""

    token_ids: tuple
    embeddings: np.ndarray

    def __post_init__(self):
        if len(self.token_ids) != self.embeddings.shape[0]:
            raise CountMismatch("token count and embedding rows disagree")
        if len(self.token_ids) == 0:
            raise InvalidSpec("prompt must contain at least one token")


def prompt_from_ids(vocab: Vocabulary, token_ids) -> TextPrompt:
    ids = tuple(int(i) for i in token_ids)
    for i in ids:
        if not (0 <= i < vocab.size):
            raise UnknownToken(f"token id {i} outside vocabulary of size {vocab.size}")
    return TextPrompt(token_ids=ids, embeddings=vocab.embeddings[list(ids)].copy())


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for the synthetic behavior corpus."""

    n_samples: int = 500
    behaviors: tuple = (
        "walk", "run", "turn", "sit", "jump", "wave", "kick", "spin",
    )
    separator: str = "then"
    d_text: int = 32
    embed_seed: int = 1234
    dur_min: int = 12
    dur_max: int = 28
    stage_probs: tuple = (0.5, 0.25, 0.25)
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
        if not (2 <= self.dur_min <= self.dur_max):
            raise InvalidSpec("need 2 <= dur_min <= dur_max")
        probs = np.asarray(self.stage_probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1 or np.any(probs < 0) or not np.isclose(probs.sum(), 1.0):
            raise InvalidSpec("stage_probs must be a probability vector")
        if self.script_noise < 0:
            raise InvalidSpec("script_noise must be >= 0")

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "behaviors": list(self.behaviors),
            "separator": self.separator,
            "d_text": self.d_text,
            "embed_seed": self.embed_seed,
            "dur_min": self.dur_min,
            "dur_max": self.dur_max,
            "stage_probs": list(self.stage_probs),
            "script_noise": self.script_noise,
            "init_state_scale": self.init_state_scale,
        }

    @staticmethod
    def from_dict(d: dict) -> "DatasetSpec":
        return DatasetSpec(
            n_samples=int(d["n_samples"]),
            behaviors=tuple(d["behaviors"]),
            separator=str(d["separator"]),
            d_text=int(d["d_text"]),
            embed_seed=int(d["embed_seed"]),
            dur_min=int(d["dur_min"]),
            dur_max=int(d["dur_max"]),
            stage_probs=tuple(float(p) for p in d["stage_probs"]),
            script_noise=float(d["script_noise"]),
            init_state_scale=float(d["init_state_scale"]),
        )


@dataclass(frozen=True)
class Sample:
    """One corpus entry: prompt token ids, rolled states, extracted latents."""

    token_ids: tuple
    states: np.ndarray
    latents: np.ndarray

    def __post_init__(self):
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


def sample_seeds(master_seed: int, count: int):
    """Deterministic per-item seed sequences spawned from one master seed."""
    return np.random.SeedSequence(master_seed).spawn(count)


def build_script(spec: DatasetSpec, protos: np.ndarray, behavior_ids, durations, rng) -> np.ndarray:
    """Latent command script: noisy sphere-projected prototype per stage frame."""
    rows = []
    for b, dur in zip(behavior_ids, durations):
        base = protos[b]
        noise = spec.script_noise * rng.normal(size=(int(dur), base.size))
        rows.append(base[None, :] + noise)
    return project_rows(np.vstack(rows))


def generate_sample(world: SyntheticWorld, extraction: ExtractionConfig,
                    spec: DatasetSpec, vocab: Vocabulary, protos: np.ndarray,
                    seed_seq) -> Sample:
    rng = np.random.default_rng(seed_seq)
    n_stages = int(rng.choice(len(spec.stage_probs), p=np.asarray(spec.stage_probs))) + 1
    n_beh = len(spec.behaviors)
    ids = [int(rng.integers(n_beh))]
    for _ in range(n_stages - 1):
        nxt = int(rng.integers(n_beh - 1))
        if nxt >= ids[-1]:
            nxt += 1  # no immediate repeats
        ids.append(nxt)
    durations = rng.integers(spec.dur_min, spec.dur_max + 1, size=n_stages)
    script = build_script(spec, protos, ids, durations, rng)
    s1 = spec.init_state_scale * rng.normal(size=world.state_dim)
    states = rollout(world, s1, script)
    latents = extract_latents(world, extraction, states)

    tokens = []
    for k, b in enumerate(ids):
        if k > 0:
            tokens.append(vocab.separator_id)
        tokens.append(b)
    return Sample(token_ids=tuple(tokens), states=states, latents=latents)


def generate_dataset(world: SyntheticWorld, extraction: ExtractionConfig,
                     spec: DatasetSpec, vocab: Vocabulary, seed: int,
                     workers: int = 1):
    """Deterministic corpus: per-sample RNGs are spawned from the master seed,
    so the result is identical regardless of ``workers``."""
    protos = prototype_directions(len(spec.behaviors), world.d_z, spec.embed_seed)
    seqs = sample_seeds(seed, spec.n_samples)
    if workers <= 1:
        return [
            generate_sample(world, extraction, spec, vocab, protos, sq)
            for sq in seqs
        ]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(
            lambda sq: generate_sample(world, extraction, spec, vocab, protos, sq),
            seqs,
        ))


# ---------------------------------------------------------------------------
# dataset serialization
# ---------------------------------------------------------------------------

def dataset_to_dict(world: SyntheticWorld, extraction: ExtractionConfig,
                    spec: DatasetSpec, seed: int, samples) -> dict:
    return {
        "spec": {
            "world": world.to_config(),
            "extraction": extraction.to_dict(),
            "dataset": spec.to_dict(),
        },
        "seed": seed,
        "samples": [
            {
                "prompt_tokens": list(s.token_ids),
                "states": s.states,
                "latents": s.latents,
            }
            for s in samples
        ],
    }


_WORLD_KEYS = ("state_dim", "action_dim", "d_z", "target_L_s", "target_L_z",
               "target_L_B", "sigma_pi", "seed")


def _require(doc, keys, where: str) -> dict:
    """``doc`` if it is a JSON object holding every key, else InvalidSpec."""
    if not isinstance(doc, dict):
        raise InvalidSpec(f"dataset {where} is not a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise InvalidSpec(f"dataset {where} lacks {', '.join(missing)}")
    return doc


def dataset_from_dict(doc: dict):
    """Rebuild (world, extraction, spec, vocab, seed, samples) from a dataset doc.

    A document that lacks a key the rebuild needs, or holds a value of the
    wrong type or shape, is rejected with InvalidSpec.
    """
    _require(doc, ("spec", "seed", "samples"), "document")
    spec_doc = _require(doc["spec"], ("world", "extraction", "dataset"), "spec")
    world_doc = _require(spec_doc["world"], _WORLD_KEYS, "spec.world")
    ext_doc = _require(spec_doc["extraction"], ("lookahead", "norm_floor"), "spec.extraction")
    spec_keys = [f.name for f in fields(DatasetSpec)]
    spec = DatasetSpec.from_dict(_require(spec_doc["dataset"], spec_keys, "spec.dataset"))
    if not isinstance(doc["samples"], list):
        raise InvalidSpec("dataset samples is not a list")
    sample_docs = [_require(s, ("prompt_tokens", "states", "latents"), f"samples[{i}]")
                   for i, s in enumerate(doc["samples"])]

    try:
        world = world_from_config(world_doc)
        extraction = ExtractionConfig(
            lookahead=int(ext_doc["lookahead"]),
            norm_floor=float(ext_doc["norm_floor"]),
        )
        samples = [
            Sample(
                token_ids=tuple(int(t) for t in s["prompt_tokens"]),
                states=np.asarray(s["states"], dtype=float),
                latents=np.asarray(s["latents"], dtype=float),
            )
            for s in sample_docs
        ]
        seed = int(doc["seed"])
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"dataset holds a malformed value: {exc}") from exc
    vocab = make_vocabulary(spec.behaviors, spec.separator, spec.d_text, spec.embed_seed)
    return world, extraction, spec, vocab, seed, samples
