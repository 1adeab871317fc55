"""Evaluation metrics for generated behavior, and the studies that run the
models to report them.

Everything here is deterministic given its inputs: segment order accuracy
against the prompt, junction smoothness of rollouts, prompt-to-program
retrieval, sample diversity, an exact paired sign test used to compare
generation strategies, latent reconstruction, prototype references, the
generation study and the compression sweep.
"""

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .bottleneck import (
    BottleneckModel,
    align_rows,
    decode_packed,
    embed_program,
    embed_text,
    encode,
    encode_packed,
    similarity_matrix,
    train_bottleneck,
)
from .composition import stage_slices
from .errors import (
    BoundaryOutOfRange,
    ConfigInvalid,
    CountMismatch,
    RangeError,
    ShapeMismatch,
    TooFewSamples,
)
from .flow import euler_sample
from .world import action_kl


def embed_latent_segment(bottleneck, z_segment) -> np.ndarray:
    """Shared-space embedding of a latent span: posterior mean, then the
    program head's pooled projection."""
    post = encode(bottleneck, z_segment)
    return embed_program(bottleneck, post.mu)


def classify_segments(seg_embs, cand_embs):
    """Nearest candidate (cosine argmax) per segment embedding; similarity
    ties resolve to the lower candidate index."""
    s = np.asarray(seg_embs, dtype=float)
    c = np.asarray(cand_embs, dtype=float)
    if s.ndim != 2 or c.ndim != 2 or s.shape[1] != c.shape[1]:
        raise ShapeMismatch(f"segments {s.shape} vs candidates {c.shape}")
    if c.shape[0] < 1:
        raise CountMismatch("need at least one candidate")
    sims = s @ c.T
    return tuple(int(np.argmax(row)) for row in sims)  # first maximum wins


def order_accuracy(bottleneck, vocab, latents, boundaries, behavior_ids) -> float:
    """1.0 iff every stage's nearest behavior word matches the prompt order.

    Each stage span is embedded and classified against the candidate behavior
    words (the distinct ids in ``behavior_ids``).  The whole sequence must be
    right: independent uniform guessing among N behaviors over N stages is
    correct with probability (1/N)^N.
    """
    expected = [int(b) for b in behavior_ids]
    if len(expected) == 0:
        raise CountMismatch("no expected behaviors given")
    spans = stage_slices(np.asarray(latents).shape[0], boundaries)
    if len(spans) != len(expected):
        raise CountMismatch(
            f"{len(spans)} stages but {len(expected)} expected behaviors"
        )
    candidates = []
    for b in expected:
        if b not in candidates:
            candidates.append(b)
    cand_embs = np.stack([
        embed_text(bottleneck, vocab.embeddings[c][None, :]) for c in candidates
    ])
    seg_embs = np.stack([
        embed_latent_segment(bottleneck, np.asarray(latents)[span])
        for span in spans
    ])
    picked = classify_segments(seg_embs, cand_embs)
    got = [candidates[p] for p in picked]
    return 1.0 if got == expected else 0.0


def transition_score(states, boundaries) -> float:
    """Mean junction discontinuity of a rollout: position jump plus velocity
    jump at each stage boundary, with v_t = s_t - s_{t-1}."""
    s = np.asarray(states, dtype=float)
    if s.ndim != 2:
        raise ShapeMismatch(f"states have shape {s.shape}, want [T, d]")
    bounds = [int(b) for b in boundaries]
    if len(bounds) == 0:
        raise CountMismatch("no junctions to score")
    total = 0.0
    for b in bounds:
        if not (1 <= b <= s.shape[0] - 2):
            raise BoundaryOutOfRange(
                f"boundary {b} outside [1, {s.shape[0] - 2}]"
            )
        v_b = s[b] - s[b - 1]
        v_b1 = s[b + 1] - s[b]
        total += float(np.linalg.norm(s[b + 1] - s[b])
                       + np.linalg.norm(v_b1 - v_b))
    return total / len(bounds)


def retrieval_accuracy(sims, k: int = 1) -> float:
    """Fraction of programs whose paired prompt ranks in the top k.

    ``sims[i, j]`` scores program i against prompt j, and pairs share an
    index.  Ranking sorts by similarity with ties broken toward the lower
    prompt index, so degenerate all-equal similarities score 1/B at k=1
    rather than rewarding the tie.
    """
    s = np.asarray(sims, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeMismatch(f"similarities {s.shape} are not a square matrix")
    if s.shape[0] < 1:
        raise TooFewSamples("retrieval needs at least one pair")
    if not (1 <= k <= s.shape[0]):
        raise RangeError(f"k = {k} outside [1, {s.shape[0]}]")
    order = np.argsort(-s, axis=1, kind="stable")  # ties keep index order
    hits = int((order[:, :k] == np.arange(s.shape[0])[:, None]).sum())
    return hits / s.shape[0]


def diversity(embs) -> float:
    """Mean pairwise Euclidean distance between rows."""
    x = np.asarray(embs, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise TooFewSamples("diversity needs at least two rows")
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        total += float(np.linalg.norm(x[i + 1:] - x[i], axis=1).sum())
    return total / (n * (n - 1) / 2)


def prototype_match_rate(mean_latents, expected_ids, prototypes) -> float:
    """Fraction of trajectories whose mean latent direction lands on the
    expected behavior prototype (cosine argmax, first maximum on ties)."""
    m = np.asarray(mean_latents, dtype=float)
    protos = np.asarray(prototypes, dtype=float)
    ids = [int(i) for i in expected_ids]
    if m.ndim != 2 or m.shape[1] != protos.shape[1]:
        raise ShapeMismatch(f"latents {m.shape} vs prototypes {protos.shape}")
    if m.shape[0] != len(ids):
        raise CountMismatch(f"{m.shape[0]} trajectories, {len(ids)} labels")
    if m.shape[0] == 0:
        raise TooFewSamples("no trajectories to match")
    norms = np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
    picked = classify_segments(m / norms, protos / np.linalg.norm(protos, axis=1, keepdims=True))
    return float(np.mean(np.asarray(picked) == np.asarray(ids)))


def sign_test_p(wins: int, losses: int) -> float:
    """One-sided exact sign test: probability of >= ``wins`` successes in
    wins + losses fair coin flips.  Ties must be dropped by the caller."""
    if wins < 0 or losses < 0:
        raise RangeError("cannot have negative counts")
    n = wins + losses
    if n == 0:
        raise TooFewSamples("sign test needs at least one untied pair")
    tail = sum(comb(n, i) for i in range(wins, n + 1))
    return tail / 2.0 ** n


def paired_sign_test(a, b) -> dict:
    """Compare paired scores where larger a[i] counts as a win for ``a``.

    Returns the win/loss/tie split and the one-sided p-value for the null
    that wins and losses are equally likely.
    """
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.shape != xb.shape or xa.ndim != 1:
        raise ShapeMismatch(f"paired scores {xa.shape} vs {xb.shape}")
    wins = int(np.sum(xa > xb))
    losses = int(np.sum(xa < xb))
    ties = int(xa.size - wins - losses)
    return {
        "wins": wins,
        "losses": losses,
        "ties": ties,
        "p_value": sign_test_p(wins, losses),
    }


@dataclass(frozen=True)
class EvalReport:
    """Summary emitted by the evaluation command."""

    n_samples: int
    recon_mse: float
    baseline_mse: float
    retrieval_top1: float
    retrieval_top5: float
    prototype_match: float
    diversity: float


def _reconstructions(model: BottleneckModel, samples) -> list:
    """Each sample decoded from its posterior mean, trimmed to its frames."""
    post, starts = encode_packed(model, [s.latents for s in samples])
    decoded = decode_packed(model, np.split(post.mu, starts[1:]))
    return [z[:s.latents.shape[0]] for z, s in zip(decoded, samples)]


def reconstruction_mse(model: BottleneckModel, samples) -> tuple:
    """Mean squared latent reconstruction error through the posterior mean,
    over all frames and per sample."""
    errs = [(z - s.latents) ** 2 for z, s in zip(_reconstructions(model, samples), samples)]
    pooled = sum(float(e.sum()) for e in errs) / sum(e.size for e in errs)
    return pooled, [float(e.mean()) for e in errs]


def distinct_prompt_subset(samples, limit: int):
    """First ``limit`` samples with pairwise-distinct prompt multisets.

    Mean-pooled text embeddings cannot tell apart two orderings of the same
    words, so retrieval is scored over prompts that differ as bags of tokens.
    """
    first = {}  # prompt bag -> its first sample, in the order first seen
    for s in samples:
        if len(first) == limit:
            break
        first.setdefault(tuple(sorted(s.token_ids)), s)
    if len(first) < limit:
        raise TooFewSamples(f"only {len(first)} distinct prompts available, need {limit}")
    return list(first.values())


def retrieval_scores(model: BottleneckModel, vocab, samples) -> np.ndarray:
    """Pairwise program-text scores in the learned joint space.

    Uses the same token-soft-max / frame-soft-max pooled similarity the
    alignment objective trains, with posterior means as the program side.
    """
    post, starts = encode_packed(model, [s.latents for s in samples])
    progs = np.split(align_rows(model.P_m, post.mu), starts[1:])
    tokens = vocab.embeddings[[t for s in samples for t in s.token_ids]]
    texts = np.split(align_rows(model.P_y, tokens),
                     np.cumsum([len(s.token_ids) for s in samples])[:-1])
    return similarity_matrix(progs, texts, model.cfg.lambda_tok,
                             model.cfg.lambda_frm)


def training_prototypes(samples, n_behaviors: int, d_z: int):
    """Per-behavior reference directions: the normalised mean latent over each
    behavior's single-stage training samples.

    Returns the ids of the behaviors that have such a sample, in order, and
    their prototypes.  A behavior without one drops out of the match; fewer
    than two left leaves nothing to tell apart.
    """
    sums = np.zeros((n_behaviors, d_z))
    counts = np.zeros(n_behaviors, dtype=int)
    for s in samples:
        if len(s.token_ids) == 1:
            b = s.token_ids[0]
            sums[b] += s.latents.mean(axis=0)
            counts[b] += 1
    ids = np.flatnonzero(counts)
    if ids.size < 2:
        raise TooFewSamples(f"single-stage training samples cover behaviors "
                            f"{ids.tolist()}, need at least two")
    sums = sums[ids]
    norms = np.linalg.norm(sums, axis=1, keepdims=True)
    if (norms < 1e-12).any():
        raise TooFewSamples("a behavior's mean latent collapsed to zero")
    return ids.tolist(), sums / norms


def generation_study(flow, bottleneck, vocab, sampler, t_m: int, seed: int,
                     behavior_ids, protos: np.ndarray):
    """Generate each single-behavior prompt in ``behavior_ids`` 16 times and
    score how often the decoded latents' nearest prototype among ``protos``
    (one per id) is the prompted one, plus the spread of the generations in
    the joint embedding space.

    Behavior ``b`` is word ``b`` of ``vocab``, whose words start with the
    behaviors.  All 16 noises of every behavior come from one draw.
    """
    n = 16 * len(behavior_ids)
    y_vecs = [embed_text(bottleneck, vocab.embeddings[[b]]) for b in behavior_ids]
    noise = np.random.default_rng(seed).standard_normal((n * t_m, bottleneck.cfg.d_m))
    programs = euler_sample(flow, np.split(noise, n), sampler, np.repeat(y_vecs, 16, axis=0))
    mean_latents = [z.mean(axis=0) for z in decode_packed(bottleneck, programs)]
    frames = align_rows(bottleneck.P_m, np.concatenate(programs))
    embeddings = frames.reshape(n, t_m, -1).mean(axis=1)
    match = prototype_match_rate(np.stack(mean_latents),
                                 np.repeat(np.arange(len(behavior_ids)), 16), protos)
    return match, diversity(embeddings)


def compression_sweep(cfg, world, spec, vocab, train_samples, eval_samples,
                      budgets):
    """Train one bottleneck per compression factor under an identical budget
    and measure the policy mismatch its reconstructions cause."""
    bad = [c for c in budgets if c < 2 or c & (c - 1)]
    if bad:
        raise ConfigInvalid(f"compression {bad[0]} is not a power of two >= 2")
    base = cfg.bottleneck_config(d_z=world.d_z, d_text=spec.d_text)
    bcfgs = [replace(base, levels=c.bit_length() - 1) for c in budgets]
    rows = []
    for c, bcfg in zip(budgets, bcfgs):
        model = BottleneckModel(bcfg, seed=cfg.seed)
        history = train_bottleneck(model, world, vocab, train_samples,
                                   cfg.vbb_train, seed=cfg.seed)
        kls = [action_kl(world, s.states, s.latents, z_hat)
               for s, z_hat in zip(eval_samples, _reconstructions(model, eval_samples))]
        rows.append({
            "compression": c,
            "levels": bcfg.levels,
            "mean_action_kl": float(np.mean(kls)),
            "final_loss": history[-1]["total"],
            "n_eval": len(kls),
        })
    return rows
