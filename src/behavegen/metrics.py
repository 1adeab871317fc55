"""Evaluation metrics for generated behavior.

Everything here is deterministic given its inputs: segment order accuracy
against the prompt, junction smoothness of rollouts, prompt-to-program
retrieval, sample diversity, and an exact paired sign test used to compare
generation strategies.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .bottleneck import embed_program, embed_text, encode
from .composition import stage_slices
from .errors import (
    BoundaryOutOfRange,
    CountMismatch,
    RangeError,
    ShapeMismatch,
    TooFewSamples,
)


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
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms = np.maximum(norms, 1e-12)
    sims = (m / norms) @ (protos / np.linalg.norm(protos, axis=1,
                                                  keepdims=True)).T
    picked = np.argmax(sims, axis=1)
    return float(np.mean(picked == np.asarray(ids)))


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
