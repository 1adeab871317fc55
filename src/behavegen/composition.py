"""Stitching multiple generated behavior stages into one trajectory.

A multi-clause prompt ("walk then jump then sit") is split at the separator;
each clause conditions its own program sample, the decoded latent stages are
joined with a linear crossfade at every junction, and the stitched latent
trajectory drives a single rollout.  The junction rule consumes the frames
it blends: the last O frames of one stage and the first O of the next are
replaced by O crossfaded frames, so N stages of lengths T_n yield
sum(T_n) - (N - 1) * O frames.  The in-place mode holds each stage's end
frame O more times on both sides of a junction before blending, so it keeps
every frame and only smooths the 2O frames around each junction.
"""

from dataclasses import dataclass

import numpy as np

from .bottleneck import decode_packed, embed_text
from .errors import (
    CountMismatch,
    EmptyClause,
    OverlapTooLarge,
    RangeError,
    ShapeMismatch,
)
from .flow import SamplerConfig, euler_sample
from .geometry import blend_overlap
from .world import rollout

DEFAULT_OVERLAP = 4


def split_prompt(token_ids, separator_id: int):
    """Clause token tuples, split at the separator; every clause must be non-empty."""
    clauses = []
    current = []
    for tok in token_ids:
        if tok == separator_id:
            if not current:
                raise EmptyClause("separator with no preceding clause tokens")
            clauses.append(tuple(current))
            current = []
        else:
            current.append(int(tok))
    if not current:
        raise EmptyClause("prompt ends on a separator" if clauses
                          else "prompt has no tokens")
    clauses.append(tuple(current))
    return tuple(clauses)


def _check_segments(segments, overlap: int):
    if len(segments) == 0:
        raise CountMismatch("nothing to compose")
    arrs = [np.asarray(s, dtype=float) for s in segments]
    d = arrs[0].shape[1] if arrs[0].ndim == 2 else -1
    for a in arrs:
        if a.ndim != 2 or a.shape[1] != d:
            raise ShapeMismatch("stages must share the latent dimension")
    if overlap < 0:
        raise RangeError(f"overlap {overlap} must be >= 0")
    return arrs


def compose_latents(segments, overlap: int = DEFAULT_OVERLAP,
                    in_place: bool = False):
    """Stitch latent stages; returns (latents, boundaries).

    In place, each side of a junction holds its end frame ``overlap`` times,
    so the blend is 2O frames long and replaces the 2O it consumes.
    ``boundaries`` holds one index per junction, placed at the midpoint of the
    blended window, so slicing at the boundaries recovers per-stage spans.
    """
    arrs = _check_segments(segments, overlap)
    n = len(arrs)
    if n == 1:
        return arrs[0].copy(), ()
    hold = overlap if in_place else 0
    for i, a in enumerate(arrs):
        # a stage gives up `overlap` frames per junction it touches; unless
        # they are held, it must keep at least one frame of its own
        need = max(((i > 0) + (i < n - 1)) * overlap + (not in_place), 1)
        if a.shape[0] < need:
            raise OverlapTooLarge(f"stage {i} has {a.shape[0]} frames; "
                                  f"overlap {overlap} needs >= {need}")
    pieces, boundaries, pos = [], [], 0
    for i, a in enumerate(arrs):
        lo = overlap if i > 0 else 0
        hi = a.shape[0] - (overlap if i < n - 1 else 0)
        pieces.append(a[lo:hi])
        pos += hi - lo
        if i < n - 1:
            boundaries.append(pos + (overlap + hold) // 2)
            if overlap > 0:
                nxt = arrs[i + 1]
                pieces.append(blend_overlap(
                    np.concatenate([a[hi:], np.repeat(a[-1:], hold, axis=0)]),
                    np.concatenate([np.repeat(nxt[:1], hold, axis=0), nxt[:overlap]])))
                pos += overlap + hold
    return np.concatenate(pieces, axis=0), tuple(boundaries)


def stage_slices(total: int, boundaries):
    """Per-stage [start, stop) latent spans implied by the junction indices."""
    edges = (0,) + tuple(int(b) for b in boundaries) + (total,)
    if any(edges[i] >= edges[i + 1] for i in range(len(edges) - 1)):
        raise RangeError(f"boundaries {boundaries} do not split {total} frames")
    return tuple(slice(edges[i], edges[i + 1]) for i in range(len(edges) - 1))


@dataclass(frozen=True)
class ComposedRollout:
    """A stitched generation: latent trajectory, rollout, stage bookkeeping."""

    latents: np.ndarray
    states: np.ndarray
    boundaries: tuple
    stage_lengths: tuple

    def __post_init__(self):
        if self.states.shape[0] != self.latents.shape[0] + 1:
            raise CountMismatch("states must have one more row than latents")


def _sample_stages(flow_model, bottleneck, vocab, world, prompts, t_m: int,
                   sampler: SamplerConfig, seed: int, init_state_scale: float):
    """Decoded latent stages of ``t_m`` program frames, one per token prompt,
    and the rollout's initial state.  Prompt k draws its noise from child
    seed k of ``seed``; all prompts share each Euler step."""
    if t_m < 1:
        raise RangeError(f"program length {t_m} must be >= 1")
    seeds = np.random.SeedSequence(seed).spawn(len(prompts) + 1)
    contexts = [embed_text(bottleneck, vocab.embeddings[list(p)]) for p in prompts]
    noises = [np.random.default_rng(s).standard_normal((t_m, bottleneck.cfg.d_m))
              for s in seeds[:-1]]
    programs = euler_sample(flow_model, noises, sampler, contexts)
    s1 = init_state_scale * np.random.default_rng(seeds[-1]).standard_normal(world.state_dim)
    return decode_packed(bottleneck, programs), s1


def generate_composed(flow_model, bottleneck, vocab, world, token_ids,
                      t_m: int, sampler: SamplerConfig, seed: int,
                      overlap: int = DEFAULT_OVERLAP, in_place: bool = False,
                      init_state_scale: float = 0.5) -> ComposedRollout:
    """Stage-wise generation for a multi-clause prompt.

    Each clause gets an independent child seed, a program of ``t_m`` frames,
    and a decoded latent stage; stages are stitched and rolled out once.
    """
    clauses = split_prompt(token_ids, vocab.separator_id)
    segments, s1 = _sample_stages(flow_model, bottleneck, vocab, world, clauses,
                                  t_m, sampler, seed, init_state_scale)
    latents, boundaries = compose_latents(segments, overlap, in_place=in_place)
    return ComposedRollout(latents=latents, states=rollout(world, s1, latents),
                           boundaries=boundaries,
                           stage_lengths=tuple(s.shape[0] for s in segments))


def generate_single_shot(flow_model, bottleneck, vocab, world, token_ids,
                         t_m: int, sampler: SamplerConfig, seed: int,
                         init_state_scale: float = 0.5) -> ComposedRollout:
    """One program for the whole prompt, separator tokens and all.

    The pooled text context has no notion of clause order, which is exactly
    the failure mode stage-wise stitching is meant to beat.  The boundaries
    split the frames evenly per clause; they only annotate where stages are
    expected, for segment-level evaluation.
    """
    clauses = split_prompt(token_ids, vocab.separator_id)
    (latents,), s1 = _sample_stages(flow_model, bottleneck, vocab, world, [token_ids],
                                    t_m, sampler, seed, init_state_scale)
    total, n = latents.shape[0], len(clauses)
    boundaries = tuple(total * k // n for k in range(1, n))
    lengths = tuple(s.stop - s.start for s in stage_slices(total, boundaries))
    return ComposedRollout(latents=latents, states=rollout(world, s1, latents),
                           boundaries=boundaries, stage_lengths=lengths)
