"""Stitching tests: hand-computed junction blends, length bookkeeping, prompt
splitting, and the staged-generation plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from behavegen.bottleneck import BottleneckConfig, BottleneckModel, decode, embed_text
from behavegen.composition import (
    ComposedRollout,
    compose_latents,
    generate_composed,
    generate_single_shot,
    split_prompt,
    stage_slices,
)
from behavegen.errors import (
    CountMismatch,
    EmptyClause,
    OverlapTooLarge,
    RangeError,
    ShapeMismatch,
)
from behavegen.flow import FlowConfig, FlowModel, SamplerConfig, euler_sample
from behavegen.world import make_world, make_vocabulary


# ---------------------------------------------------------------------------
# oracle: independent junction-by-junction construction
# ---------------------------------------------------------------------------

def compose_oracle(segments, overlap):
    """Pure-loop restatement of the consuming junction rule; returns the rows
    and the junction boundaries."""
    segs = [np.asarray(s, dtype=float) for s in segments]
    n = len(segs)
    for i, seg in enumerate(segs):
        need = ((i > 0) + (i < n - 1)) * overlap + 1
        if seg.shape[0] < need:
            raise OverlapTooLarge(f"stage {i} needs {need} frames")
    rows, boundaries = [], []
    for i, seg in enumerate(segs):
        start = overlap if i > 0 else 0
        stop = seg.shape[0] - (overlap if i < n - 1 else 0)
        for t in range(start, stop):
            rows.append(seg[t])
        if i < n - 1:
            boundaries.append(len(rows) + overlap // 2)
            tail = seg[stop:]
            head = segs[i + 1][:overlap]
            for o in range(1, overlap + 1):
                rho = o / (overlap + 1)
                rows.append((1 - rho) * tail[o - 1] + rho * head[o - 1])
    return np.array(rows), tuple(boundaries)


def compose_in_place_oracle(segments, overlap):
    """Pure-loop restatement of the in-place rule: every frame is kept, and
    the 2O frames straddling each junction fade from the departing stage,
    held at its last frame, to the arriving one, held at its first."""
    segs = [np.asarray(s, dtype=float) for s in segments]
    n = len(segs)
    for i, seg in enumerate(segs):
        need = max(((i > 0) + (i < n - 1)) * overlap, 1)
        if seg.shape[0] < need:
            raise OverlapTooLarge(f"stage {i} needs {need} frames")
    out = np.concatenate(segs, axis=0)
    cuts = np.cumsum([seg.shape[0] for seg in segs])
    window = 2 * overlap
    rho = np.arange(1, window + 1) / (window + 1)
    for i in range(n - 1):
        prev, nxt = segs[i], segs[i + 1]
        for j in range(window):
            a_frame = prev[-overlap + j] if j < overlap else prev[-1]
            b_frame = nxt[0] if j < overlap else nxt[j - overlap]
            out[cuts[i] - overlap + j] = (1 - rho[j]) * a_frame + rho[j] * b_frame
    return out, tuple(int(c) for c in cuts[:-1])


class TestSplitPrompt:
    SEP = 9

    def test_single_clause(self):
        assert split_prompt((3, 4), self.SEP) == ((3, 4),)

    def test_three_clauses(self):
        ids = (1, self.SEP, 2, 5, self.SEP, 0)
        assert split_prompt(ids, self.SEP) == ((1,), (2, 5), (0,))

    def test_empty_variants(self):
        with pytest.raises(EmptyClause):
            split_prompt((), self.SEP)
        with pytest.raises(EmptyClause):
            split_prompt((self.SEP, 1), self.SEP)
        with pytest.raises(EmptyClause):
            split_prompt((1, self.SEP), self.SEP)
        with pytest.raises(EmptyClause):
            split_prompt((1, self.SEP, self.SEP, 2), self.SEP)


class TestComposeLatents:
    def test_two_constant_stages_hand_example(self):
        a = np.zeros((6, 1))
        b = np.ones((9, 1))
        out, boundaries = compose_latents([a, b], overlap=2)
        assert out.shape == (13, 1)  # 6 + 9 - 2
        want = np.concatenate([
            np.zeros((4, 1)),
            np.array([[1 / 3], [2 / 3]]),  # rho = 1/3, 2/3
            np.ones((7, 1)),
        ])
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-15)
        assert boundaries == (5,)  # blend starts at 4, midpoint offset 2//2

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(2, 5))
            overlap = int(rng.integers(1, 4))
            segs = [rng.normal(size=(int(rng.integers(2 * overlap + 1, 15)), 3))
                    for _ in range(n)]
            out, boundaries = compose_latents(segs, overlap)
            want, _ = compose_oracle(segs, overlap)
            np.testing.assert_allclose(out, want, rtol=0, atol=0)
            total = sum(s.shape[0] for s in segs) - (n - 1) * overlap
            assert out.shape[0] == total
            assert len(boundaries) == n - 1
            assert all(0 < boundaries[i] < total for i in range(n - 1))
            assert all(boundaries[i] < boundaries[i + 1]
                       for i in range(n - 2))

    def test_zero_overlap_concatenates(self):
        rng = np.random.default_rng(1)
        segs = [rng.normal(size=(4, 2)), rng.normal(size=(3, 2))]
        out, boundaries = compose_latents(segs, overlap=0)
        np.testing.assert_allclose(out, np.concatenate(segs), rtol=0, atol=0)
        assert boundaries == (4,)

    def test_single_stage_passthrough(self):
        seg = np.random.default_rng(2).normal(size=(5, 2))
        out, boundaries = compose_latents([seg], overlap=3)
        np.testing.assert_allclose(out, seg, rtol=0, atol=0)
        assert boundaries == ()
        out[0, 0] = 99.0  # returned array is a copy
        assert seg[0, 0] != 99.0

    def test_overlap_too_large(self):
        with pytest.raises(OverlapTooLarge):
            compose_latents([np.zeros((4, 2)), np.zeros((10, 2))], overlap=4)
        with pytest.raises(OverlapTooLarge):
            # interior stage fully consumed by its two junctions
            compose_latents([np.zeros((9, 2)), np.zeros((8, 2)),
                             np.zeros((9, 2))], overlap=4)

    def test_validation(self):
        with pytest.raises(CountMismatch):
            compose_latents([], overlap=2)
        with pytest.raises(ShapeMismatch):
            compose_latents([np.zeros((5, 2)), np.zeros((5, 3))], overlap=1)
        with pytest.raises(RangeError):
            compose_latents([np.zeros((5, 2)), np.zeros((5, 2))], overlap=-1)

    def test_in_place_keeps_length_and_smooths(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(7, 2))
        out, boundaries = compose_latents([a, b], overlap=2, in_place=True)
        assert out.shape[0] == 13
        assert boundaries == (6,)
        # frames away from the junction untouched
        np.testing.assert_allclose(out[:4], a[:4], rtol=0, atol=0)
        np.testing.assert_allclose(out[8:], b[2:], rtol=0, atol=0)
        # the 2O-frame window crossfades held endpoints
        rho = np.arange(1, 5) / 5.0
        held_a = np.stack([a[4], a[5], a[5], a[5]])
        held_b = np.stack([b[0], b[0], b[0], b[1]])
        want = (1 - rho)[:, None] * held_a + rho[:, None] * held_b
        np.testing.assert_allclose(out[4:8], want, rtol=0, atol=1e-15)

    @given(st.lists(st.integers(1, 13), min_size=1, max_size=4), st.integers(0, 4),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracles(self, lengths, overlap, in_place, seed):
        rng = np.random.default_rng(seed)
        segs = [rng.normal(size=(n, 3)) for n in lengths]
        oracle = compose_in_place_oracle if in_place else compose_oracle
        try:
            want, want_boundaries = ((segs[0], ()) if len(segs) == 1
                                     else oracle(segs, overlap))
        except OverlapTooLarge:
            with pytest.raises(OverlapTooLarge):
                compose_latents(segs, overlap, in_place=in_place)
            return
        out, boundaries = compose_latents(segs, overlap, in_place=in_place)
        np.testing.assert_allclose(out, want, rtol=0, atol=0)
        assert boundaries == want_boundaries

    def test_in_place_overlap_validation(self):
        with pytest.raises(OverlapTooLarge):
            compose_latents([np.zeros((2, 1)), np.zeros((9, 1))], overlap=3,
                            in_place=True)


class TestStageSlices:
    def test_roundtrip(self):
        slices = stage_slices(10, (3, 7))
        assert slices == (slice(0, 3), slice(3, 7), slice(7, 10))

    def test_degenerate(self):
        with pytest.raises(RangeError):
            stage_slices(10, (0, 5))
        with pytest.raises(RangeError):
            stage_slices(10, (7, 5))
        with pytest.raises(RangeError):
            stage_slices(10, (10,))


# ---------------------------------------------------------------------------
# staged generation plumbing
# ---------------------------------------------------------------------------

def pipeline():
    world = make_world(state_dim=3, action_dim=2, d_z=2, target_L_s=0.8,
                       target_L_z=0.5, target_L_B=1.0, seed=70)
    vocab = make_vocabulary(("walk", "turn", "sit"), "then", d_text=4,
                            embed_seed=71)
    bcfg = BottleneckConfig(d_z=2, d_m=3, d_e=3, width=4, levels=1, d_text=4)
    bottleneck = BottleneckModel(bcfg, seed=72)
    flow = FlowModel(FlowConfig(d_m=3, d_e=3, width=4, blocks=1, r_dim=4),
                     seed=73)
    return flow, bottleneck, vocab, world


class TestGenerateComposed:
    def test_shapes_and_bookkeeping(self):
        flow, bottleneck, vocab, world = pipeline()
        ids = vocab.encode("walk then turn then sit")
        out = generate_composed(flow, bottleneck, vocab, world, ids, t_m=4,
                                sampler=SamplerConfig(steps=4), seed=1,
                                overlap=2)
        # three stages of 4 * 2 = 8 latent frames, two junctions consume 2 each
        assert out.stage_lengths == (8, 8, 8)
        assert out.latents.shape == (20, 2)
        assert out.states.shape == (21, 3)
        assert len(out.boundaries) == 2
        spans = stage_slices(out.latents.shape[0], out.boundaries)
        assert len(spans) == 3

    def test_deterministic(self):
        flow, bottleneck, vocab, world = pipeline()
        ids = vocab.encode("walk then sit")
        a = generate_composed(flow, bottleneck, vocab, world, ids, t_m=4,
                              sampler=SamplerConfig(steps=4), seed=5)
        b = generate_composed(flow, bottleneck, vocab, world, ids, t_m=4,
                              sampler=SamplerConfig(steps=4), seed=5)
        assert a.latents.tobytes() == b.latents.tobytes()
        assert a.states.tobytes() == b.states.tobytes()

    def test_shared_prefix_shares_first_stage(self):
        # clause k's noise comes from child seed k, so changing a later
        # clause cannot disturb an earlier stage
        flow, bottleneck, vocab, world = pipeline()
        a = generate_composed(flow, bottleneck, vocab, world,
                              vocab.encode("walk then turn"), t_m=4,
                              sampler=SamplerConfig(steps=4), seed=9,
                              overlap=0)
        b = generate_composed(flow, bottleneck, vocab, world,
                              vocab.encode("walk then sit"), t_m=4,
                              sampler=SamplerConfig(steps=4), seed=9,
                              overlap=0)
        first_a = a.latents[:a.stage_lengths[0]]
        first_b = b.latents[:b.stage_lengths[0]]
        assert first_a.tobytes() == first_b.tobytes()
        assert a.latents.tobytes() != b.latents.tobytes()

    def test_one_field_call_per_step(self):
        # clauses and their null branches share every Euler step
        flow, bottleneck, vocab, world = pipeline()
        calls = []
        orig = flow.field

        def counting_field(*args):
            calls.append(args)
            return orig(*args)

        flow.field = counting_field
        for prompt in ("walk", "walk then turn then sit"):
            calls.clear()
            generate_composed(flow, bottleneck, vocab, world, vocab.encode(prompt),
                              t_m=4, sampler=SamplerConfig(steps=5), seed=1,
                              overlap=1)
            assert len(calls) == 5

    def test_stages_match_clauses_sampled_alone(self):
        flow, bottleneck, vocab, world = pipeline()
        ids = vocab.encode("walk then turn then sit")
        sampler = SamplerConfig(steps=4, guidance=1.5)
        out = generate_composed(flow, bottleneck, vocab, world, ids, t_m=4,
                                sampler=sampler, seed=9, overlap=0)
        seeds = np.random.SeedSequence(9).spawn(4)
        spans = stage_slices(out.latents.shape[0], out.boundaries)
        for clause, child, span in zip(split_prompt(ids, vocab.separator_id), seeds, spans):
            y = embed_text(bottleneck, vocab.embeddings[list(clause)])
            noise = np.random.default_rng(child).standard_normal((4, 3))
            want = decode(bottleneck, euler_sample(flow, noise, sampler, y))
            np.testing.assert_allclose(out.latents[span], want, rtol=1e-12, atol=1e-12)

    def test_single_clause(self):
        flow, bottleneck, vocab, world = pipeline()
        out = generate_composed(flow, bottleneck, vocab, world,
                                vocab.encode("turn"), t_m=4,
                                sampler=SamplerConfig(steps=4), seed=2)
        assert out.boundaries == ()
        assert out.latents.shape == (8, 2)

    def test_validation(self):
        flow, bottleneck, vocab, world = pipeline()
        with pytest.raises(RangeError):
            generate_composed(flow, bottleneck, vocab, world,
                              vocab.encode("walk"), t_m=0,
                              sampler=SamplerConfig(steps=4), seed=0)


class TestGenerateSingleShot:
    def test_even_split_boundaries(self):
        flow, bottleneck, vocab, world = pipeline()
        ids = vocab.encode("walk then turn then sit")
        out = generate_single_shot(flow, bottleneck, vocab, world, ids, t_m=6,
                                   sampler=SamplerConfig(steps=4), seed=3)
        assert out.latents.shape == (12, 2)
        assert out.boundaries == (4, 8)
        assert out.stage_lengths == (4, 4, 4)
        assert out.states.shape == (13, 3)

    def test_deterministic(self):
        flow, bottleneck, vocab, world = pipeline()
        ids = vocab.encode("walk then sit")
        a = generate_single_shot(flow, bottleneck, vocab, world, ids, t_m=4,
                                 sampler=SamplerConfig(steps=4), seed=11)
        b = generate_single_shot(flow, bottleneck, vocab, world, ids, t_m=4,
                                 sampler=SamplerConfig(steps=4), seed=11)
        assert a.latents.tobytes() == b.latents.tobytes()


class TestComposedRollout:
    def test_row_count_validation(self):
        with pytest.raises(CountMismatch):
            ComposedRollout(latents=np.zeros((5, 2)), states=np.zeros((5, 3)),
                            boundaries=(), stage_lengths=(5,))
