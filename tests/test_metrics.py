"""Metric tests: hand-computed examples, loop oracles, and a Monte Carlo
check of the all-stages-correct guessing baseline."""

from math import comb

import numpy as np
import pytest

from behavegen.bottleneck import BottleneckConfig, BottleneckModel, embed_text
from behavegen.errors import (
    BoundaryOutOfRange,
    CountMismatch,
    RangeError,
    ShapeMismatch,
    TooFewSamples,
)
from behavegen.metrics import (
    EvalReport,
    classify_segments,
    diversity,
    embed_latent_segment,
    order_accuracy,
    paired_sign_test,
    prototype_match_rate,
    retrieval_accuracy,
    sign_test_p,
    transition_score,
)
from behavegen.geometry import project_rows
from behavegen.serialization import to_doc
from behavegen.world import make_vocabulary


# ---------------------------------------------------------------------------
# segment classification and order accuracy
# ---------------------------------------------------------------------------

class TestClassifySegments:
    def test_picks_nearest(self):
        cands = np.eye(3)
        segs = np.array([[0.1, 0.9, 0.0], [0.8, 0.1, 0.2], [0.0, 0.2, 0.9]])
        assert classify_segments(segs, cands) == (1, 0, 2)

    def test_tie_goes_to_lower_index(self):
        cands = np.eye(2)
        segs = np.array([[0.5, 0.5]])
        assert classify_segments(segs, cands) == (0,)

    def test_validation(self):
        with pytest.raises(ShapeMismatch):
            classify_segments(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(CountMismatch):
            classify_segments(np.zeros((2, 3)), np.zeros((0, 3)))

    def test_guessing_baseline_monte_carlo(self):
        # orthonormal candidates + isotropic segments make each stage pick
        # uniform and independent, so P(all N stages right) = (1/N)^N;
        # for N = 3 that is 1/27, not 1/6
        rng = np.random.default_rng(99)
        n_stage = 3
        cands = np.eye(n_stage, 8)
        trials = 40000
        hits = 0
        for _ in range(trials):
            segs = rng.normal(size=(n_stage, 8))
            segs /= np.linalg.norm(segs, axis=1, keepdims=True)
            if classify_segments(segs, cands) == (0, 1, 2):
                hits += 1
        p_hat = hits / trials
        p_true = (1.0 / n_stage) ** n_stage
        se = np.sqrt(p_true * (1 - p_true) / trials)
        assert abs(p_hat - p_true) < 3 * se, f"{p_hat} vs {p_true} +- {3*se}"
        # decisively rejects a 1/6 baseline
        assert abs(p_hat - 1.0 / 6.0) > 20 * se


def tiny_bottleneck():
    cfg = BottleneckConfig(d_z=2, d_m=3, d_e=3, width=4, levels=1, d_text=4)
    return BottleneckModel(cfg, seed=5)


class TestOrderAccuracy:
    def test_matches_independent_recomputation(self):
        # wire-level oracle: recompute embed -> classify -> compare by hand
        model = tiny_bottleneck()
        # untrained zero biases can emit an exactly-zero posterior-mean frame
        # (dead ReLUs), which the embedding guard rightly refuses; nudge them
        for name, p in model.params().items():
            if name.endswith(".b"):
                p.value[...] = 0.05
        vocab = make_vocabulary(("walk", "turn", "sit"), "then", d_text=4,
                                embed_seed=6)
        rng = np.random.default_rng(7)
        agree = []
        for _ in range(50):
            latents = project_rows(rng.normal(size=(12, 2)))
            boundaries = (4, 8)
            expected = [int(rng.integers(0, 3)) for _ in range(3)]
            got = order_accuracy(model, vocab, latents, boundaries, expected)

            cands = []
            for b in expected:
                if b not in cands:
                    cands.append(b)
            cand_embs = np.stack([
                embed_text(model, vocab.embeddings[c][None, :]) for c in cands
            ])
            spans = [slice(0, 4), slice(4, 8), slice(8, 12)]
            want = 1.0
            for span, exp in zip(spans, expected):
                emb = embed_latent_segment(model, latents[span])
                pick = cands[int(np.argmax(cand_embs @ emb))]
                if pick != exp:
                    want = 0.0
            assert got == want
            agree.append(got)
        assert 0.0 in agree  # random latents miss at least once

    def test_stage_count_mismatch(self):
        model = tiny_bottleneck()
        vocab = make_vocabulary(("walk", "turn"), "then", d_text=4,
                                embed_seed=6)
        with pytest.raises(CountMismatch):
            order_accuracy(model, vocab, np.zeros((8, 2)), (4,), [0, 1, 0])
        with pytest.raises(CountMismatch):
            order_accuracy(model, vocab, np.zeros((8, 2)), (4,), [])


# ---------------------------------------------------------------------------
# junction smoothness
# ---------------------------------------------------------------------------

class TestTransitionScore:
    def test_hand_example(self):
        s = np.array([[0.0], [1.0], [3.0], [6.0]])
        # b=1: |s2-s1| = 2, v2 - v1 = 2 - 1 = 1   -> 3
        # b=2: |s3-s2| = 3, v3 - v2 = 3 - 2 = 1   -> 4
        assert transition_score(s, [1]) == pytest.approx(3.0)
        assert transition_score(s, [2]) == pytest.approx(4.0)
        assert transition_score(s, [1, 2]) == pytest.approx(3.5)

    def test_uniform_motion_scores_step_size(self):
        t = np.arange(10.0)
        s = np.stack([t, 2 * t], axis=1)
        step = np.sqrt(1 + 4)
        assert transition_score(s, [3, 6]) == pytest.approx(step)

    def test_smooth_beats_jump(self):
        smooth = np.linspace(0, 1, 12)[:, None]
        jump = smooth.copy()
        jump[6:] += 5.0
        assert transition_score(smooth, [5]) < transition_score(jump, [5])

    def test_boundary_range(self):
        s = np.zeros((6, 2))
        with pytest.raises(BoundaryOutOfRange):
            transition_score(s, [0])
        with pytest.raises(BoundaryOutOfRange):
            transition_score(s, [5])
        with pytest.raises(CountMismatch):
            transition_score(s, [])


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

class TestRetrieval:
    def test_perfect_alignment(self):
        embs = np.eye(5)
        assert retrieval_accuracy(embs @ embs.T, k=1) == 1.0
        assert retrieval_accuracy(embs @ embs.T, k=3) == 1.0

    def test_hand_ranking(self):
        progs = np.eye(3)
        texts = np.array([
            [0.0, 1.0, 0.0],   # text 0 matches program 1
            [1.0, 0.0, 0.0],   # text 1 matches program 0
            [0.0, 0.0, 1.0],   # text 2 matches program 2
        ])
        assert retrieval_accuracy(progs @ texts.T, k=1) == pytest.approx(1 / 3)
        assert retrieval_accuracy(progs @ texts.T, k=2) == 1.0

    def test_all_ties_break_to_lower_index(self):
        embs = np.ones((4, 2)) / np.sqrt(2)
        assert retrieval_accuracy(embs @ embs.T, k=1) == pytest.approx(1 / 4)
        assert retrieval_accuracy(embs @ embs.T, k=2) == pytest.approx(2 / 4)
        assert retrieval_accuracy(embs @ embs.T, k=4) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(11)
        p = rng.normal(size=(12, 4))
        t = rng.normal(size=(12, 4))
        accs = [retrieval_accuracy(p @ t.T, k=k) for k in range(1, 13)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))
        assert accs[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ShapeMismatch):
            retrieval_accuracy(np.zeros((3, 2)) @ np.zeros((4, 2)).T)
        with pytest.raises(RangeError):
            retrieval_accuracy(np.eye(3) @ np.eye(3).T, k=4)
        with pytest.raises(TooFewSamples):
            retrieval_accuracy(np.zeros((0, 2)) @ np.zeros((0, 2)).T)


# ---------------------------------------------------------------------------
# diversity
# ---------------------------------------------------------------------------

class TestDiversity:
    def test_hand_example(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
        # pairwise: 3, 4, 5 -> mean 4
        assert diversity(pts) == pytest.approx(4.0)

    def test_identical_points(self):
        assert diversity(np.ones((5, 3))) == 0.0

    def test_needs_two(self):
        with pytest.raises(TooFewSamples):
            diversity(np.ones((1, 3)))


class TestPrototypeMatch:
    def test_hand_example(self):
        protos = np.eye(3)
        means = np.array([
            [0.9, 0.1, 0.0],   # matches 0
            [0.1, 0.8, 0.1],   # matches 1
            [0.7, 0.0, 0.3],   # labeled 2 but matches 0
        ])
        assert prototype_match_rate(means, [0, 1, 2], protos) == pytest.approx(2 / 3)
        assert prototype_match_rate(means, [0, 1, 0], protos) == 1.0

    def test_scale_invariant(self):
        protos = np.eye(2)
        means = np.array([[5.0, 0.1], [0.001, 0.002]])
        assert prototype_match_rate(means, [0, 1], protos) == 1.0

    def test_validation(self):
        with pytest.raises(CountMismatch):
            prototype_match_rate(np.eye(2), [0], np.eye(2))
        with pytest.raises(ShapeMismatch):
            prototype_match_rate(np.eye(2), [0, 1], np.eye(3))


# ---------------------------------------------------------------------------
# sign test
# ---------------------------------------------------------------------------

class TestSignTest:
    def test_exact_small_values(self):
        assert sign_test_p(5, 0) == pytest.approx(1 / 32)
        assert sign_test_p(4, 1) == pytest.approx(6 / 32)
        assert sign_test_p(0, 5) == 1.0
        assert sign_test_p(3, 3) == pytest.approx(
            sum(comb(6, i) for i in range(3, 7)) / 64
        )

    def test_needs_untied_pairs(self):
        with pytest.raises(TooFewSamples):
            sign_test_p(0, 0)
        with pytest.raises(RangeError):
            sign_test_p(-1, 2)

    def test_paired_wrapper(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 0.0, 7.0])
        b = np.array([0.0, 1.0, 4.0, 1.0, 0.0, 2.0])
        out = paired_sign_test(a, b)
        assert out["wins"] == 4
        assert out["losses"] == 1
        assert out["ties"] == 1
        assert out["p_value"] == pytest.approx(sign_test_p(4, 1))

    def test_strong_effect_is_significant(self):
        wins = 85
        losses = 15
        assert sign_test_p(wins, losses) < 1e-10

    def test_null_effect_is_not(self):
        assert sign_test_p(52, 48) > 0.3


class TestEvalReport:
    def test_round_trip_dict(self):
        rep = EvalReport(n_samples=4, recon_mse=0.5, baseline_mse=2.0,
                         retrieval_top1=0.75, retrieval_top5=1.0,
                         prototype_match=1.0, diversity=0.3)
        d = to_doc(rep)
        assert d["recon_mse"] == 0.5
        assert set(d) == {"n_samples", "recon_mse", "baseline_mse",
                          "retrieval_top1", "retrieval_top5",
                          "prototype_match", "diversity"}
