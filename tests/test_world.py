"""Tests for the synthetic world, latent extraction and the corpus generator.

Oracles: operator norms are checked against SVD, extraction against a
plain-loop reimplementation, and the action divergence against a Monte-Carlo
estimate of the Gaussian KL.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import behavegen.world as world_module
from behavegen.errors import (
    MAX_SCALE,
    CountMismatch,
    DimensionMismatch,
    InputError,
    InvalidSpec,
    NonFiniteState,
    RangeError,
    ShapeMismatch,
    UnknownToken,
    UnstableWorld,
    ZeroNormInput,
)
from behavegen.config import load_run_config
from behavegen.geometry import project_rows, project_to_sphere
from behavegen.serialization import canon_dumps, to_doc
from behavegen.theory import world_recipe
from behavegen.world import (
    DatasetSpec,
    ExtractionConfig,
    Sample,
    action_kl,
    dataset_from_dict,
    dataset_to_dict,
    extract_latents,
    generate_dataset,
    lookahead_averages,
    make_vocabulary,
    make_world,
    make_worlds,
    operator_norm,
    prototype_directions,
    rollout,
    rollouts,
)
from test_serialization import f8, unf8


BASE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "base.json"


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def svd_opnorm(m):
    return float(np.linalg.norm(np.asarray(m, dtype=float), 2))


def top_singular(m):
    """Largest singular value from one 2-D SVD call."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


def loop_make_world(**recipe):
    """One world on its own, with one SVD per matrix, as ``make_worlds`` must
    match: the five matrices and the norms of the scaled maps."""
    cfg = world_module.WorldConfig(**recipe)
    n, a, d = cfg.state_dim, cfg.action_dim, cfg.d_z
    rng = np.random.default_rng(cfg.seed)
    A_s = rng.normal(size=(n, n)) / np.sqrt(n)
    A_a = rng.normal(size=(n, a)) / np.sqrt(a)
    W_s = rng.normal(size=(a, n)) / np.sqrt(n)
    W_z = rng.normal(size=(a, d)) / np.sqrt(d)
    B_mat = rng.normal(size=(d, n)) / np.sqrt(n)
    scale = cfg.target_L_s / top_singular(A_s + A_a @ W_s)
    A_s = A_s * scale
    W_s = W_s * scale
    W_z = W_z * (cfg.target_L_z / top_singular(A_a @ W_z))
    B_mat = B_mat * (cfg.target_L_B / top_singular(B_mat))
    mats = dict(A_s=A_s, A_a=A_a, W_s=W_s, W_z=W_z, B_mat=B_mat)
    return mats, (top_singular(A_s + A_a @ W_s), top_singular(A_a @ W_z), top_singular(B_mat))


def extraction_oracle(b_mat, lookahead, states):
    """Windowed average of B s, then sphere projection, all in plain loops."""
    n_states = len(states)
    d_z = len(b_mat)
    out = []
    for i in range(n_states - 1):
        h = min(lookahead, n_states - 1 - i)
        acc = [0.0] * d_z
        for k in range(h):
            s = states[i + 1 + k]
            for r in range(d_z):
                acc[r] += sum(b_mat[r][c] * s[c] for c in range(len(s)))
        avg = [a / h for a in acc]
        norm = math.sqrt(sum(a * a for a in avg))
        out.append([math.sqrt(d_z) * a / norm for a in avg])
    return np.asarray(out)


def policy_mean(world, s, z):
    return world.W_s @ s + world.W_z @ z


def step(world, s, z):
    """One step of the deterministic mean dynamics."""
    return world.A_s @ s + world.A_a @ policy_mean(world, s, z)


def loop_rollout(world, s1, z_seq):
    """Rollout one ``policy_mean`` call per step, as ``rollout`` must match."""
    states = [np.asarray(s1, dtype=float)]
    for z in np.asarray(z_seq, dtype=float):
        states.append(step(world, states[-1], z))
    return np.array(states)


def draw_and_roll_sample(world, extraction, spec, vocab, protos, seed_seq):
    """One corpus sample drawn, rolled and extracted on its own, in the order
    the generator has always used: stage count, ids, durations, script noise
    per stage, initial state."""
    rng = np.random.default_rng(seed_seq)
    n_stages = int(rng.choice(len(spec.stage_probs), p=np.asarray(spec.stage_probs))) + 1
    n_beh = len(spec.behaviors)
    ids = [int(rng.integers(n_beh))]
    for _ in range(n_stages - 1):
        nxt = int(rng.integers(n_beh - 1))
        ids.append(nxt + 1 if nxt >= ids[-1] else nxt)
    durations = rng.integers(spec.dur_min, spec.dur_max + 1, size=n_stages)
    rows = [protos[b][None, :] + spec.script_noise * rng.normal(size=(int(d), world.d_z))
            for b, d in zip(ids, durations)]
    script = project_rows(np.vstack(rows))
    states = loop_rollout(world, spec.init_state_scale * rng.normal(size=world.state_dim), script)
    tokens = sum(([vocab.separator_id, b] for b in ids[1:]), [ids[0]])
    latents = project_rows(loop_lookahead_averages(world, extraction, states),
                           extraction.norm_floor)
    return tuple(tokens), states, latents


def loop_lookahead_averages(world, cfg, states):
    """Windowed averages of B s, one ``mean`` per row."""
    feats = np.asarray(states, dtype=float) @ world.B_mat.T
    n_states = feats.shape[0]
    out = np.empty((n_states - 1, world.d_z))
    for i in range(n_states - 1):
        h = min(cfg.lookahead, n_states - 1 - i)
        out[i] = feats[i + 1:i + 1 + h].mean(axis=0)
    return out


def mc_gaussian_kl(mu_p, mu_q, sigma, rng, n=200_000):
    """Monte-Carlo KL(N(mu_p, s^2 I) || N(mu_q, s^2 I)); returns (mean, stderr)."""
    d = len(mu_p)
    x = mu_p + sigma * rng.standard_normal(size=(n, d))
    log_ratio = (-((x - mu_p) ** 2).sum(axis=1) + ((x - mu_q) ** 2).sum(axis=1)) / (2 * sigma ** 2)
    return float(log_ratio.mean()), float(log_ratio.std(ddof=1) / np.sqrt(n))


def small_world(seed=0, **kw):
    args = dict(state_dim=5, action_dim=3, d_z=4, target_L_s=0.85,
                target_L_z=1.2, target_L_B=1.0, sigma_pi=0.1, seed=seed)
    args.update(kw)
    return make_world(**args)


def base_corpus_case():
    """configs/base.json's world, extraction and dataset, cut to 40 samples at seed 5."""
    cfg = load_run_config(str(BASE_CONFIG))
    return to_doc(cfg.world), cfg.extraction, replace(cfg.dataset, n_samples=40), 5


@st.composite
def corpus_cases(draw):
    """A world recipe, extraction, dataset spec and corpus seed for a small corpus."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    recipe = dict(state_dim=draw(st.integers(1, 6)), action_dim=draw(st.integers(1, 4)),
                  d_z=draw(st.integers(1, 6)), seed=seed % 1000)
    n_behaviors = draw(st.integers(1, 5))
    # one behavior allows only single-stage scripts
    n_stages = 1 if n_behaviors == 1 else draw(st.integers(1, 3))
    dur_min = draw(st.integers(2, 9))
    spec = DatasetSpec(n_samples=20,
                       behaviors=("walk", "run", "turn", "sit", "jump")[:n_behaviors],
                       dur_min=dur_min, dur_max=dur_min + draw(st.integers(0, 6)),
                       stage_probs=(1.0 / n_stages,) * n_stages,
                       script_noise=draw(st.sampled_from([0.0, 0.25, 1e3])))
    return recipe, ExtractionConfig(lookahead=draw(st.integers(1, 40))), spec, seed


# ---------------------------------------------------------------------------
# operator norms and construction
# ---------------------------------------------------------------------------

class TestOperatorNorm:
    def test_matches_svd_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            rows, cols = rng.integers(1, 12, size=2)
            m = rng.normal(size=(rows, cols)) * 10 ** rng.uniform(-2, 2)
            assert np.isclose(operator_norm(m), svd_opnorm(m), rtol=1e-8)

    def test_diagonal_matrix(self):
        assert np.isclose(operator_norm(np.diag([1.0, -3.0, 2.0])), 3.0, rtol=1e-10)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_near_degenerate_spectra(self):
        # a power iteration converges at the ratio of the top two singular
        # values, so a stopping rule on successive estimates stops far short
        # here; the SVD must still land within rounding
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 8):
            for gap in (1e-4, 1e-6, 1e-9):
                q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
                q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
                sv = np.concatenate([[1.0, 1.0 - gap], np.linspace(0.5, 0.1, n - 2)])
                m = q1 @ np.diag(sv) @ q2.T
                assert np.isclose(operator_norm(m), svd_opnorm(m), rtol=1e-13, atol=0)
        # the draws whose norms a power iteration left furthest low
        for seed in (18280, 9780, 8384):
            w = make_world(**world_recipe(np.random.default_rng(seed)))
            for m in (w.A_s + w.A_a @ w.W_s, w.A_a @ w.W_z, w.B_mat):
                assert np.isclose(operator_norm(m), svd_opnorm(m), rtol=1e-13, atol=0)

    def test_shape_and_finiteness_checks(self):
        with pytest.raises(ShapeMismatch):
            operator_norm(np.ones(3))
        with pytest.raises(NonFiniteState):
            operator_norm(np.array([[1.0, np.nan]]))
        assert operator_norm(np.zeros((0, 4))) == 0.0

    @given(st.integers(0, 2 ** 32 - 1))
    @example(18280)  # the worst of 20,000 seeds under a power iteration: 2.2e-6 low
    @example(9780)
    @settings(max_examples=60, deadline=None)
    def test_random_world_norms_hit_targets(self, seed):
        w = make_world(**world_recipe(np.random.default_rng(seed)))
        assert abs(svd_opnorm(w.A_s + w.A_a @ w.W_s) - w.config.target_L_s) <= 1e-12
        assert abs(svd_opnorm(w.A_a @ w.W_z) - w.config.target_L_z) <= 1e-12
        assert abs(svd_opnorm(w.B_mat) - w.config.target_L_B) <= 1e-12

    def test_construction_hits_targets(self):
        w = small_world()
        assert abs(w.L_s - 0.85) < 1e-6
        assert abs(w.L_z - 1.2) < 1e-6
        assert abs(w.L_B - 1.0) < 1e-6
        # cross-check against the SVD oracle
        assert np.isclose(w.L_s, svd_opnorm(w.A_s + w.A_a @ w.W_s), rtol=1e-12)
        assert np.isclose(w.L_z, svd_opnorm(w.A_a @ w.W_z), rtol=1e-12)

    def test_target_outside_unit_interval_rejected(self):
        with pytest.raises(RangeError):
            small_world(target_L_s=1.1)
        with pytest.raises(RangeError):
            small_world(target_L_s=0.0)

    def test_recipe_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(2026)
        for _ in range(300):
            w = make_world(**world_recipe(rng))
            for doc in (w.to_config(), json.loads(canon_dumps(w.to_config()))):
                again = make_world(**doc)
                assert again.config == w.config
                for name in ("A_s", "A_a", "W_s", "W_z", "B_mat"):
                    assert getattr(again, name).tobytes() == getattr(w, name).tobytes()

    def test_norms_computed_once_over_read_only_matrices(self, monkeypatch):
        w = small_world(seed=3)
        first = (w.L_s, w.L_z, w.L_B)
        monkeypatch.setattr(world_module, "operator_norm", lambda *a, **k: pytest.fail("recomputed"))
        assert (w.L_s, w.L_z, w.L_B) == first
        for name in ("A_s", "A_a", "W_s", "W_z", "B_mat"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(w, name)[0, 0] = 1.0


class TestMakeWorlds:
    @given(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 6), st.integers(1, 6),
                              st.floats(0.05, 0.99), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
                              st.integers(0, 2 ** 32 - 1)),
                    min_size=0, max_size=40))
    @example([(1, 1, 1, 0.5, 1.0, 1.0, 0)])
    @example([(6, 4, 4, 0.9, 1.0, 1.0, 0)] * 3)
    @settings(max_examples=60, deadline=None)
    def test_block_matches_one_world_at_a_time(self, rows):
        recipes = [dict(state_dim=n, action_dim=a, d_z=d, target_L_s=ls, target_L_z=lz,
                        target_L_B=lb, seed=seed) for n, a, d, ls, lz, lb, seed in rows]
        worlds = make_worlds(recipes)
        assert len(worlds) == len(recipes)
        for w, recipe in zip(worlds, recipes, strict=True):
            mats, (l_s, l_z, l_b) = loop_make_world(**recipe)
            assert w.config == world_module.WorldConfig(**recipe)
            for name, mat in mats.items():
                assert getattr(w, name).tobytes() == mat.tobytes(), name
            assert (w.L_s, w.L_z, w.L_B) == (l_s, l_z, l_b)
            assert type(w.L_s) is float

    def test_stacked_operator_norms_match_one_at_a_time(self):
        rng = np.random.default_rng(8)
        stack = rng.normal(size=(30, 5, 3)) * 10 ** rng.uniform(-3, 3, size=(30, 1, 1))
        want = np.array([top_singular(m) for m in stack])
        assert operator_norm(stack).tobytes() == want.tobytes()
        assert operator_norm(np.zeros((2, 0, 3))).tolist() == [0.0, 0.0]
        with pytest.raises(ShapeMismatch):
            operator_norm(np.ones((2, 2, 2, 2)))

    def test_recipes_checked_before_draws(self, monkeypatch):
        draw = world_module._draw

        def zero_feature_map(cfg):  # a degenerate draw for seeds >= 100
            mats = draw(cfg)
            return mats if cfg.seed < 100 else mats[:4] + (0 * mats[4],)

        monkeypatch.setattr(world_module, "_draw", zero_feature_map)
        recipes = [dict(seed=1), dict(seed=100), dict(seed=2)]
        with pytest.raises(UnstableWorld, match="feature map norm"):
            make_worlds(recipes)
        with pytest.raises(RangeError, match="target_L_z"):  # though a draw before it is bad
            make_worlds(recipes + [dict(target_L_z=0.0)])
        assert len(make_worlds(recipes[::2])) == 2

    @pytest.mark.parametrize("name", ["target_L_z", "target_L_B"])
    @pytest.mark.parametrize("value", [0.0, -1.0, MAX_SCALE * 1.01, 1e300, math.inf, math.nan])
    def test_gain_targets_in_range(self, name, value):
        with pytest.raises(RangeError, match=name):
            make_world(**{name: value})
        assert getattr(make_world(**{name: MAX_SCALE}).config, name) == MAX_SCALE

    @pytest.mark.parametrize("value", [0.0, 1e-300, 9.9e-7, MAX_SCALE * 1.01, math.nan])
    def test_policy_noise_in_range(self, value):
        # the policy KL divides by 2 sigma_pi^2, which is 0.0 at 1e-300
        with pytest.raises(RangeError, match="sigma_pi"):
            make_world(sigma_pi=value)
        for ok in (1e-6, MAX_SCALE):
            assert make_world(sigma_pi=ok).sigma_pi == ok


class TestDynamics:
    def test_step_is_affine_composition(self):
        w = small_world(seed=1)
        rng = np.random.default_rng(0)
        s = rng.normal(size=w.state_dim)
        z = rng.normal(size=w.d_z)
        act = w.W_s @ s + w.W_z @ z
        np.testing.assert_array_equal(rollout(w, s, z[None]), [s, w.A_s @ s + w.A_a @ act])

    def test_lipschitz_certificate(self):
        w = small_world(seed=5)
        rng = np.random.default_rng(9)
        for _ in range(300):
            s1, s2 = rng.normal(size=(2, w.state_dim))
            z1, z2 = rng.normal(size=(2, w.d_z))
            lhs = np.linalg.norm(step(w, s1, z1) - step(w, s2, z2))
            rhs = w.L_s * np.linalg.norm(s1 - s2) + w.L_z * np.linalg.norm(z1 - z2)
            assert lhs <= rhs + 1e-9

    def test_rollout_shape_and_determinism(self):
        w = small_world(seed=7)
        rng = np.random.default_rng(2)
        z_seq = rng.normal(size=(20, w.d_z))
        s1 = rng.normal(size=w.state_dim)
        states_a = rollout(w, s1, z_seq)
        states_b = rollout(w, s1, z_seq)
        assert states_a.shape == (21, w.state_dim)
        np.testing.assert_array_equal(states_a, states_b)
        np.testing.assert_array_equal(states_a[0], s1)
        # each transition is exactly one step of the mean dynamics
        for t in range(20):
            np.testing.assert_allclose(states_a[t + 1], step(w, states_a[t], z_seq[t]), rtol=1e-13)

    def test_rollout_stays_bounded_under_contraction(self):
        w = small_world(seed=11)
        rng = np.random.default_rng(3)
        z_seq = np.tile(project_to_sphere(rng.normal(size=w.d_z)), (400, 1))
        states = rollout(w, np.zeros(w.state_dim), z_seq)
        # geometric series bound: ||s_t|| <= L_z sqrt(d_z) / (1 - L_s)
        limit = w.L_z * np.sqrt(w.d_z) / (1 - w.L_s)
        assert np.linalg.norm(states, axis=1).max() <= limit + 1e-9

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_rollout_matches_policy_mean_loop(self, seed, n_steps):
        rng = np.random.default_rng(seed)
        w = make_world(**world_recipe(rng))
        z_seq = rng.normal(size=(n_steps, w.d_z))
        s1 = rng.normal(size=w.state_dim)
        np.testing.assert_array_equal(rollout(w, s1, z_seq), loop_rollout(w, s1, z_seq))

    @given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 70), min_size=1, max_size=24))
    @example(1, [0])
    @example(2, [0, 0, 0])
    @example(3, [5, 0, 70, 5, 0, 5, 70])
    @settings(max_examples=60, deadline=None)
    def test_rollouts_match_per_sequence_loop(self, seed, lengths):
        rng = np.random.default_rng(seed)
        w = make_world(**world_recipe(rng))
        z_seqs = [rng.normal(size=(n, w.d_z)) for n in lengths]
        s1s = rng.normal(size=(len(lengths), w.state_dim))
        for got, s1, z_seq in zip(rollouts(w, s1s, z_seqs), s1s, z_seqs, strict=True):
            np.testing.assert_array_equal(got, loop_rollout(w, s1, z_seq))

    @given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 70), min_size=1, max_size=24))
    @example(4, [0])
    @example(5, [0, 0, 0])
    @example(6, [5, 0, 70, 5, 0, 5, 70])
    @settings(max_examples=40, deadline=None)
    def test_rollouts_in_many_worlds_match_per_sequence_loop(self, seed, lengths):
        # zero-padded stacked matrices sum in another order, so only to rounding
        rng = np.random.default_rng(seed)
        worlds = [make_world(**world_recipe(rng)) for _ in lengths]
        worlds[2::3] = worlds[:1] * len(worlds[2::3])  # a world may recur among others
        z_seqs = [rng.normal(size=(n, w.d_z)) for n, w in zip(lengths, worlds)]
        s1s = [rng.normal(size=w.state_dim) for w in worlds]
        got = rollouts(worlds, s1s, z_seqs)
        for states, w, s1, z_seq in zip(got, worlds, s1s, z_seqs, strict=True):
            np.testing.assert_allclose(states, loop_rollout(w, s1, z_seq), rtol=1e-13, atol=1e-14)

    def test_one_world_per_sequence_required(self):
        w = small_world()
        with pytest.raises(CountMismatch, match="one world per latent sequence"):
            rollouts([w], np.zeros((2, w.state_dim)), [np.zeros((3, w.d_z))] * 2)

    def test_dimension_checks(self):
        w = small_world()
        with pytest.raises(DimensionMismatch):
            rollout(w, np.zeros(w.state_dim + 1), np.zeros((5, w.d_z)))
        with pytest.raises(DimensionMismatch):
            rollout(w, np.zeros(w.state_dim), np.zeros((5, w.d_z + 2)))
        with pytest.raises(DimensionMismatch):
            rollouts(w, np.zeros((2, w.state_dim)), [np.zeros((3, w.d_z)), np.zeros(3)])

    def test_empty_or_unpaired_batch_rejected_in_one_line(self):
        w = small_world()
        for s1s, z_seqs in (((), ()), ((np.zeros(w.state_dim),), ())):
            with pytest.raises(CountMismatch) as err:
                rollouts(w, s1s, z_seqs)
            # a class the CLI maps to exit code 2, with a one-line message
            assert isinstance(err.value, InputError)
            assert "\n" not in str(err.value)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

class TestExtraction:
    def test_matches_loop_oracle(self):
        w = small_world(seed=17)
        rng = np.random.default_rng(4)
        states = rng.normal(size=(12, w.state_dim))
        for lookahead in (1, 3, 5, 30):
            cfg = ExtractionConfig(lookahead=lookahead)
            got = extract_latents(w, cfg, states)
            want = extraction_oracle(w.B_mat.tolist(), lookahead, states.tolist())
            np.testing.assert_allclose(got, want, rtol=1e-10)
            assert got.shape == (11, w.d_z)

    def test_windowed_averages_match_row_loop(self):
        rng = np.random.default_rng(12)
        for d_z in range(1, 13):
            w = small_world(seed=d_z, d_z=d_z)
            for n_states in range(2, 61):
                states = rng.normal(size=(n_states, w.state_dim)) * 10 ** rng.uniform(-3, 3)
                for lookahead in range(1, 17):
                    cfg = ExtractionConfig(lookahead=lookahead)
                    np.testing.assert_array_equal(lookahead_averages(w, cfg, states),
                                                  loop_lookahead_averages(w, cfg, states))

    @given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(2, 60), min_size=1, max_size=12),
           st.integers(1, 12), st.integers(1, 16))
    @example(0, [2, 3, 2], 1, 16)  # every sequence shorter than the lookahead
    @example(1, [60] * 12, 1, 9)  # one-column features over windows of 8 and more
    @settings(max_examples=80, deadline=None)
    def test_packed_matches_per_sequence_loop(self, seed, lengths, d_z, lookahead):
        # each packed sequence has the bits of the row loop on it alone; -0.0
        # and 0.0 differ as bytes, though assert_array_equal takes them as equal
        rng = np.random.default_rng(seed)
        w = small_world(seed=seed % 1000, d_z=d_z)
        cfg = ExtractionConfig(lookahead=lookahead)
        seqs = [rng.normal(size=(n, w.state_dim)) * 10 ** rng.uniform(-3, 3) for n in lengths]
        cuts = np.cumsum(lengths)[:-1] - np.arange(1, len(lengths))  # T - 1 rows each
        averages = np.split(lookahead_averages(w, cfg, np.concatenate(seqs), lengths), cuts)
        latents = np.split(extract_latents(w, cfg, np.concatenate(seqs), lengths), cuts)
        for states, avg, z in zip(seqs, averages, latents, strict=True):
            want = loop_lookahead_averages(w, cfg, states)
            np.testing.assert_array_equal(avg.view("<u8"), want.view("<u8"))
            np.testing.assert_array_equal(z.view("<u8"),
                                          project_rows(want, cfg.norm_floor).view("<u8"))

    def test_packing_checks(self):
        w = small_world()
        cfg = ExtractionConfig()
        states = np.ones((7, w.state_dim))
        for lengths in ([3, 3], [3, 1, 3], [7, 0], []):
            with pytest.raises(ShapeMismatch, match="do not split 7 states"):
                lookahead_averages(w, cfg, states, lengths)
        for few in (states[:1], states[:0]):
            with pytest.raises(ShapeMismatch, match="at least two"):
                lookahead_averages(w, cfg, few, None if len(few) else [])
        # a zero feature row is named by its sequence and its own row
        states[4] = 0.0
        with pytest.raises(ZeroNormInput, match=r"^sample 1 row 0 has norm 0\.000e\+00"):
            extract_latents(w, ExtractionConfig(lookahead=1), states, [3, 4])

    def test_constant_states_give_constant_latent(self):
        w = small_world(seed=19)
        s = np.random.default_rng(5).normal(size=w.state_dim)
        states = np.tile(s, (6, 1))
        z = extract_latents(w, ExtractionConfig(lookahead=3), states)
        expected = project_to_sphere(w.B_mat @ s)
        for t in range(5):
            np.testing.assert_allclose(z[t], expected, rtol=1e-12)

    def test_lookahead_one_is_next_state_feature(self):
        w = small_world(seed=23)
        rng = np.random.default_rng(6)
        states = rng.normal(size=(8, w.state_dim))
        z = extract_latents(w, ExtractionConfig(lookahead=1), states)
        for t in range(7):
            np.testing.assert_allclose(
                z[t], project_to_sphere(w.B_mat @ states[t + 1]), rtol=1e-12
            )

    def test_last_step_window_shrinks_to_final_state(self):
        w = small_world(seed=29)
        rng = np.random.default_rng(7)
        states = rng.normal(size=(9, w.state_dim))
        z = extract_latents(w, ExtractionConfig(lookahead=4), states)
        np.testing.assert_allclose(
            z[-1], project_to_sphere(w.B_mat @ states[-1]), rtol=1e-12
        )

    def test_rows_live_on_sphere(self):
        w = small_world(seed=31)
        rng = np.random.default_rng(8)
        states = rng.normal(size=(30, w.state_dim))
        z = extract_latents(w, ExtractionConfig(lookahead=4), states)
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), np.sqrt(w.d_z), rtol=1e-12)

    def test_telescoping_identity_on_full_windows(self):
        # pre-projection averages with full windows differ by exactly
        # (B s_{t+L+1} - B s_{t+1}) / L
        w = small_world(seed=37)
        rng = np.random.default_rng(9)
        states = rng.normal(size=(20, w.state_dim))
        span = 4
        avgs = lookahead_averages(w, ExtractionConfig(lookahead=span), states)
        n_states = states.shape[0]
        for i in range(n_states - 1 - span - 1):
            lhs = avgs[i + 1] - avgs[i]
            rhs = (w.B_mat @ states[i + 1 + span] - w.B_mat @ states[i + 1]) / span
            assert np.linalg.norm(lhs - rhs, ord=np.inf) <= 1e-10

    def test_lookahead_validation(self):
        with pytest.raises(RangeError):
            ExtractionConfig(lookahead=0)

    @pytest.mark.parametrize("value", [0.0, -1.0, 1.01, 1e300, math.nan])
    def test_norm_floor_in_range(self, value):
        with pytest.raises(RangeError, match="norm_floor"):
            ExtractionConfig(norm_floor=value)
        assert ExtractionConfig(norm_floor=1.0).norm_floor == 1.0


# ---------------------------------------------------------------------------
# action divergence
# ---------------------------------------------------------------------------

class TestActionKL:
    def test_identical_latents_give_zero(self):
        w = small_world(seed=41)
        rng = np.random.default_rng(10)
        z = rng.normal(size=(6, w.d_z))
        states = rng.normal(size=(7, w.state_dim))
        assert action_kl(w, states, z, z) == 0.0

    def test_matches_per_step_loop(self):
        w = small_world(seed=42)
        rng = np.random.default_rng(13)
        states = rng.normal(size=(9, w.state_dim))
        z_ref = rng.normal(size=(8, w.d_z))
        z_hat = rng.normal(size=(8, w.d_z))
        want = 0.0
        for t in range(8):
            gap = policy_mean(w, states[t], z_hat[t]) - policy_mean(w, states[t], z_ref[t])
            want += float(gap @ gap) / (2 * w.sigma_pi ** 2) / 8
        assert np.isclose(action_kl(w, states, z_ref, z_hat), want, rtol=1e-12)

    def test_single_step_closed_form(self):
        w = small_world(seed=43)
        rng = np.random.default_rng(11)
        s = rng.normal(size=w.state_dim)
        z_ref = rng.normal(size=w.d_z)
        z_hat = rng.normal(size=w.d_z)
        gap = w.W_z @ (z_hat - z_ref)
        expected = float(gap @ gap) / (2 * w.sigma_pi ** 2)
        got = action_kl(w, s[None, :], z_ref[None, :], z_hat[None, :])
        assert np.isclose(got, expected, rtol=1e-12)

    def test_matches_monte_carlo_kl(self):
        w = small_world(seed=47)
        rng = np.random.default_rng(12)
        s = rng.normal(size=w.state_dim)
        z_ref = rng.normal(size=w.d_z)
        z_hat = z_ref + 0.05 * rng.normal(size=w.d_z)
        mu_p = policy_mean(w, s, z_ref)
        mu_q = policy_mean(w, s, z_hat)
        mc, se = mc_gaussian_kl(mu_p, mu_q, w.sigma_pi, np.random.default_rng(99))
        got = action_kl(w, s[None, :], z_ref[None, :], z_hat[None, :])
        assert abs(got - mc) <= 3 * se, f"analytic {got} vs MC {mc} +- {se}"

    def test_mean_over_steps(self):
        w = small_world(seed=53)
        rng = np.random.default_rng(13)
        states = rng.normal(size=(4, w.state_dim))
        z_ref = rng.normal(size=(4, w.d_z))
        z_hat = rng.normal(size=(4, w.d_z))
        per_step = [
            action_kl(w, states[t:t + 1], z_ref[t:t + 1], z_hat[t:t + 1])
            for t in range(4)
        ]
        got = action_kl(w, states, z_ref, z_hat)
        assert np.isclose(got, np.mean(per_step), rtol=1e-12)

    def test_shape_errors(self):
        w = small_world()
        z = np.zeros((5, w.d_z))
        with pytest.raises(CountMismatch):
            action_kl(w, np.zeros((3, w.state_dim)), z, z)


# ---------------------------------------------------------------------------
# vocabulary, prompts, dataset
# ---------------------------------------------------------------------------

class TestVocabulary:
    def test_round_trip_and_separator(self):
        v = make_vocabulary(("walk", "run"), separator="then", d_text=16, embed_seed=3)
        assert len(v.words) == 3
        assert v.words[v.separator_id] == "then"
        ids = v.encode("walk then run")
        assert ids == (0, 2, 1)

    def test_unknown_word_raises(self):
        v = make_vocabulary(("walk",), d_text=8)
        with pytest.raises(UnknownToken):
            v.encode("fly")

    def test_embeddings_unit_norm_and_deterministic(self):
        a = make_vocabulary(("walk", "run"), d_text=16, embed_seed=5)
        b = make_vocabulary(("walk", "run"), d_text=16, embed_seed=5)
        np.testing.assert_array_equal(a.embeddings, b.embeddings)
        np.testing.assert_allclose(np.linalg.norm(a.embeddings, axis=1), 1.0, rtol=1e-12)


class TestDataset:
    def setup_method(self):
        self.world = small_world(seed=61, d_z=8)
        self.extraction = ExtractionConfig(lookahead=4)
        self.spec = DatasetSpec(n_samples=60, dur_min=8, dur_max=16)
        self.vocab = make_vocabulary(self.spec.behaviors, self.spec.separator,
                                     self.spec.d_text, self.spec.embed_seed)

    def test_deterministic_generation(self):
        a = generate_dataset(self.world, self.extraction, self.spec, self.vocab, seed=100)
        b = generate_dataset(self.world, self.extraction, self.spec, self.vocab, seed=100)
        assert len(a) == 60
        for sa, sb in zip(a, b):
            assert sa.token_ids == sb.token_ids
            np.testing.assert_array_equal(sa.states, sb.states)
            np.testing.assert_array_equal(sa.latents, sb.latents)
            np.testing.assert_array_equal(sa.latents, sb.latents)

    @given(corpus_cases())
    @example(base_corpus_case())
    @example((dict(state_dim=1, action_dim=2, d_z=1, target_L_s=0.85, target_L_z=1.2,
                   target_L_B=1.0, sigma_pi=0.1, seed=3),  # windows longer than every script
              ExtractionConfig(lookahead=12),
              DatasetSpec(n_samples=40, behaviors=("walk", "run", "turn"), dur_min=2,
                          dur_max=4, stage_probs=(0.5, 0.5)), 5))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_sample_reference(self, case):
        # every sample drawn, rolled and extracted alone by the loop oracles
        recipe, extraction, spec, seed = case
        world = make_world(**recipe)
        vocab = make_vocabulary(spec.behaviors, spec.separator, spec.d_text, spec.embed_seed)
        protos = prototype_directions(len(spec.behaviors), world.d_z, spec.embed_seed)
        got = generate_dataset(world, extraction, spec, vocab, seed=seed)
        want = [draw_and_roll_sample(world, extraction, spec, vocab, protos, sq)
                for sq in np.random.SeedSequence(seed).spawn(spec.n_samples)]
        for sample, (tokens, states, latents) in zip(got, want, strict=True):
            assert sample.token_ids == tokens
            assert sample.states.tobytes() == states.tobytes()
            assert sample.latents.tobytes() == latents.tobytes()

    def test_diverging_sample_raises(self):
        # no valid recipe makes a world expand, so its state map is scaled up
        world = replace(self.world, A_s=self.world.A_s * 1e100)
        with np.errstate(all="ignore"), \
                pytest.raises(NonFiniteState, match="^rollout diverged to non-finite states$"):
            generate_dataset(world, self.extraction, self.spec, self.vocab, seed=100)

    def test_different_seeds_differ(self):
        a = generate_dataset(self.world, self.extraction, self.spec, self.vocab, seed=100)
        b = generate_dataset(self.world, self.extraction, self.spec, self.vocab, seed=101)
        assert any(
            sa.token_ids != sb.token_ids or not np.array_equal(sa.states, sb.states)
            for sa, sb in zip(a, b)
        )

    def test_sample_shapes_and_token_structure(self):
        samples = generate_dataset(self.world, self.extraction, self.spec, self.vocab, seed=7)
        sep = self.vocab.separator_id
        for s in samples:
            assert s.states.shape[0] == s.latents.shape[0] + 1
            assert s.latents.shape[1] == self.world.d_z
            # tokens alternate behavior, separator, behavior, ...
            assert s.token_ids[0] != sep and s.token_ids[-1] != sep
            for i, t in enumerate(s.token_ids):
                assert (t == sep) == (i % 2 == 1)
            n_stages = (len(s.token_ids) + 1) // 2
            assert 1 <= n_stages <= len(self.spec.stage_probs)
            # no immediate behavior repeats
            stages = [t for t in s.token_ids if t != sep]
            assert all(x != y for x, y in zip(stages, stages[1:]))

    def test_latents_on_sphere(self):
        samples = generate_dataset(self.world, self.extraction, self.spec, self.vocab, seed=8)
        for s in samples[:10]:
            norms = np.linalg.norm(s.latents, axis=1)
            np.testing.assert_allclose(norms, np.sqrt(self.world.d_z), rtol=1e-9)

    def test_per_behavior_latent_clusters_separate(self):
        # silhouette of single-stage samples, computed with plain loops
        spec = DatasetSpec(n_samples=160, dur_min=8, dur_max=16, stage_probs=(1.0,))
        samples = generate_dataset(self.world, self.extraction, spec, self.vocab, seed=9)
        means = np.array([s.latents.mean(axis=0) for s in samples])
        labels = np.array([s.token_ids[0] for s in samples])
        sil = []
        for i in range(len(means)):
            same = [np.linalg.norm(means[i] - means[j])
                    for j in range(len(means)) if j != i and labels[j] == labels[i]]
            if not same:
                continue
            a = float(np.mean(same))
            b = min(
                float(np.mean([np.linalg.norm(means[i] - means[j])
                               for j in range(len(means)) if labels[j] == lab]))
                for lab in set(labels) - {labels[i]}
            )
            sil.append((b - a) / max(a, b))
        # measured 0.535 for this world/seed; anything clearly positive means
        # the per-behavior clusters are real
        assert np.mean(sil) > 0.3, f"mean silhouette {np.mean(sil):.3f}"

    def test_round_trip_through_dict(self):
        samples = generate_dataset(self.world, self.extraction, self.spec, self.vocab, seed=11)
        doc = dataset_to_dict(self.world, self.extraction, self.spec, 11, samples)
        world2, extraction2, spec2, vocab2, seed2, samples2 = dataset_from_dict(doc)
        assert seed2 == 11
        assert spec2 == self.spec
        np.testing.assert_allclose(world2.A_s, self.world.A_s, rtol=1e-12)
        np.testing.assert_array_equal(vocab2.embeddings, self.vocab.embeddings)
        for sa, sb in zip(samples, samples2):
            assert sa.token_ids == sb.token_ids
            np.testing.assert_array_equal(sa.states, sb.states)
            np.testing.assert_array_equal(sa.latents, sb.latents)

    def test_samples_must_fit_world_and_vocabulary(self):
        samples = generate_dataset(self.world, self.extraction, self.spec, self.vocab, seed=12)
        good = json.loads(canon_dumps(
            dataset_to_dict(self.world, self.extraction, self.spec, 12, samples)))
        sep = self.vocab.separator_id

        def poisoned(z):
            z[0, 0] = np.nan
            return z
        edits = {
            "narrow states": lambda s: s.update(states=f8(unf8(s["states"])[:, :-1])),
            "narrow latents": lambda s: s.update(latents=f8(unf8(s["latents"])[:, :-1])),
            "no frames": lambda s: s.update(states=f8(unf8(s["states"])[:1]),
                                            latents=f8(np.zeros((0, self.world.d_z)))),
            "one state too few": lambda s: s.update(states=f8(unf8(s["states"])[:-1])),
            "token out of range": lambda s: s.update(prompt_tokens=[sep + 1]),
            "separator alone": lambda s: s.update(prompt_tokens=[sep]),
            "negative token": lambda s: s.update(prompt_tokens=[-1]),
            "non-finite latent": lambda s: s.update(latents=f8(poisoned(unf8(s["latents"])))),
            "old nested lists": lambda s: s.update(states=unf8(s["states"]).tolist()),
        }
        for name, edit in edits.items():
            doc = json.loads(json.dumps(good))
            edit(doc["samples"][3])
            with pytest.raises(InvalidSpec, match=r"samples\[3\]") as info:
                dataset_from_dict(doc)
            assert "\n" not in str(info.value), name
        dataset_from_dict(good)

    def test_spec_validation(self):
        with pytest.raises(InvalidSpec):
            DatasetSpec(n_samples=0)
        with pytest.raises(InvalidSpec):
            DatasetSpec(dur_min=10, dur_max=5)
        with pytest.raises(InvalidSpec):
            DatasetSpec(stage_probs=(0.5, 0.4))
        with pytest.raises(InvalidSpec):
            DatasetSpec(behaviors=("walk", "walk"))
        for ok in (0.0, MAX_SCALE):
            assert DatasetSpec(init_state_scale=ok).init_state_scale == ok
        for bad in (-1e-3, MAX_SCALE * 1.01, 1e308, float("inf"), float("nan")):
            with pytest.raises(RangeError, match="init_state_scale"):
                DatasetSpec(init_state_scale=bad)

    def test_one_behavior_needs_one_stage(self):
        # later stages must differ from the one before, which one behavior cannot
        for probs in ((0.6, 0.4), (0.0, 1.0), (0.5, 0.0, 0.5)):
            with pytest.raises(InvalidSpec, match="one behavior") as err:
                DatasetSpec(behaviors=("walk",), stage_probs=probs)
            assert "\n" not in str(err.value)
        for probs in ((1.0,), (1.0, 0.0)):
            DatasetSpec(behaviors=("walk",), stage_probs=probs)

    def test_prototypes_orthonormal_when_room(self):
        protos = prototype_directions(6, 8, seed=2)
        gram = protos @ protos.T
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)

    def test_sample_count_mismatch_raises(self):
        with pytest.raises(CountMismatch):
            Sample(token_ids=(0,), states=np.zeros((5, 3)), latents=np.zeros((5, 2)))
