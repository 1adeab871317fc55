"""Tests for the variational bottleneck.

The similarity and contrastive losses are checked against brute-force
log-sum-exp oracles written in plain loops; the KL term against a Monte-Carlo
estimate; and the entire assembled gradient against central finite
differences on a toy model small enough to probe every parameter.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from behavegen import bottleneck
from behavegen.bottleneck import (
    _PACK_BYTES,
    BatchItem,
    BottleneckConfig,
    BottleneckModel,
    Posterior,
    align_rows,
    batch_from_samples,
    _chunks,
    contrastive_loss,
    decode,
    decode_packed,
    embed_program,
    embed_text,
    encode,
    encode_packed,
    kl_prior_loss,
    make_noises,
    pad_to_multiple,
    reconstruction_loss,
    sample_posterior,
    similarity_matrix,
    train_bottleneck,
    vbb_grad,
    vbb_loss,
)
from behavegen.errors import (
    DegenerateBatch,
    NonUnitInput,
    RangeError,
    ShapeMismatch,
)
from behavegen.nn import Segments, TrainConfig, finite_difference_grads, relative_grad_error
from behavegen.world import (
    DatasetSpec,
    ExtractionConfig,
    generate_dataset,
    make_vocabulary,
    make_world,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def similarity_oracle(progs, texts, lam_tok, lam_frm):
    """Four nested loops, no vectorisation, no stabilisation tricks."""
    size = len(progs)
    r = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            f_vals = []
            for t in range(len(progs[i])):
                cos = [
                    sum(progs[i][t][d] * texts[j][k][d] for d in range(len(progs[i][t])))
                    for k in range(len(texts[j]))
                ]
                mean_exp = sum(math.exp(c / lam_tok) for c in cos) / len(cos)
                f_vals.append(lam_tok * math.log(mean_exp))
            weights = [math.exp(f / lam_frm) for f in f_vals]
            total_w = sum(weights)
            r[i][j] = sum(w / total_w * f for w, f in zip(weights, f_vals))
    return np.asarray(r)


def contrastive_oracle(r_mat, gamma):
    size = len(r_mat)
    s = [[gamma * r_mat[i][j] for j in range(size)] for i in range(size)]
    row_terms = []
    col_terms = []
    for i in range(size):
        lse = math.log(sum(math.exp(v) for v in s[i]))
        row_terms.append(lse - s[i][i])
    for j in range(size):
        lse = math.log(sum(math.exp(s[i][j]) for i in range(size)))
        col_terms.append(lse - s[j][j])
    return 0.5 * (sum(row_terms) / size + sum(col_terms) / size)


def mc_prior_kl(mu, log_var, rng, n=300_000):
    """Monte-Carlo KL(N(mu, diag e^lv) || N(0, I)) summed over dims."""
    sigma = np.exp(0.5 * log_var)
    x = mu + sigma * rng.standard_normal(size=(n, mu.size))
    log_q = -0.5 * (((x - mu) / sigma) ** 2 + log_var + math.log(2 * math.pi)).sum(axis=1)
    log_p = -0.5 * (x ** 2 + math.log(2 * math.pi)).sum(axis=1)
    vals = log_q - log_p
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


def _pair_pooling(prog, text, lam_tok, lam_frm):
    """Pooled score of one (program, text) pair and its pooling weights."""
    scaled = prog @ text.T / lam_tok
    peak = scaled.max(axis=1, keepdims=True)
    expd = np.exp(scaled - peak)
    f_vec = lam_tok * (peak[:, 0] + np.log(expd.mean(axis=1)))
    a_mat = expd / expd.sum(axis=1, keepdims=True)
    g = f_vec / lam_frm
    w_vec = np.exp(g - g.max())
    w_vec /= w_vec.sum()
    return float(w_vec @ f_vec), a_mat, w_vec, f_vec


def per_item_vbb(model, world, batch, noises, grad=False):
    """The VBB objective one item and one (program, text) pair at a time.

    Reference for the packed step: every item runs through the encoder and
    decoder on its own, and similarity loops over all B^2 pairs.  With
    ``grad`` it also accumulates parameter gradients.
    """
    cfg = model.cfg
    b = len(batch)
    items = []
    for item, noise in zip(batch, noises):
        z_pad, n_real = pad_to_multiple(np.asarray(item.latents, dtype=float),
                                        model.compression)
        mu, log_var, enc_cache = model.encoder.forward(z_pad)
        sigma = np.exp(0.5 * log_var)
        m = mu + sigma * noise
        z_hat, dec_cache = model.decoder.forward(m)
        v_m, pm_cache = model.P_m.forward(m)
        v_y, py_cache = model.P_y.forward(np.asarray(item.text_emb, dtype=float))
        m_norms = np.linalg.norm(v_m, axis=1)
        y_norms = np.linalg.norm(v_y, axis=1)
        items.append(dict(
            z_pad=z_pad, n_real=n_real, mu=mu, log_var=log_var, sigma=sigma,
            noise=noise, z_hat=z_hat, enc_cache=enc_cache, dec_cache=dec_cache,
            pm_cache=pm_cache, py_cache=py_cache, m_norms=m_norms, y_norms=y_norms,
            m_unit=v_m / m_norms[:, None], y_unit=v_y / y_norms[:, None],
            rec=reconstruction_loss(model, world, z_pad, z_hat, item.states, n_real),
            kl=kl_prior_loss(Posterior(mu=mu, log_var=log_var)),
        ))
    pairs = [[_pair_pooling(p["m_unit"], t["y_unit"], cfg.lambda_tok, cfg.lambda_frm)
              for t in items] for p in items]
    r_mat = np.array([[pair[0] for pair in row] for row in pairs])
    sem = contrastive_loss(r_mat, model.gamma)
    rec = sum(it["rec"] for it in items) / b
    kl = sum(it["kl"] for it in items) / b
    total = rec + cfg.beta * kl + cfg.lambda_sem * sem
    if not grad:
        return total
    # contrastive head, as in the assembled objective
    s_mat = model.gamma * r_mat
    p_rows = np.exp(s_mat - s_mat.max(axis=1, keepdims=True))
    p_rows /= p_rows.sum(axis=1, keepdims=True)
    p_cols = np.exp(s_mat - s_mat.max(axis=0, keepdims=True))
    p_cols /= p_cols.sum(axis=0, keepdims=True)
    eye = np.eye(b)
    dr = model.gamma * ((p_rows - eye) + (p_cols - eye)) / (2.0 * b)
    model.alpha.grad += cfg.lambda_sem * float((dr * r_mat).sum())
    dr = cfg.lambda_sem * dr
    d_m = [np.zeros_like(it["m_unit"]) for it in items]
    d_y = [np.zeros_like(it["y_unit"]) for it in items]
    for i, p in enumerate(items):
        for j, t in enumerate(items):
            r_ij, a_mat, w_vec, f_vec = pairs[i][j]
            dfd = dr[i, j] * w_vec * (1.0 + (f_vec - r_ij) / cfg.lambda_frm)
            dcos = dfd[:, None] * a_mat
            d_m[i] += dcos @ t["y_unit"]
            d_y[j] += dcos.T @ p["m_unit"]
    w_zt_w_z = world.W_z.T @ world.W_z
    for it, g, gy in zip(items, d_m, d_y):
        n_real = it["n_real"]
        diff = it["z_hat"][:n_real] - it["z_pad"][:n_real]
        dz_hat = np.zeros_like(it["z_hat"])
        dz_hat[:n_real] = (2.0 * diff + cfg.lambda_pi / world.sigma_pi ** 2
                           * (diff @ w_zt_w_z)) / n_real / b
        dm = model.decoder.backward(dz_hat, it["dec_cache"])
        u = it["m_unit"]
        dm = dm + model.P_m.backward(
            (g - (g * u).sum(axis=1, keepdims=True) * u) / it["m_norms"][:, None],
            it["pm_cache"])
        uy = it["y_unit"]
        model.P_y.backward(
            (gy - (gy * uy).sum(axis=1, keepdims=True) * uy) / it["y_norms"][:, None],
            it["py_cache"])
        kl_scale = cfg.beta / (b * it["mu"].size)
        dmu = dm + kl_scale * it["mu"]
        dlog_var = (dm * it["noise"] * 0.5 * it["sigma"]
                    + kl_scale * 0.5 * (np.exp(it["log_var"]) - 1.0))
        model.encoder.backward(dmu, dlog_var, it["enc_cache"])
    return total


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def toy_setup(seed=0):
    """Toy world + model with well under 500 parameters."""
    world = make_world(state_dim=3, action_dim=2, d_z=2, target_L_s=0.8,
                       target_L_z=0.9, target_L_B=1.0, sigma_pi=0.2, seed=seed)
    cfg = BottleneckConfig(d_z=2, d_m=3, d_e=3, width=4, levels=1, d_text=4,
                           beta=0.05, lambda_pi=0.1, lambda_sem=0.35,
                           lambda_tok=0.3, lambda_frm=0.3)
    model = BottleneckModel(cfg, seed=seed + 1)
    return world, model


def toy_batch(world, rng):
    items = []
    for t_len, k_len in ((4, 1), (5, 3)):  # length 5 exercises padding
        latents = unit_rows(rng, t_len, world.d_z) * np.sqrt(world.d_z)
        states = rng.normal(size=(t_len + 1, world.state_dim))
        text = unit_rows(rng, k_len, 4)
        items.append(BatchItem(latents=latents, states=states, text_emb=text))
    return items


# ---------------------------------------------------------------------------
# encode / decode shape contracts
# ---------------------------------------------------------------------------

class TestEncodeDecode:
    def setup_method(self):
        cfg = BottleneckConfig(d_z=4, d_m=6, d_e=5, width=8, levels=3, d_text=8)
        self.model = BottleneckModel(cfg, seed=3)

    def test_compression_factor(self):
        assert self.model.compression == 8

    def test_encode_shapes(self):
        z = np.random.default_rng(0).normal(size=(64, 4))
        post = encode(self.model, z)
        assert post.mu.shape == (8, 6)
        assert post.log_var.shape == (8, 6)

    def test_padding_rounds_up(self):
        z = np.random.default_rng(0).normal(size=(61, 4))
        post = encode(self.model, z)
        assert post.mu.shape[0] == 8

    def test_pad_to_multiple_repeats_last_frame(self):
        z = np.arange(12, dtype=float).reshape(3, 4)
        padded, n_real = pad_to_multiple(z, 8)
        assert n_real == 3
        assert padded.shape == (8, 4)
        for row in padded[3:]:
            np.testing.assert_array_equal(row, z[-1])

    def test_decode_shape(self):
        m = np.random.default_rng(1).normal(size=(8, 6))
        z_hat = decode(self.model, m)
        assert z_hat.shape == (64, 4)

    def test_sample_posterior(self):
        mu = np.ones((4, 6))
        log_var = np.full((4, 6), -2.0)
        post = Posterior(mu=mu, log_var=log_var)
        np.testing.assert_array_equal(sample_posterior(post, np.zeros((4, 6))), mu)
        noise = np.ones((4, 6))
        np.testing.assert_allclose(
            sample_posterior(post, noise), mu + np.exp(-1.0), rtol=1e-12
        )
        with pytest.raises(ShapeMismatch):
            sample_posterior(post, np.zeros((3, 6)))

    def test_encode_decode_deterministic(self):
        z = np.random.default_rng(5).normal(size=(16, 4))
        a = encode(self.model, z)
        b = encode(self.model, z)
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(decode(self.model, a.mu), decode(self.model, b.mu))


# ---------------------------------------------------------------------------
# loss terms against oracles
# ---------------------------------------------------------------------------

class TestKLPrior:
    def test_standard_normal_posterior_is_zero(self):
        post = Posterior(mu=np.zeros((3, 4)), log_var=np.zeros((3, 4)))
        assert kl_prior_loss(post) == 0.0

    def test_unit_mean_example(self):
        post = Posterior(mu=np.ones((1, 1)), log_var=np.zeros((1, 1)))
        assert np.isclose(kl_prior_loss(post), 0.5, rtol=1e-15)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(2)
        mu = rng.normal(size=5) * 0.8
        log_var = rng.normal(size=5) * 0.4
        post = Posterior(mu=mu[None, :], log_var=log_var[None, :])
        analytic_total = kl_prior_loss(post) * 5  # mean over entries -> sum over dims
        mc, se = mc_prior_kl(mu, log_var, np.random.default_rng(77))
        assert abs(analytic_total - mc) <= 3 * se, f"{analytic_total} vs {mc} +- {se}"


class TestReconstruction:
    def test_hand_computed_example(self):
        world, model = toy_setup()
        z = np.zeros((2, 2))
        z_hat = np.array([[1.0, 0.0], [0.0, 1.0]])
        states = np.zeros((2, 3))
        # mse = (1 + 1) / 2 = 1; policy term: ||W_z e_i||^2 / (2 s^2), averaged
        gap0 = world.W_z @ np.array([1.0, 0.0])
        gap1 = world.W_z @ np.array([0.0, 1.0])
        policy = (gap0 @ gap0 + gap1 @ gap1) / (2 * world.sigma_pi ** 2) / 2
        want = 1.0 + model.cfg.lambda_pi * policy
        got = reconstruction_loss(model, world, z, z_hat, states)
        assert np.isclose(got, want, rtol=1e-12)

    def test_padding_mask_excludes_tail(self):
        world, model = toy_setup()
        z = np.zeros((4, 2))
        z_hat = np.zeros((4, 2))
        z_hat[2:] = 100.0  # only padded frames disagree
        states = np.zeros((4, 3))
        assert reconstruction_loss(model, world, z, z_hat, states, n_real=2) == 0.0

    def test_perfect_reconstruction_is_zero(self):
        world, model = toy_setup()
        rng = np.random.default_rng(3)
        z = rng.normal(size=(5, 2))
        states = rng.normal(size=(6, 3))
        assert reconstruction_loss(model, world, z, z.copy(), states) == 0.0


class TestSimilarity:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            size = int(rng.integers(2, 6))
            progs = [unit_rows(rng, int(rng.integers(1, 5)), 6) for _ in range(size)]
            texts = [unit_rows(rng, int(rng.integers(1, 4)), 6) for _ in range(size)]
            got = similarity_matrix(progs, texts, 0.25, 0.4)
            want = similarity_oracle(
                [p.tolist() for p in progs], [t.tolist() for t in texts], 0.25, 0.4
            )
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_entries_bounded_by_cosine_range(self):
        rng = np.random.default_rng(5)
        progs = [unit_rows(rng, 7, 8) for _ in range(4)]
        texts = [unit_rows(rng, 3, 8) for _ in range(4)]
        r = similarity_matrix(progs, texts, 0.2, 0.2)
        assert np.all(r <= 1.0 + 1e-12) and np.all(r >= -1.0 - 1e-12)

    def test_token_duplication_invariance(self):
        # the token pool is a mean inside the log, so repeating every token
        # leaves the score unchanged
        rng = np.random.default_rng(6)
        progs = [unit_rows(rng, 4, 5) for _ in range(2)]
        texts = [unit_rows(rng, 3, 5) for _ in range(2)]
        doubled = [np.vstack([t, t]) for t in texts]
        a = similarity_matrix(progs, texts, 0.3, 0.3)
        b = similarity_matrix(progs, doubled, 0.3, 0.3)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_perfect_match_scores_highest(self):
        rng = np.random.default_rng(7)
        base = unit_rows(rng, 1, 6)
        other = unit_rows(rng, 1, 6)
        progs = [np.vstack([base] * 3), np.vstack([other] * 3)]
        texts = [base.copy(), other.copy()]
        r = similarity_matrix(progs, texts, 0.2, 0.2)
        assert r[0, 0] > r[0, 1] and r[1, 1] > r[1, 0]
        assert np.isclose(r[0, 0], 1.0, atol=1e-9)

    def test_non_unit_rows_rejected(self):
        rng = np.random.default_rng(8)
        progs = [unit_rows(rng, 3, 4) * 1.01]
        texts = [unit_rows(rng, 2, 4)]
        with pytest.raises(NonUnitInput):
            similarity_matrix(progs, texts, 0.2, 0.2)

    def test_temperature_validation(self):
        rng = np.random.default_rng(9)
        progs = [unit_rows(rng, 2, 4)]
        with pytest.raises(RangeError):
            similarity_matrix(progs, progs, 0.0, 0.2)


class TestContrastive:
    def test_matches_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            size = int(rng.integers(2, 7))
            r = rng.uniform(-1, 1, size=(size, size))
            gamma = float(rng.uniform(0.5, 20))
            assert np.isclose(
                contrastive_loss(r, gamma), contrastive_oracle(r.tolist(), gamma),
                rtol=1e-12,
            )

    def test_all_equal_matrix_gives_log_batch(self):
        for size in (2, 4, 8):
            r = np.full((size, size), 0.37)
            assert np.isclose(contrastive_loss(r, 5.0), math.log(size), rtol=1e-12)

    def test_diagonal_dominance_lowers_loss(self):
        size = 6
        r = np.full((size, size), 0.1) + 0.8 * np.eye(size)
        shuffled = np.roll(r, 1, axis=1)
        assert contrastive_loss(r, 10.0) < contrastive_loss(shuffled, 10.0)

    def test_batch_and_gamma_validation(self):
        with pytest.raises(DegenerateBatch):
            contrastive_loss(np.zeros((1, 1)), 1.0)
        with pytest.raises(RangeError):
            contrastive_loss(np.zeros((2, 2)), 0.0)

    def test_extreme_logits_stay_finite(self):
        r = np.eye(3) * 1.0 - 0.5
        assert np.isfinite(contrastive_loss(r, 1000.0))


# ---------------------------------------------------------------------------
# assembled objective and its gradient
# ---------------------------------------------------------------------------

class TestVBBLoss:
    def test_components_combine_linearly(self):
        world, model = toy_setup(seed=11)
        rng = np.random.default_rng(12)
        batch = toy_batch(world, rng)
        noises = make_noises(model, batch, rng)
        total, comps = vbb_loss(model, world, batch, noises)
        cfg = model.cfg
        want = comps["rec"] + cfg.beta * comps["kl"] + cfg.lambda_sem * comps["sem"]
        assert np.isclose(total, want, rtol=1e-12)
        assert set(comps) == {"total", "rec", "kl", "sem"}

    def test_batch_of_one_rejected(self):
        world, model = toy_setup(seed=13)
        rng = np.random.default_rng(14)
        batch = toy_batch(world, rng)[:1]
        with pytest.raises(DegenerateBatch):
            vbb_loss(model, world, batch, make_noises(model, batch, rng))

    def test_gradients_match_finite_differences(self):
        # the decisive check: every parameter of the toy model probed centrally
        world, model = toy_setup(seed=15)
        assert model.param_count() <= 500, model.param_count()
        rng = np.random.default_rng(16)
        batch = toy_batch(world, rng)
        noises = make_noises(model, batch, rng)

        def loss_fn():
            total, _ = vbb_loss(model, world, batch, noises)
            return total

        model.zero_grad()
        vbb_grad(model, world, batch, noises)
        analytic = {k: p.grad.copy() for k, p in model.params().items()}
        numeric = finite_difference_grads(loss_fn, model.params(), h=1e-5)
        err = relative_grad_error(analytic, numeric)
        assert err < 1e-4, f"worst relative gradient error {err:.3e}"

    def test_gradient_check_brief_report(self):
        # per-block errors are individually small, not just in aggregate
        world, model = toy_setup(seed=17)
        rng = np.random.default_rng(18)
        batch = toy_batch(world, rng)
        noises = make_noises(model, batch, rng)

        def loss_fn():
            return vbb_loss(model, world, batch, noises)[0]

        model.zero_grad()
        vbb_grad(model, world, batch, noises)
        analytic = {k: p.grad.copy() for k, p in model.params().items()}
        numeric = finite_difference_grads(loss_fn, model.params(), h=1e-5)
        for name in analytic:
            err = relative_grad_error({name: analytic[name]}, {name: numeric[name]})
            assert err < 1e-4, f"{name}: relative error {err:.3e}"


# frames per packed chunk at the width of TestPackedStep.cfg
PACK_FRAMES = _PACK_BYTES // (8 * 6)
# (frames, tokens) per item: a layout first drawn for 320-frame chunks, its
# long items scaled to PACK_FRAMES, so the padded frames fill three chunks;
# the items shorter than the compression stay short
SEVERAL_CHUNKS = [(n if n < 8 else n * PACK_FRAMES // 320, k)
                  for n, k in [(90, 5), (1, 1), (77, 2), (89, 3), (64, 4), (3, 1),
                               (90, 2), (90, 1), (85, 3)]]


class TestPackedStep:
    """The packed step against the per-item oracle on ragged batches."""

    world = make_world(state_dim=3, action_dim=2, d_z=3, target_L_s=0.8,
                       target_L_z=0.9, target_L_B=1.0, sigma_pi=0.2, seed=31)
    # compression 8: many drawn lengths are shorter than it or not a multiple
    cfg = BottleneckConfig(d_z=3, d_m=4, d_e=5, width=6, levels=3, d_text=4,
                           beta=0.05, lambda_tok=0.3, lambda_frm=0.3)

    def _batch(self, lengths, tokens, seed):
        rng = np.random.default_rng(seed)
        model = BottleneckModel(self.cfg, seed=seed % 1000)
        batch = [BatchItem(latents=rng.normal(size=(t_len, 3)),
                           states=rng.normal(size=(t_len + 1, 3)),
                           text_emb=unit_rows(rng, k_len, 4))
                 for t_len, k_len in zip(lengths, tokens)]
        return model, batch, make_noises(model, batch, rng)

    @given(st.lists(st.tuples(st.integers(1, 90), st.integers(1, 5)),
                    min_size=2, max_size=12),
           st.integers(0, 2 ** 32 - 1))
    @example(SEVERAL_CHUNKS, 7)
    @settings(max_examples=40, deadline=None)
    def test_matches_per_item_oracle(self, shapes, seed):
        lengths, tokens = zip(*shapes)
        model, batch, noises = self._batch(lengths, tokens, seed)
        model.zero_grad()
        want = per_item_vbb(model, self.world, batch, noises, grad=True)
        oracle = {k: p.grad.copy() for k, p in model.params().items()}
        model.zero_grad()
        got, _ = vbb_grad(model, self.world, batch, noises)
        loss, _ = vbb_loss(model, self.world, batch, noises)
        assert abs(got - want) <= 1e-12 * abs(want)
        assert loss == got
        for name, p in model.params().items():
            err = relative_grad_error({name: p.grad}, {name: oracle[name]})
            assert err <= 1e-12, f"{name}: relative error {err:.2e}"

    def test_example_batch_spans_several_chunks(self):
        assert self.cfg.width == 6
        padded = [-(-t_len // 8) * 8 for t_len, _ in SEVERAL_CHUNKS]
        assert len(_chunks(padded, 6)) == 3
        assert _chunks([PACK_FRAMES + 8, 8, 8], 6) == [(0, 1), (1, 3)]

    def test_each_segments_builds_each_layout_once(self, monkeypatch):
        # every call of one Segments for one stride returns the layout its
        # first call built
        calls = []
        gapped = Segments.gapped

        def recording(seg, stride):
            layout = gapped(seg, stride)
            calls.append((seg, stride, layout))  # holds seg, so no id is reused
            return layout

        model, batch, noises = self._batch(*zip(*SEVERAL_CHUNKS), 7)
        monkeypatch.setattr(Segments, "gapped", recording)
        vbb_grad(model, self.world, batch, noises)
        built = {}
        for seg, stride, layout in calls:
            assert built.setdefault((id(seg), stride), layout) is layout
        # per chunk of several items: a stride-2 and a stride-1 layout per
        # encoder level, and a stride-1 layout per decoder level
        padded = [-(-t_len // 8) * 8 for t_len, _ in SEVERAL_CHUNKS]
        several = sum(hi - lo > 1 for lo, hi in _chunks(padded, self.cfg.width))
        assert several > 0
        assert sum(layout is not None for layout in built.values()) == 3 * self.cfg.levels * several

    def test_encode_packed_matches_encode(self):
        model, batch, _ = self._batch((13, 8, 1, 40, 90, 90, 90, 90), (1,) * 8, 5)
        post, starts = encode_packed(model, [item.latents for item in batch])
        ends = list(starts[1:]) + [len(post.mu)]
        for item, lo, hi in zip(batch, starts, ends):
            single = encode(model, item.latents)
            np.testing.assert_allclose(post.mu[lo:hi], single.mu, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(post.log_var[lo:hi], single.log_var,
                                       rtol=1e-13, atol=1e-15)

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=10),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_decode_packed_matches_decode(self, lengths, seed):
        model = BottleneckModel(self.cfg, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        programs = [rng.normal(size=(n, self.cfg.d_m)) for n in lengths]
        got = decode_packed(model, programs)
        assert len(got) == len(programs)
        for m, z_hat in zip(programs, got):
            np.testing.assert_allclose(z_hat, decode(model, m), rtol=1e-13, atol=1e-15)

    def test_empty_prompt_rejected(self):
        model, batch, noises = self._batch((9, 4), (2, 1), 3)
        batch[1] = BatchItem(latents=batch[1].latents, states=batch[1].states,
                             text_emb=np.zeros((0, 4)))
        with pytest.raises(ShapeMismatch):
            vbb_loss(model, self.world, batch, noises)


class TestEmbeddings:
    def test_program_and_text_embeddings_unit_norm(self):
        _, model = toy_setup(seed=19)
        rng = np.random.default_rng(20)
        m = rng.normal(size=(4, 3))
        y = unit_rows(rng, 3, 4)
        for emb in (embed_program(model, m), embed_text(model, y)):
            assert np.isclose(np.linalg.norm(emb), 1.0, rtol=1e-12)

    def test_projected_frames_unit_rows(self):
        _, model = toy_setup(seed=21)
        rng = np.random.default_rng(22)
        frames = align_rows(model.P_m, rng.normal(size=(5, 3)))
        np.testing.assert_allclose(np.linalg.norm(frames, axis=1), 1.0, rtol=1e-12)
        tokens = align_rows(model.P_y, unit_rows(rng, 2, 4))
        np.testing.assert_allclose(np.linalg.norm(tokens, axis=1), 1.0, rtol=1e-12)


class TestTraining:
    def _tiny_dataset(self):
        world = make_world(state_dim=3, action_dim=2, d_z=4, target_L_s=0.8,
                           target_L_z=0.9, target_L_B=1.0, sigma_pi=0.1, seed=23)
        spec = DatasetSpec(n_samples=12, behaviors=("walk", "run"), dur_min=4,
                           dur_max=8, stage_probs=(1.0,), d_text=6)
        vocab = make_vocabulary(spec.behaviors, spec.separator, spec.d_text,
                                spec.embed_seed)
        samples = generate_dataset(world, ExtractionConfig(lookahead=2), spec,
                                   vocab, seed=5)
        cfg = BottleneckConfig(d_z=4, d_m=4, d_e=4, width=6, levels=1, d_text=6)
        return world, vocab, samples, cfg

    def test_deterministic_history(self):
        world, vocab, samples, cfg = self._tiny_dataset()
        tc = TrainConfig(lr=1e-3, weight_decay=1e-4, warmup=2, batch_size=4, steps=5)

        def run():
            model = BottleneckModel(cfg, seed=1)
            history = train_bottleneck(model, world, vocab, samples, tc, seed=9)
            return history, model.export_values()

        h1, p1 = run()
        h2, p2 = run()
        assert h1 == h2
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_loss_decreases_on_tiny_problem(self):
        world, vocab, samples, cfg = self._tiny_dataset()
        tc = TrainConfig(lr=3e-3, weight_decay=0.0, warmup=10, batch_size=6, steps=120)
        model = BottleneckModel(cfg, seed=2)
        history = train_bottleneck(model, world, vocab, samples, tc, seed=10)
        first = np.mean([h["total"] for h in history[:10]])
        last = np.mean([h["total"] for h in history[-10:]])
        assert last < first, f"no improvement: {first:.4f} -> {last:.4f}"

    def test_batch_larger_than_corpus_rejected(self):
        world, vocab, samples, cfg = self._tiny_dataset()
        tc = TrainConfig(batch_size=32, steps=1)
        model = BottleneckModel(cfg, seed=3)
        with pytest.raises(DegenerateBatch):
            train_bottleneck(model, world, vocab, samples, tc, seed=1)

    def test_batch_from_samples_uses_vocab_rows(self):
        world, vocab, samples, cfg = self._tiny_dataset()
        items = batch_from_samples(samples[:3], vocab)
        for item, sample in zip(items, samples[:3]):
            np.testing.assert_array_equal(
                item.text_emb, vocab.embeddings[list(sample.token_ids)]
            )
