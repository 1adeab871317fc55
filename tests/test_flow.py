"""Flow generator tests: oracle field recomputation, hand-gradient checks
against finite differences, sampler identities, and Euler convergence order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import behavegen.flow as flow_module
from behavegen.bottleneck import (
    BottleneckConfig,
    BottleneckModel,
    encode_packed,
)
from behavegen.errors import (
    CountMismatch,
    DegenerateBatch,
    RangeError,
    ShapeMismatch,
)
from behavegen.flow import (
    FlowConfig,
    FlowModel,
    SamplerConfig,
    euler_sample,
    fm_grad,
    fm_loss,
    interpolate,
    prepare_flow_targets,
    time_embedding,
    train_flow,
)
from behavegen.nn import TrainConfig, finite_difference_grads, relative_grad_error
from behavegen.world import (
    DatasetSpec,
    ExtractionConfig,
    generate_dataset,
    make_vocabulary,
    make_world,
)

GRAD_TOL = 1e-4


# ---------------------------------------------------------------------------
# oracles: plain-loop recomputation of the field and the Euler integrator
# ---------------------------------------------------------------------------

def field_oracle(model, m, r, y_vec):
    """Recompute the velocity field frame by frame from exported weights."""
    cfg = model.cfg
    vals = model.export_values()
    half = cfg.r_dim // 2
    freqs = np.pi * (2.0 ** np.arange(half))
    remb = np.concatenate([np.sin(freqs * r), np.cos(freqs * r)])
    ctx = vals["null_ctx"] if y_vec is None else np.asarray(y_vec, dtype=float)
    pooled = np.zeros(cfg.d_m)
    for t in range(m.shape[0]):
        pooled += m[t]
    pooled /= m.shape[0]
    cond = (vals["pool.W"].T @ pooled + vals["pool.b"]
            + vals["r.W"].T @ remb + vals["r.b"]
            + vals["y.W"].T @ ctx + vals["y.b"])
    out = np.zeros((m.shape[0], cfg.d_m))
    for t in range(m.shape[0]):
        x = vals["in.W"].T @ m[t] + vals["in.b"] + cond
        for i in range(cfg.blocks):
            a = np.maximum(vals[f"b{i}.fc1.W"].T @ x + vals[f"b{i}.fc1.b"], 0.0)
            x = x + vals[f"b{i}.fc2.W"].T @ a + vals[f"b{i}.fc2.b"]
        out[t] = vals["out.W"].T @ x + vals["out.b"]
    return out


def euler_oracle(model, noise, steps, guidance, y_vec):
    m = noise.copy()
    dt = 1.0 / steps
    for k in range(steps):
        r = k / steps
        if y_vec is None or guidance == 1.0:
            v = field_oracle(model, m, r, y_vec)
        else:
            v_n = field_oracle(model, m, r, None)
            v_c = field_oracle(model, m, r, y_vec)
            v = v_n + guidance * (v_c - v_n)
        m = m + dt * v
    return m


def field(model, m, r, y_vec=None, lengths=None):
    """The whole field: the path position and conditioning passes, then the
    per-frame trunk.  ``r`` is shared, or one per program."""
    cond = model.condition([len(m)] if lengths is None else lengths, y_vec)
    r = np.array(r if isinstance(r, list) else [r] * len(cond.lengths), dtype=float)
    hr, _ = model.r_proj.forward(time_embedding(r, model.cfg.r_dim))
    return model.field(m, cond, hr)[0]


def euler_reference(model, noises, steps, guidance, ctxs):
    """The sampler's loop with the whole field at every step: a conditioning
    pass and a projection of the step's path position, then the trunk."""
    lengths = [len(e) for e in noises]
    guided = [c is not None and guidance != 1.0 for c in ctxs]
    rows = np.repeat(guided, lengths)
    branch_lengths = lengths + [n for n, g in zip(lengths, guided) if g]
    branch_ctxs = list(ctxs) + [None] * sum(guided)
    m = np.concatenate(noises)
    for k in range(steps):
        cond = model.condition(branch_lengths, branch_ctxs)
        hr, _ = model.r_proj.forward(time_embedding(np.full(len(branch_lengths), k / steps),
                                                    model.cfg.r_dim))
        v, _ = model.field(np.concatenate([m, m[rows]]), cond, hr)
        v, v_null = v[:len(m)], v[len(m):]
        v[rows] = v_null + guidance * (v[rows] - v_null)
        m = m + (1.0 / steps) * v
    return np.split(m, np.cumsum(lengths)[:-1])


def per_item_fm(model, programs, noises, rs, ctxs):
    """The flow-matching loss and its gradients one program at a time.

    Reference for the packed step: each program runs through the field's
    layers on its own, its conditioning a one-row batch.  Returns the mean
    of the per-program losses and accumulates the gradients of that mean.
    """
    cfg = model.cfg
    b = len(programs)
    blocks, out_proj = [res.layers for res in model.trunk[:-1]], model.trunk[-1]
    total = 0.0
    for program, noise, r, y in zip(programs, noises, rs, ctxs):
        point = (1 - r) * noise + r * program
        ctx = model.null_ctx.value if y is None else np.asarray(y, dtype=float)
        h0, c_in = model.in_proj.forward(point)
        hp, c_pool = model.pool_proj.forward(point.mean(axis=0)[None, :])
        hr, c_r = model.r_proj.forward(time_embedding(r, cfg.r_dim)[None, :])
        hy, c_y = model.y_proj.forward(ctx[None, :])
        x = h0 + (hp + hr + hy)
        caches = []
        for b1, relu, b2 in blocks:
            a, c1 = b1.forward(x)
            a, cr = relu.forward(a)
            a, c2 = b2.forward(a)
            x = x + a
            caches.append((c1, cr, c2))
        v, c_out = out_proj.forward(x)
        resid = v - (program - noise)
        total += float((resid * resid).mean()) / b
        dx = out_proj.backward(2.0 * resid / (resid.size * b), c_out)
        for (b1, relu, b2), (c1, cr, c2) in zip(reversed(blocks), reversed(caches)):
            dx = dx + b1.backward(relu.backward(b2.backward(dx, c2), cr), c1)
        dcond = dx.sum(axis=0, keepdims=True)
        model.in_proj.backward(dx, c_in)
        model.pool_proj.backward(dcond, c_pool)
        model.r_proj.backward(dcond, c_r)
        dctx = model.y_proj.backward(dcond, c_y)
        if y is None:
            model.null_ctx.grad += dctx[0]
    return total


def ragged_batch(lengths, null, seed, d_m=3, d_e=3):
    """Programs, noises, path positions and contexts (None where ``null``)."""
    rng = np.random.default_rng(seed)
    programs = [rng.normal(size=(n, d_m)) for n in lengths]
    noises = [rng.normal(size=(n, d_m)) for n in lengths]
    rs = [float(r) for r in rng.uniform(size=len(lengths))]
    ctxs = [None if drop else rng.normal(size=d_e) for drop in null]
    return programs, noises, rs, ctxs


def packed_fm(fn, model, batch, **kwargs):
    """``fn`` (fm_loss or fm_grad) of a ragged batch, its programs and noises
    packed back to back."""
    programs, noises, rs, ctxs = batch
    return fn(model, np.concatenate(programs), np.concatenate(noises), np.array(rs), ctxs,
              lengths=[len(p) for p in programs], **kwargs)


def assert_packed_matches(model, batch, reference):
    """The packed fm_grad and fm_loss of ``batch`` match the loss that
    ``reference()`` returns and the gradients it accumulates, at 1e-12."""
    model.zero_grad()
    want = reference()
    oracle = {k: p.grad.copy() for k, p in model.params().items()}
    model.zero_grad()
    got = packed_fm(fm_grad, model, batch)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert packed_fm(fm_loss, model, batch) == got
    for name, p in model.params().items():
        err = relative_grad_error({name: p.grad}, {name: oracle[name]})
        assert err <= 1e-12, f"{name}: relative error {err:.2e}"


def toy_flow(seed=0):
    cfg = FlowConfig(d_m=3, d_e=3, width=4, blocks=1, r_dim=4)
    model = FlowModel(cfg, seed=seed)
    assert model.param_count() <= 500, "gradient-check model grew too large"
    return model


# ---------------------------------------------------------------------------
# interpolation path
# ---------------------------------------------------------------------------

class TestInterpolation:
    def test_endpoints_bit_exact(self):
        rng = np.random.default_rng(7)
        noise = rng.normal(size=(6, 4))
        program = rng.normal(size=(6, 4))
        start = interpolate(noise, program, 0.0)
        end = interpolate(noise, program, 1.0)
        assert start.tobytes() == noise.astype(float).tobytes()
        assert end.tobytes() == program.astype(float).tobytes()

    def test_midpoint(self):
        noise = np.zeros((2, 2))
        program = np.full((2, 2), 2.0)
        assert np.array_equal(interpolate(noise, program, 0.5), np.ones((2, 2)))

    def test_convex_combination(self):
        rng = np.random.default_rng(3)
        noise = rng.normal(size=(5, 3))
        program = rng.normal(size=(5, 3))
        for r in (0.25, 0.5, 0.75):
            expect = (1 - r) * noise + r * program
            np.testing.assert_allclose(interpolate(noise, program, r), expect,
                                       rtol=0, atol=0)

    def test_validation(self):
        with pytest.raises(ShapeMismatch):
            interpolate(np.zeros((3, 2)), np.zeros((4, 2)), 0.5)
        with pytest.raises(RangeError):
            interpolate(np.zeros((3, 2)), np.zeros((3, 2)), 1.5)
        with pytest.raises(RangeError):
            interpolate(np.zeros((3, 2)), np.zeros((3, 2)), -0.1)


class TestTimeEmbedding:
    def test_shape_and_bounds(self):
        emb = time_embedding(0.37, 16)
        assert emb.shape == (16,)
        assert np.all(np.abs(emb) <= 1.0)

    def test_r_zero(self):
        emb = time_embedding(0.0, 8)
        np.testing.assert_allclose(emb[:4], 0.0, atol=0)
        np.testing.assert_allclose(emb[4:], 1.0, atol=0)

    def test_distinguishes_positions(self):
        a = time_embedding(0.2, 8)
        b = time_embedding(0.8, 8)
        assert np.linalg.norm(a - b) > 0.1


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

class TestField:
    def test_matches_oracle(self):
        model = toy_flow(seed=11)
        rng = np.random.default_rng(5)
        for t_len in (1, 4, 9):
            m = rng.normal(size=(t_len, 3))
            y = rng.normal(size=3)
            for r in (0.0, 0.31, 1.0):
                got = field(model, m, r, y)
                want = field_oracle(model, m, r, y)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_null_context_matches_oracle(self):
        model = toy_flow(seed=12)
        rng = np.random.default_rng(6)
        m = rng.normal(size=(5, 3))
        got = field(model, m, 0.5, None)
        want = field_oracle(model, m, 0.5, None)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_shared_weights_across_lengths(self):
        # the same parameters must serve any program length
        model = toy_flow(seed=13)
        rng = np.random.default_rng(8)
        y = rng.normal(size=3)
        short = field(model, rng.normal(size=(2, 3)), 0.4, y)
        long = field(model, rng.normal(size=(17, 3)), 0.4, y)
        assert short.shape == (2, 3)
        assert long.shape == (17, 3)

    def test_validation(self):
        model = toy_flow()
        with pytest.raises(ShapeMismatch):
            field(model, np.zeros((4, 5)), 0.5, None)
        with pytest.raises(RangeError):  # the path position is checked where the path is made
            fm_loss(model, np.zeros((4, 3)), np.zeros((4, 3)), 1.2, None)
        with pytest.raises(ShapeMismatch):
            field(model, np.zeros((4, 3)), 0.5, np.zeros(7))


class TestFlowLoss:
    def test_loss_oracle(self):
        model = toy_flow(seed=21)
        rng = np.random.default_rng(9)
        program = rng.normal(size=(6, 3))
        noise = rng.normal(size=(6, 3))
        y = rng.normal(size=3)
        r = 0.42
        point = (1 - r) * noise + r * program
        v = field_oracle(model, point, r, y)
        resid = v - (program - noise)
        want = (resid * resid).sum() / resid.size
        got = fm_loss(model, program, noise, r, y)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_perfect_field_zero_loss(self):
        # out head forced to reproduce the constant target exactly
        model = toy_flow(seed=22)
        program = np.ones((4, 3))
        noise = np.zeros((4, 3))
        for p in model.params().values():
            p.value[...] = 0.0
        model.params()["out.b"].value[...] = 1.0  # v == 1 == m - eps
        assert fm_loss(model, program, noise, 0.3, None) == 0.0

    def test_gradients_match_finite_differences(self):
        model = toy_flow(seed=23)
        rng = np.random.default_rng(10)
        program = rng.normal(size=(5, 3))
        noise = rng.normal(size=(5, 3))
        y = rng.normal(size=3)
        r = 0.61

        def loss_fn():
            return fm_loss(model, program, noise, r, y)

        model.zero_grad()
        analytic_loss = fm_grad(model, program, noise, r, y)
        np.testing.assert_allclose(analytic_loss, loss_fn(), rtol=1e-12)
        analytic = {k: p.grad.copy() for k, p in model.params().items()}
        numeric = finite_difference_grads(loss_fn, model.params())
        worst = relative_grad_error(analytic, numeric)
        assert worst < GRAD_TOL, f"worst flow gradient block error {worst:.3e}"

    def test_null_context_gradient(self):
        # condition dropout trains the null vector; its gradient must check out
        model = toy_flow(seed=24)
        rng = np.random.default_rng(11)
        program = rng.normal(size=(4, 3))
        noise = rng.normal(size=(4, 3))
        r = 0.27

        def loss_fn():
            return fm_loss(model, program, noise, r, None)

        model.zero_grad()
        fm_grad(model, program, noise, r, None)
        analytic = {k: p.grad.copy() for k, p in model.params().items()}
        numeric = finite_difference_grads(loss_fn, model.params())
        null_err = relative_grad_error({"null_ctx": analytic["null_ctx"]},
                                       {"null_ctx": numeric["null_ctx"]})
        assert null_err < GRAD_TOL
        assert relative_grad_error(analytic, numeric) < GRAD_TOL

    def test_grad_scale_factor(self):
        model = toy_flow(seed=25)
        rng = np.random.default_rng(12)
        program = rng.normal(size=(4, 3))
        noise = rng.normal(size=(4, 3))
        model.zero_grad()
        fm_grad(model, program, noise, 0.5, None, scale=1.0)
        full = {n: p.grad.copy() for n, p in model.params().items()}
        model.zero_grad()
        fm_grad(model, program, noise, 0.5, None, scale=0.25)
        for n, p in model.params().items():
            np.testing.assert_allclose(p.grad, 0.25 * full[n], rtol=1e-12,
                                       atol=1e-15)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class TestSampler:
    def test_matches_oracle_integration(self):
        model = toy_flow(seed=31)
        rng = np.random.default_rng(13)
        noise = rng.normal(size=(5, 3))
        y = rng.normal(size=3)
        for g in (0.0, 1.0, 1.5, 2.0):
            got = euler_sample(model, noise, SamplerConfig(steps=7, guidance=g), y)
            want = euler_oracle(model, noise, 7, g, y)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_zero_guidance_is_unconditional(self):
        model = toy_flow(seed=32)
        rng = np.random.default_rng(14)
        noise = rng.normal(size=(6, 3))
        y = rng.normal(size=3)
        guided = euler_sample(model, noise, SamplerConfig(steps=9, guidance=0.0), y)
        uncond = euler_sample(model, noise, SamplerConfig(steps=9, guidance=1.0),
                              None)
        np.testing.assert_allclose(guided, uncond, rtol=1e-12, atol=1e-12)

    def test_unit_guidance_skips_null_branch(self):
        # null programs per field call: none at g = 1, and at g != 1 one null
        # branch per conditioned program, in the same call
        model = toy_flow(seed=33)
        nulls = []
        orig = model.field

        def counting_field(m, cond, hr):
            nulls.append(int(cond.null.sum()))
            return orig(m, cond, hr)

        model.field = counting_field
        noise = np.random.default_rng(15).normal(size=(4, 3))
        y = np.ones(3) / np.sqrt(3)
        euler_sample(model, noise, SamplerConfig(steps=5, guidance=1.0), y)
        assert nulls == [0] * 5
        nulls.clear()
        euler_sample(model, [noise, noise, noise], SamplerConfig(steps=5, guidance=1.0),
                     [y, None, y])
        assert nulls == [1] * 5
        nulls.clear()
        euler_sample(model, [noise, noise, noise], SamplerConfig(steps=5, guidance=1.5),
                     [y, None, y])
        assert nulls == [3] * 5

    def test_deterministic_and_input_unchanged(self):
        model = toy_flow(seed=34)
        rng = np.random.default_rng(16)
        noise = rng.normal(size=(5, 3))
        before = noise.copy()
        a = euler_sample(model, noise, SamplerConfig(steps=8, guidance=1.5),
                         np.ones(3) / np.sqrt(3))
        b = euler_sample(model, noise, SamplerConfig(steps=8, guidance=1.5),
                         np.ones(3) / np.sqrt(3))
        assert a.tobytes() == b.tobytes()
        assert noise.tobytes() == before.tobytes()

    def test_euler_first_order_convergence(self):
        # global error of fixed-step Euler must shrink like 1/steps: each
        # halving of the step count sits within [0.5x, 2x] of the line
        # anchored at the coarsest run.  The raw random init is too stiff for
        # four steps to reach the asymptotic regime, so the output head is
        # damped; a trained field is likewise mild.
        model = FlowModel(FlowConfig(d_m=4, d_e=3, width=16, blocks=2, r_dim=8),
                          seed=35)
        for name, p in model.params().items():
            if name.startswith("out."):
                p.value *= 0.3
        rng = np.random.default_rng(17)
        noise = rng.normal(size=(6, 4))
        y = rng.normal(size=3)
        y /= np.linalg.norm(y)
        ref = euler_sample(model, noise, SamplerConfig(steps=256, guidance=1.0), y)
        errs = {}
        for steps in (4, 8, 16, 32):
            out = euler_sample(model, noise, SamplerConfig(steps=steps,
                                                           guidance=1.0), y)
            errs[steps] = float(np.linalg.norm(out - ref))
        anchor = errs[4] * 4
        assert errs[4] > 0
        for steps in (8, 16, 32):
            lo, hi = 0.5 * anchor / steps, 2.0 * anchor / steps
            assert lo <= errs[steps] <= hi, (
                f"steps={steps}: err {errs[steps]:.3e} outside [{lo:.3e}, {hi:.3e}]"
            )

    def test_step_validation(self):
        with pytest.raises(RangeError):
            SamplerConfig(steps=0)
        with pytest.raises(RangeError):
            SamplerConfig(steps=10 ** 12)

    def test_shape_validation(self):
        model = toy_flow()
        with pytest.raises(ShapeMismatch):
            euler_sample(model, np.zeros((4, 7)), SamplerConfig(), None)


# ---------------------------------------------------------------------------
# packed programs: many programs in one call of the field
# ---------------------------------------------------------------------------

def packing_flow(seed):
    return FlowModel(FlowConfig(d_m=3, d_e=3, width=6, blocks=2, r_dim=4), seed=seed)


class TestPacked:
    @given(st.lists(st.tuples(st.integers(1, 12), st.booleans()), min_size=1,
                    max_size=12),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_item_oracle(self, items, seed):
        lengths, null = zip(*items)
        model = packing_flow(seed % 1000)
        batch = ragged_batch(lengths, null, seed)
        assert_packed_matches(model, batch, lambda: per_item_fm(model, *batch))

    @given(st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=1,
                    max_size=8),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_mean_of_one_program_calls(self, items, seed):
        # one packed call is the mean of one-program calls, loss and gradients
        lengths, null = zip(*items)
        model = packing_flow(seed % 1000)
        batch = ragged_batch(lengths, null, seed)
        assert_packed_matches(model, batch, lambda: sum(
            fm_grad(model, p, e, r, y, scale=1.0 / len(lengths))
            for p, e, r, y in zip(*batch)) / len(lengths))

    def test_packed_gradients_match_finite_differences(self):
        model = toy_flow(seed=26)
        batch = ragged_batch((2, 5, 1), (False, True, False), seed=27)
        model.zero_grad()
        packed_fm(fm_grad, model, batch)
        analytic = {k: p.grad.copy() for k, p in model.params().items()}
        numeric = finite_difference_grads(lambda: packed_fm(fm_loss, model, batch),
                                          model.params())
        assert np.any(analytic["null_ctx"] != 0.0)
        assert relative_grad_error(analytic, numeric) < GRAD_TOL

    def test_one_program_equals_lone_array(self):
        model = packing_flow(28)
        batch = ragged_batch((5,), (False,), seed=29)
        lone = fm_loss(model, *(part[0] for part in batch))
        assert packed_fm(fm_loss, model, batch) == lone

    @given(st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=1,
                    max_size=5),
           st.sampled_from([0.0, 1.0, 1.5]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_stacked_sampler_matches_oracle(self, items, guidance, seed):
        lengths, null = zip(*items)
        model = packing_flow(seed % 1000)
        _, noises, _, ctxs = ragged_batch(lengths, null, seed)
        got = euler_sample(model, noises, SamplerConfig(steps=3, guidance=guidance),
                           ctxs)
        assert len(got) == len(noises)
        for out, noise, y in zip(got, noises, ctxs):
            want = euler_oracle(model, noise, 3, guidance, y)
            np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)

    @given(st.lists(st.tuples(st.integers(1, 9), st.booleans()), min_size=1,
                    max_size=6),
           st.sampled_from([0.0, 1.0, 1.5, -2.0]), st.integers(1, 20),
           st.sampled_from([(6, 4), (64, 16)]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_conditioning_once_keeps_every_bit(self, items, guidance, steps, dims, seed):
        # conditioning once per call must give the bits of a full pass per step
        lengths, null = zip(*items)
        width, r_dim = dims
        model = FlowModel(FlowConfig(d_m=3, d_e=3, width=width, blocks=2, r_dim=r_dim),
                          seed=seed % 1000)
        _, noises, _, ctxs = ragged_batch(lengths, null, seed)
        got = euler_sample(model, noises, SamplerConfig(steps=steps, guidance=guidance),
                           ctxs)
        want = euler_reference(model, noises, steps, guidance, ctxs)
        for out, ref in zip(got, want, strict=True):
            assert np.array_equal(out, ref)

    def test_packed_field_matches_oracle_per_program(self):
        model = packing_flow(30)
        rng = np.random.default_rng(31)
        lengths = [3, 1, 4]
        m = rng.normal(size=(8, 3))
        rs = [0.0, 0.5, 0.9]
        ctxs = [rng.normal(size=3), None, rng.normal(size=3)]
        got = field(model, m, rs, ctxs, lengths)
        for lo, n, r, y in zip((0, 3, 4), lengths, rs, ctxs):
            np.testing.assert_allclose(got[lo:lo + n], field_oracle(model, m[lo:lo + n], r, y),
                                       rtol=1e-12, atol=1e-12)

    def test_validation(self):
        model = toy_flow()
        m = np.zeros((5, 3))
        with pytest.raises(ShapeMismatch):
            field(model, m, 0.5, None, [2, 2])
        with pytest.raises(ShapeMismatch):
            field(model, m, 0.5, None, [5, 0])
        with pytest.raises(CountMismatch):
            field(model, m, 0.5, [None], [2, 3])
        # lengths, path positions and contexts are counted, and path
        # positions range-checked, where the path is made
        with pytest.raises(ShapeMismatch):
            fm_loss(model, m, m, [0.5, 0.5], [None, None], lengths=[2, 2])
        with pytest.raises(CountMismatch):
            fm_loss(model, m, m, [0.5], [None, None], lengths=[2, 3])
        with pytest.raises(CountMismatch):
            fm_loss(model, m, m, [0.5, 0.5], [None], lengths=[2, 3])
        with pytest.raises(RangeError):
            fm_loss(model, m, m, [0.5, 1.5], [None, None], lengths=[2, 3])
        with pytest.raises(ShapeMismatch):
            fm_loss(model, np.concatenate([m, m]), m, [0.5, 0.5], [None, None],
                    lengths=[5, 5])
        with pytest.raises(ShapeMismatch):
            fm_loss(model, m, np.zeros((4, 3)), [0.5], [None], lengths=[5])
        with pytest.raises(CountMismatch):
            euler_sample(model, [m, m], SamplerConfig(), [None])


# ---------------------------------------------------------------------------
# training against a frozen bottleneck
# ---------------------------------------------------------------------------

def tiny_corpus():
    world = make_world(state_dim=3, action_dim=2, d_z=2, target_L_s=0.8,
                       target_L_z=0.5, target_L_B=1.0, seed=41)
    spec = DatasetSpec(n_samples=24, behaviors=("walk", "turn"),
                       d_text=4, dur_min=6, dur_max=9,
                       stage_probs=(1.0,), embed_seed=7)
    extraction = ExtractionConfig(lookahead=2)
    vocab = make_vocabulary(spec.behaviors, spec.separator, spec.d_text,
                            spec.embed_seed)
    samples = generate_dataset(world, extraction, spec, vocab, seed=42)
    bcfg = BottleneckConfig(d_z=2, d_m=3, d_e=3, width=4, levels=1, d_text=4)
    bottleneck = BottleneckModel(bcfg, seed=43)
    return bottleneck, vocab, samples


class TestTraining:
    def test_deterministic(self):
        bottleneck, vocab, samples = tiny_corpus()
        cfg = TrainConfig(lr=1e-3, warmup=5, batch_size=4, steps=12)
        model_a = FlowModel(FlowConfig(d_m=3, d_e=3, width=4, blocks=1, r_dim=4,
                                       cond_dropout=0.5), seed=50)
        hist_a = train_flow(model_a, bottleneck, vocab, samples, cfg, seed=51)
        model_b = FlowModel(FlowConfig(d_m=3, d_e=3, width=4, blocks=1, r_dim=4,
                                       cond_dropout=0.5), seed=50)
        hist_b = train_flow(model_b, bottleneck, vocab, samples, cfg, seed=51)
        assert hist_a == hist_b
        pb = model_b.params()
        for name, pa in model_a.params().items():
            assert pa.value.tobytes() == pb[name].value.tobytes()

    def test_loss_decreases(self):
        bottleneck, vocab, samples = tiny_corpus()
        cfg = TrainConfig(lr=3e-3, warmup=10, batch_size=8, steps=150)
        model = FlowModel(FlowConfig(d_m=3, d_e=3, width=8, blocks=1, r_dim=4),
                          seed=52)
        hist = train_flow(model, bottleneck, vocab, samples, cfg, seed=53)
        head = np.mean([h["total"] for h in hist[:10]])
        tail = np.mean([h["total"] for h in hist[-10:]])
        assert tail < head, f"flow loss did not improve: {head:.4f} -> {tail:.4f}"

    def test_batch_larger_than_corpus(self):
        bottleneck, vocab, samples = tiny_corpus()
        cfg = TrainConfig(batch_size=100, steps=1)
        model = FlowModel(FlowConfig(d_m=3, d_e=3, width=4, blocks=1, r_dim=4))
        with pytest.raises(DegenerateBatch):
            train_flow(model, bottleneck, vocab, samples, cfg, seed=1)

    def test_one_fm_grad_call_per_step(self, monkeypatch):
        bottleneck, vocab, samples = tiny_corpus()
        calls = []

        def counting_fm_grad(*args, lengths=None, **kwargs):
            calls.append(len(lengths))
            return fm_grad(*args, lengths=lengths, **kwargs)

        monkeypatch.setattr(flow_module, "fm_grad", counting_fm_grad)
        cfg = TrainConfig(lr=1e-3, warmup=2, batch_size=5, steps=3)
        model = FlowModel(FlowConfig(d_m=3, d_e=3, width=4, blocks=1, r_dim=4))
        train_flow(model, bottleneck, vocab, samples, cfg, seed=2)
        assert calls == [5, 5, 5]

    def test_corpus_encoded_once_and_targets_drawn_per_step(self, monkeypatch):
        # the frozen bottleneck encodes the corpus once per run, and each
        # step's targets are fresh posterior draws of its programs' rows
        bottleneck, vocab, samples = tiny_corpus()
        encodes, draws, calls = [], [], []

        def counting_encode(*args):
            encodes.append(args)
            return encode_packed(*args)

        def recording_targets(post, rows, rng):
            state = rng.bit_generator.state
            targets = prepare_flow_targets(post, rows, rng)
            draws.append((rows, state, targets))
            return targets

        def recording_fm_grad(model, program, *args, lengths=None, **kwargs):
            calls.append((program, lengths))
            return fm_grad(model, program, *args, lengths=lengths, **kwargs)

        monkeypatch.setattr(flow_module, "encode_packed", counting_encode)
        monkeypatch.setattr(flow_module, "prepare_flow_targets", recording_targets)
        monkeypatch.setattr(flow_module, "fm_grad", recording_fm_grad)
        cfg = TrainConfig(lr=1e-3, warmup=2, batch_size=8, steps=9)
        model = FlowModel(FlowConfig(d_m=3, d_e=3, width=4, blocks=1, r_dim=4))
        train_flow(model, bottleneck, vocab, samples, cfg, seed=2)
        assert len(encodes) == 1 and len(draws) == len(calls) == 9
        post, starts = encode_packed(bottleneck, [s.latents for s in samples])
        sizes = dict(zip(starts, np.diff(starts, append=len(post.mu))))
        for (rows, state, targets), (program, lengths) in zip(draws, calls):
            assert program is targets and len(lengths) == 8
            # every program is one whole sample's rows, and no sample twice
            blocks = np.split(rows, np.cumsum(lengths)[:-1])
            assert len({b[0] for b in blocks}) == 8
            for b in blocks:
                assert b.tolist() == list(range(b[0], b[0] + sizes[b[0]]))
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            z = rng.standard_normal((len(rows), post.mu.shape[1]))
            want = post.mu[rows] + np.exp(post.log_var[rows] / 2) * z
            assert targets.tobytes() == want.tobytes()

    def test_history_hook(self):
        bottleneck, vocab, samples = tiny_corpus()
        cfg = TrainConfig(lr=1e-3, warmup=2, batch_size=4, steps=3)
        model = FlowModel(FlowConfig(d_m=3, d_e=3, width=4, blocks=1, r_dim=4))
        seen = []
        train_flow(model, bottleneck, vocab, samples, cfg, seed=2,
                   history_hook=seen.append)
        assert [h["step"] for h in seen] == [0, 1, 2]

