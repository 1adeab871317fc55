"""Finite-difference validation of every hand-written layer.

Each test builds a scalar loss from a layer's output and compares the
backward-pass gradients (for parameters and inputs alike) against central
differences with step 1e-5.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from behavegen.errors import DegenerateBatch, DivergenceDetected, RangeError, ShapeMismatch
from behavegen.nn import (
    Adam,
    Conv1d,
    Linear,
    Module,
    Param,
    ReLU,
    ResBlock,
    Segments,
    TrainConfig,
    Upsample2,
    finite_difference_grads,
    fit,
    relative_grad_error,
)

TOL = 1e-6  # these layers are tiny, so FD agreement is much tighter than 1e-4


def check_layer(layer, x, seed=0):
    """FD-check parameter and input gradients of layer.forward against backward."""
    rng = np.random.default_rng(seed)
    y0, _ = layer.forward(x)
    weights = rng.normal(size=y0.shape)
    x_param = Param(x)

    def loss_fn():
        y, _ = layer.forward(x_param.value)
        return float((y * weights).sum())

    layer.zero_grad()
    y, cache = layer.forward(x_param.value)
    dx = layer.backward(weights.copy(), cache)

    probe = dict(layer.params())
    probe["__input__"] = x_param
    numeric = finite_difference_grads(loss_fn, probe)
    analytic = {k: p.grad for k, p in layer.params().items()}
    analytic["__input__"] = dx
    err = relative_grad_error(analytic, numeric)
    assert err < TOL, f"gradient mismatch {err:.3e}"


class TestConv1d:
    def test_stride1_gradients(self):
        rng = np.random.default_rng(1)
        check_layer(Conv1d(rng, 3, 4), rng.normal(size=(7, 3)))

    def test_stride2_gradients_even_length(self):
        rng = np.random.default_rng(2)
        conv = Conv1d(rng, 3, 2, stride=2)
        x = rng.normal(size=(8, 3))
        y, _ = conv.forward(x)
        assert y.shape == (4, 2)
        check_layer(conv, x)

    def test_short_input_gradients(self):
        rng = np.random.default_rng(3)
        check_layer(Conv1d(rng, 2, 2), rng.normal(size=(2, 2)))

    def test_replicate_padding_value(self):
        rng = np.random.default_rng(4)
        conv = Conv1d(rng, 1, 1)
        x = np.array([[1.0], [2.0], [3.0]])
        y, _ = conv.forward(x)
        w = conv.W.value[:, 0, 0]
        # first output frame sees (x0, x0, x1) via replicate padding
        assert np.isclose(y[0, 0], w[0] * 1 + w[1] * 1 + w[2] * 2 + conv.b.value[0])

    def test_halving_chain(self):
        rng = np.random.default_rng(5)
        conv = Conv1d(rng, 2, 2, stride=2)
        seg = Segments((48, 7))
        for _ in range(3):
            seg = conv.out_segments(seg)
        assert seg.lengths == (6, 1)

    def test_stride_must_be_1_or_2(self):
        rng = np.random.default_rng(7)
        for stride in (0, 3, 4):
            with pytest.raises(RangeError, match=f"stride {stride} must be 1 or 2"):
                Conv1d(rng, 2, 2, stride=stride)

    def test_input_shape_check(self):
        rng = np.random.default_rng(6)
        conv = Conv1d(rng, 3, 4)
        with pytest.raises(ShapeMismatch):
            conv.forward(np.zeros((5, 2)))


def reference_layout(lengths, stride):
    """``(take, keep, first, copies)`` of a kernel-3 gapped layout, built row
    by row from clipped segment positions, with each row's copies found by
    search."""
    kernel, pad = 3, 1
    n = np.asarray(lengths)
    block = n + 2 * pad + (-2 * pad) % stride
    start = np.cumsum(block) - block
    seg = np.repeat(np.arange(n.size), block)
    local = np.arange(block.sum()) - start[seg] - pad
    take = (np.cumsum(n) - n)[seg] + np.clip(local, 0, n[seg] - 1)
    t_out = (n + 2 * pad - kernel) // stride + 1
    keep = np.repeat(start // stride - (np.cumsum(t_out) - t_out), t_out) + np.arange(t_out.sum())
    first = np.searchsorted(take, np.arange(n.sum()))
    return take, keep, first, np.diff(first, append=take.size)


class TestPackedConv1d:
    """One call on packed segments against one call per segment."""

    @given(st.sampled_from([1, 2]), st.lists(st.integers(1, 9), min_size=2, max_size=14))
    @settings(max_examples=200, deadline=None)
    def test_layout_matches_reference(self, stride, lengths):
        lengths = [stride * n for n in lengths[:-1]] + lengths[-1:]
        take, keep, first, folds = Segments(lengths).gapped(stride)
        want = reference_layout(lengths, stride)
        for name, a, b in zip(("take", "keep", "first"), (take, keep, first), want):
            np.testing.assert_array_equal(a, b, err_msg=name)
        # the j-th extra copy of each row that has one, and where it sits
        ref_first, copies = want[2:]
        assert len(folds) == 2
        for j, (rows, sources) in zip((1, 2), folds):
            np.testing.assert_array_equal(rows, np.flatnonzero(copies > j), err_msg=f"rows {j}")
            np.testing.assert_array_equal(sources, ref_first[copies > j] + j,
                                          err_msg=f"sources {j}")

    def test_one_segment_has_no_layout(self):
        assert Segments([7]).gapped(1) is None and Segments([7]).gapped(2) is None

    @given(st.sampled_from([1, 2]),
           st.lists(st.integers(1, 9), min_size=1, max_size=6), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_segment_calls(self, stride, lengths, seed):
        # every segment but the last must be a multiple of the stride
        lengths = [stride * n for n in lengths[:-1]] + lengths[-1:]
        rng = np.random.default_rng(seed)
        conv = Conv1d(rng, 3, 4, stride=stride)
        xs = [rng.normal(size=(n, 3)) for n in lengths]
        y, cache = conv.forward(np.concatenate(xs), Segments(lengths))
        assert conv.out_segments(Segments(lengths)).total == y.shape[0]
        dy = rng.normal(size=y.shape)
        conv.zero_grad()
        dx = conv.backward(dy, cache)
        packed = {"W": conv.W.grad.copy(), "b": conv.b.grad.copy()}

        conv.zero_grad()
        ys, dxs, row = [], [], 0
        for x in xs:
            y_seg, c_seg = conv.forward(x)
            ys.append(y_seg)
            dxs.append(conv.backward(dy[row:row + y_seg.shape[0]], c_seg))
            row += y_seg.shape[0]
        np.testing.assert_allclose(y, np.concatenate(ys), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(dx, np.concatenate(dxs), rtol=1e-12, atol=1e-14)
        for name in packed:
            assert relative_grad_error({name: packed[name]},
                                       {name: conv.params()[name].grad}) <= 1e-12

    @given(st.sampled_from([1, 2]),
           st.lists(st.integers(1, 9), min_size=2, max_size=6), st.integers(0, 10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_gather_fold_matches_reduceat(self, stride, lengths, seed):
        lengths = [stride * n for n in lengths[:-1]] + lengths[-1:]
        rng = np.random.default_rng(seed)
        conv = Conv1d(rng, 3, 4, stride=stride)
        y, cache = conv.forward(rng.normal(size=(sum(lengths), 3)), Segments(lengths))
        dy = rng.normal(size=y.shape)
        # oracle: the gapped rows' gradients, summed per input row by reduceat
        xp, t_out, (_, keep, first, _) = cache
        dy_all = np.zeros((t_out, 4))
        dy_all[keep] = dy
        dxp = np.zeros_like(xp)
        for i in range(3):
            dxp[i:i + stride * t_out:stride] += dy_all @ conv.W.value[i].T
        want = np.add.reduceat(dxp, first, axis=0)
        np.testing.assert_allclose(conv.backward(dy, cache), want, rtol=1e-13, atol=1e-15)

    def test_segments_must_cover_input_and_align(self):
        rng = np.random.default_rng(15)
        conv = Conv1d(rng, 2, 2, stride=2)
        with pytest.raises(ShapeMismatch):
            conv.forward(np.zeros((6, 2)), Segments([2, 2]))
        with pytest.raises(ShapeMismatch):
            conv.forward(np.zeros((6, 2)), Segments([3, 3]))

    def test_resblock_packed_gradients(self):
        rng = np.random.default_rng(16)
        block = ResBlock(rng, 3)
        seg = Segments([4, 1, 5])

        class Packed(Module):
            def __init__(self):
                super().__init__()
                self.add_child("res", block)

            def forward(self, x):
                return block.forward(x, seg)

            def backward(self, dy, cache):
                return block.backward(dy, cache)

        check_layer(Packed(), rng.normal(size=(10, 3)))


class TestOtherLayers:
    def test_linear_gradients(self):
        rng = np.random.default_rng(7)
        check_layer(Linear(rng, 5, 3), rng.normal(size=(6, 5)))

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_linear_stack_maps_each_block_alone(self, rows):
        # one-row blocks go through another BLAS kernel than taller ones; a
        # stack must give every block the bits of its own product
        rng = np.random.default_rng(rows)
        layer = Linear(rng, 16, 64)
        stack = rng.normal(size=(7, rows, 16))
        got, _ = layer.forward(stack)
        for block, out in zip(stack, got, strict=True):
            assert np.array_equal(out, layer.forward(block.copy())[0])
        with pytest.raises(ShapeMismatch):
            layer.forward(stack[None])

    def test_relu_gradients(self):
        rng = np.random.default_rng(9)
        check_layer(ReLU(), rng.normal(size=(10, 4)))

    def test_upsample_doubles_and_backward_sums(self):
        up = Upsample2()
        x = np.array([[1.0], [2.0]])
        y, cache = up.forward(x)
        np.testing.assert_array_equal(y, [[1.0], [1.0], [2.0], [2.0]])
        dx = up.backward(np.array([[1.0], [10.0], [100.0], [1000.0]]), cache)
        np.testing.assert_array_equal(dx, [[11.0], [1100.0]])

    def test_resblock_gradients(self):
        rng = np.random.default_rng(10)
        check_layer(ResBlock(rng, 4), rng.normal(size=(6, 4)))

    def test_resblock_is_identity_plus_residual(self):
        rng = np.random.default_rng(11)
        block = ResBlock(rng, 3)
        for p in block.params()["b.W"], block.params()["b.b"]:
            p.value[...] = 0.0
        x = rng.normal(size=(5, 3))
        y, _ = block.forward(x)
        np.testing.assert_array_equal(y, x)


class TestModulePlumbing:
    def test_param_names_are_hierarchical(self):
        rng = np.random.default_rng(12)
        block = ResBlock(rng, 2)
        names = set(block.params("res.").keys())
        assert names == {"res.a.W", "res.a.b", "res.b.W", "res.b.b"}

    def test_export_load_round_trip(self):
        rng = np.random.default_rng(13)
        a = ResBlock(rng, 3)
        b = ResBlock(np.random.default_rng(99), 3)
        b.load_values(a.export_values())
        x = rng.normal(size=(4, 3))
        ya, _ = a.forward(x)
        yb, _ = b.forward(x)
        np.testing.assert_array_equal(ya, yb)

    def test_load_rejects_wrong_names(self):
        rng = np.random.default_rng(14)
        block = ResBlock(rng, 2)
        vals = block.export_values()
        vals["extra"] = np.zeros(1)
        with pytest.raises(ShapeMismatch):
            block.load_values(vals)


class LoopAdam:
    """The per-parameter Adam loop that the flat-buffer Adam replaced."""

    def __init__(self, values, lr, weight_decay, warmup, b1=0.9, b2=0.999, eps=1e-8):
        self.values, self.lr, self.wd, self.warmup = values, lr, weight_decay, warmup
        self.b1, self.b2, self.eps, self.t = b1, b2, eps, 0
        self.m = {k: np.zeros_like(v) for k, v in values.items()}
        self.v = {k: np.zeros_like(v) for k, v in values.items()}

    def step(self, grads):
        lr_t = self.lr * (self.t + 1) / self.warmup if self.t < self.warmup else self.lr
        self.t += 1
        b1, b2 = self.b1, self.b2
        bias1, bias2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for k, g in grads.items():
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            update = (self.m[k] / bias1) / (np.sqrt(self.v[k] / bias2) + self.eps)
            if self.wd > 0.0:
                update = update + self.wd * self.values[k]
            self.values[k] = self.values[k] - lr_t * update


class TestAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.03])
    def test_flat_buffer_matches_per_parameter_loop(self, weight_decay):
        rng = np.random.default_rng(21)
        shapes = {"W": (3, 4), "b": (4,), "alpha": (), "k": (2, 3, 2)}
        params = {k: Param(rng.normal(size=s)) for k, s in shapes.items()}
        oracle = LoopAdam({k: p.value.copy() for k, p in params.items()},
                          lr=0.05, weight_decay=weight_decay, warmup=6)
        opt = Adam(params, lr=0.05, weight_decay=weight_decay, warmup=6)
        for _ in range(15):  # across the end of warmup
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            opt.zero_grad()
            for k, p in params.items():
                p.grad += grads[k]
            opt.step()
            oracle.step(grads)
            for k, p in params.items():
                assert p.value.shape == shapes[k]
                np.testing.assert_array_equal(p.value, oracle.values[k])

    def test_loaded_values_reach_the_optimizer(self):
        rng = np.random.default_rng(22)
        block = ResBlock(rng, 3)
        opt = Adam(block.params(), lr=0.1)
        other = ResBlock(np.random.default_rng(23), 3).export_values()
        block.load_values(other)
        np.testing.assert_array_equal(
            opt.value, np.concatenate([other[k].ravel() for k in block.params()]))
        opt.step()  # zero gradient: the update moves nothing
        for k, p in block.params().items():
            np.testing.assert_array_equal(p.value, other[k])
        block.params()["a.b"].grad += 1.0
        opt.step()
        assert np.all(block.params()["a.b"].value < other["a.b"])

    def test_minimises_quadratic(self):
        p = Param(np.array([5.0, -3.0]))
        opt = Adam({"p": p}, lr=0.1)
        for _ in range(400):
            opt.zero_grad()
            p.grad += 2 * p.value  # d/dp ||p||^2
            opt.step()
        assert np.linalg.norm(p.value) < 1e-3

    def test_warmup_ramps_linearly(self):
        p = Param(np.zeros(1))
        opt = Adam({"p": p}, lr=1.0, warmup=10)
        lrs = []
        for _ in range(12):
            lrs.append(opt.current_lr())
            opt.step()
        np.testing.assert_allclose(lrs[:10], [(i + 1) / 10 for i in range(10)])
        assert lrs[10] == lrs[11] == 1.0

    def test_decoupled_decay_acts_without_gradient(self):
        p = Param(np.array([1.0]))
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.5)
        opt.step()  # zero gradient: pure decay p -= lr * wd * p
        assert np.isclose(p.value[0], 1.0 - 0.1 * 0.5)

    def test_deterministic_given_same_grads(self):
        def run():
            p = Param(np.array([1.0, 2.0]))
            opt = Adam({"p": p}, lr=0.05, weight_decay=0.01, warmup=5)
            rng = np.random.default_rng(0)
            for _ in range(50):
                opt.zero_grad()
                p.grad += rng.normal(size=2)
                opt.step()
            return p.value.copy()

        np.testing.assert_array_equal(run(), run())


class TestFit:
    def quadratic(self, totals=None):
        """A one-parameter problem, loss p^2, and a step that logs its calls."""
        p = Param(np.array([2.0]))
        calls = []

        def step(k):
            calls.append(k)
            p.grad += 2 * p.value
            return {"total": float(p.value[0] ** 2) if totals is None else totals[k],
                    "part": float(k)}

        return {"p": p}, step, calls

    def test_too_few_items_for_a_batch(self):
        params, step, calls = self.quadratic()
        with pytest.raises(DegenerateBatch, match="3 samples cannot fill batches of 4"):
            fit(params, TrainConfig(batch_size=4, steps=2), 3, step)
        assert calls == []

    def test_non_finite_total_names_its_step(self):
        params, step, calls = self.quadratic(totals=[1.0, 0.5, np.nan, 0.1])
        with pytest.raises(DivergenceDetected, match="^loss diverged at step 2$"):
            fit(params, TrainConfig(batch_size=1, steps=4), 1, step)
        assert calls == [0, 1, 2]

    def test_divergence_raised_by_a_step_names_its_step(self):
        params, step, calls = self.quadratic()

        def diverging(k):
            step(k)
            if k == 3:
                raise DivergenceDetected("logit scale diverged to 0.0")
            return {"total": 1.0}

        with pytest.raises(DivergenceDetected,
                           match="^logit scale diverged to 0.0 at step 3$") as info:
            fit(params, TrainConfig(batch_size=1, steps=5), 1, diverging)
        assert calls == [0, 1, 2, 3]
        assert "\n" not in str(info.value)

    def test_one_record_per_step_handed_over_in_order(self):
        params, step, calls = self.quadratic()
        seen = []
        cfg = TrainConfig(lr=0.1, weight_decay=0.0, warmup=0, batch_size=1, steps=5)
        history = fit(params, cfg, 1, step, history_hook=seen.append)
        assert calls == list(range(5))
        assert [h["step"] for h in history] == list(range(5))
        assert [h["part"] for h in history] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert seen == history
        # the loop is the plain Adam loop: same bits as driving Adam by hand
        q = Param(np.array([2.0]))
        opt = Adam({"q": q}, lr=0.1)
        for record in history:
            opt.zero_grad()
            assert record["total"] == float(q.value[0] ** 2)
            q.grad += 2 * q.value
            opt.step()
        assert params["p"].value.tobytes() == q.value.tobytes()
