"""Finite-difference validation of every hand-written layer.

Each test builds a scalar loss from a layer's output and compares the
backward-pass gradients (for parameters and inputs alike) against central
differences with step 1e-5.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from behavegen.errors import ShapeMismatch
from behavegen.nn import (
    Adam,
    Conv1d,
    Linear,
    Module,
    Param,
    ReLU,
    ResBlock,
    Segments,
    Upsample2,
    finite_difference_grads,
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
        check_layer(Conv1d(rng, 3, 4, kernel=3), rng.normal(size=(7, 3)))

    def test_stride2_gradients_even_length(self):
        rng = np.random.default_rng(2)
        conv = Conv1d(rng, 3, 2, kernel=3, stride=2)
        x = rng.normal(size=(8, 3))
        y, _ = conv.forward(x)
        assert y.shape == (4, 2)
        check_layer(conv, x)

    def test_short_input_gradients(self):
        rng = np.random.default_rng(3)
        check_layer(Conv1d(rng, 2, 2, kernel=3), rng.normal(size=(2, 2)))

    def test_replicate_padding_value(self):
        rng = np.random.default_rng(4)
        conv = Conv1d(rng, 1, 1, kernel=3)
        x = np.array([[1.0], [2.0], [3.0]])
        y, _ = conv.forward(x)
        w = conv.W.value[:, 0, 0]
        # first output frame sees (x0, x0, x1) via replicate padding
        assert np.isclose(y[0, 0], w[0] * 1 + w[1] * 1 + w[2] * 2 + conv.b.value[0])

    def test_halving_chain(self):
        rng = np.random.default_rng(5)
        conv = Conv1d(rng, 2, 2, kernel=3, stride=2)
        length = 48
        for _ in range(3):
            length = conv.out_length(length)
        assert length == 6

    def test_input_shape_check(self):
        rng = np.random.default_rng(6)
        conv = Conv1d(rng, 3, 4)
        with pytest.raises(ShapeMismatch):
            conv.forward(np.zeros((5, 2)))


class TestPackedConv1d:
    """One call on packed segments against one call per segment."""

    @given(st.sampled_from([1, 2]), st.sampled_from([3, 5]),
           st.lists(st.integers(1, 9), min_size=1, max_size=6), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_segment_calls(self, stride, kernel, lengths, seed):
        # every segment but the last must be a multiple of the stride
        lengths = [stride * n for n in lengths[:-1]] + lengths[-1:]
        rng = np.random.default_rng(seed)
        conv = Conv1d(rng, 3, 4, kernel=kernel, stride=stride)
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

    def test_linear_on_single_vector(self):
        rng = np.random.default_rng(8)
        lin = Linear(rng, 4, 2)
        v = rng.normal(size=4)
        y, cache = lin.forward(v)
        assert y.shape == (2,)
        dv = lin.backward(np.ones(2), cache)
        assert dv.shape == (4,)

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
        for p in block.conv_b.params().values():
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


class TestAdam:
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
