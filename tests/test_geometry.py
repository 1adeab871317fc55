"""Tests for latent-trajectory geometry.

Expected values for the non-trivial cases come from the loop oracles at the
top of this file, which deliberately share no code with the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from behavegen.errors import RangeError, ShapeMismatch, ZeroNormInput
from behavegen.geometry import (
    blend_overlap,
    max_deviation,
    piecewise_constant_approx,
    project_rows,
    project_to_sphere,
    row_dots,
    row_norms,
    total_variation,
)


# ---------------------------------------------------------------------------
# oracles: plain-python reference computations
# ---------------------------------------------------------------------------

def tv_oracle(z):
    total = 0.0
    for t in range(1, len(z)):
        total += math.sqrt(sum((z[t][i] - z[t - 1][i]) ** 2 for i in range(len(z[t]))))
    return total


def max_dev_oracle(a, b):
    worst = 0.0
    for x, y in zip(a, b):
        d = math.sqrt(sum((xi - yi) ** 2 for xi, yi in zip(x, y)))
        worst = max(worst, d)
    return worst


def sphere_oracle(u):
    n = math.sqrt(sum(x * x for x in u))
    return [math.sqrt(len(u)) * x / n for x in u]


def loop_piecewise_constant(z, m):
    """piecewise_constant_approx with a step over NumPy scalars and one
    segment filled at a time."""
    n_steps = z.shape[0]
    if m >= n_steps:
        return z.copy(), tuple(range(n_steps))
    delta = total_variation(z) / (m - 1)
    step_norms = np.linalg.norm(np.diff(z, axis=0), axis=1)
    starts = [0]
    acc = 0.0
    for t in range(1, n_steps):
        step = float(step_norms[t - 1])
        if acc + step > delta:
            starts.append(t)
            acc = 0.0
        else:
            acc += step
    reps = np.empty_like(z)
    for a, b in zip(starts, starts[1:] + [n_steps]):
        reps[a:b] = z[a]
    return reps, tuple(starts)


def segment_slices(starts, n_steps):
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], n_steps])]


def random_sphere_traj(rng, n_steps, d_z, step_scale=0.5):
    """Random walk re-projected to the sqrt(d_z) sphere at every step."""
    z = np.empty((n_steps, d_z))
    v = rng.normal(size=d_z)
    z[0] = project_to_sphere(v)
    for t in range(1, n_steps):
        v = z[t - 1] + step_scale * rng.normal(size=d_z)
        z[t] = project_to_sphere(v)
    return z


# ---------------------------------------------------------------------------
# project_to_sphere
# ---------------------------------------------------------------------------

class TestProjection:
    def test_two_dim_example(self):
        out = project_to_sphere(np.array([3.0, 4.0]))
        expected = np.sqrt(2.0) * np.array([0.6, 0.8])
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_vector_already_on_sphere_is_fixed(self):
        u = np.array([2.0, 0.0, 0.0, 0.0])  # norm 2 = sqrt(4)
        np.testing.assert_allclose(project_to_sphere(u), u, rtol=0, atol=0)

    def test_matches_oracle_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 12))
            u = rng.normal(size=d) * 10 ** rng.uniform(-3, 3)
            np.testing.assert_allclose(
                project_to_sphere(u), sphere_oracle(list(u)), rtol=1e-12
            )

    def test_zero_norm_raises(self):
        with pytest.raises(ZeroNormInput):
            project_to_sphere(np.zeros(5))
        with pytest.raises(ZeroNormInput):
            project_to_sphere(np.full(3, 1e-12))

    def test_norm_floor_is_configurable(self):
        u = np.full(3, 1e-12)
        out = project_to_sphere(u, norm_floor=1e-15)
        assert np.isclose(np.linalg.norm(out), np.sqrt(3))

    @given(st.integers(1, 16), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, d, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=d)
        if np.linalg.norm(u) < 1e-6:
            return
        once = project_to_sphere(u)
        twice = project_to_sphere(once)
        assert np.allclose(once, twice, rtol=1e-13, atol=1e-13)
        assert np.isclose(np.linalg.norm(once), np.sqrt(d), rtol=1e-12)

    def test_project_rows(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(6, 4))
        out = project_rows(z)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 2.0, rtol=1e-12)
        for t in range(6):
            np.testing.assert_allclose(out[t], project_to_sphere(z[t]), rtol=1e-14)


# ---------------------------------------------------------------------------
# total_variation
# ---------------------------------------------------------------------------

class TestTotalVariation:
    def test_constant_trajectory_is_zero(self):
        z = np.ones((7, 3))
        assert total_variation(z) == 0.0

    def test_single_frame_is_zero(self):
        assert total_variation(np.ones((1, 4))) == 0.0

    def test_two_frames(self):
        z = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert np.isclose(total_variation(z), 5.0, rtol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            z = rng.normal(size=(int(rng.integers(2, 40)), int(rng.integers(1, 8))))
            assert np.isclose(total_variation(z), tv_oracle(z.tolist()), rtol=1e-12)

    def test_concatenation_superadditive(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(9, 3))
        b = rng.normal(size=(6, 3))
        whole = np.vstack([a, b])
        assert total_variation(whole) >= total_variation(a) + total_variation(b) - 1e-12

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_rotation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(8, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        assert np.isclose(total_variation(z), total_variation(z @ q), rtol=1e-10)


class TestRowNorms:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_bits_of_one_norm_per_row(self, seed, n_rows, dim):
        # zero rows and rows whose squares are tiny or huge included
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n_rows, dim)) * 10.0 ** rng.uniform(-8, 8, size=(n_rows, 1))
        x[rng.random(n_rows) < 0.15] = 0.0
        x[rng.random(n_rows) < 0.15] *= 1e-150
        x[rng.random(n_rows) < 0.15] *= 1e150
        y = rng.normal(size=dim)
        with np.errstate(over="ignore", invalid="ignore"):  # squares past 1e308 are inf
            want = np.array([np.linalg.norm(v) for v in x])
            assert row_norms(x).tobytes() == want.tobytes()
            assert row_dots(y, x).tobytes() == np.array([y @ v for v in x]).tobytes()
            assert row_dots(x, x[::-1]).tobytes() == np.array(
                [u @ v for u, v in zip(x, x[::-1], strict=True)]).tobytes()

    def test_extreme_rows(self):
        x = np.array([[0.0, 0.0, 0.0], [1e-150, 2e-150, 2e-150], [1e150, -2e150, 2e150],
                      [3.0, 4.0, 0.0]])
        want = np.array([np.linalg.norm(v) for v in x])
        assert row_norms(x).tobytes() == want.tobytes()
        assert row_norms(x)[0] == 0.0 and row_norms(x)[3] == 5.0


# ---------------------------------------------------------------------------
# piecewise_constant_approx
# ---------------------------------------------------------------------------

class TestPiecewiseConstant:
    def test_constant_trajectory_single_segment(self):
        z = np.tile([1.0, -2.0], (9, 1))
        approx, starts = piecewise_constant_approx(z, 3)
        np.testing.assert_array_equal(approx, z)
        assert len(starts) == 1

    def test_budget_at_least_length_reproduces_exactly(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(6, 4))
        for m in (6, 7, 20):
            approx, starts = piecewise_constant_approx(z, m)
            np.testing.assert_array_equal(approx, z)
            assert len(starts) == 6

    def test_representative_is_first_frame_of_segment(self):
        # a jump of 10 against delta = 5.5 forces a new segment at t = 4; the
        # second segment drifts to [10, 1] but is represented by [10, 0]
        z = np.vstack([
            np.tile([0.0, 0.0], (4, 1)),
            np.tile([10.0, 0.0], (2, 1)),
            np.tile([10.0, 1.0], (2, 1)),
        ])
        approx, starts = piecewise_constant_approx(z, 3)
        assert starts == (0, 4)
        np.testing.assert_array_equal(approx[:4], np.tile([0.0, 0.0], (4, 1)))
        np.testing.assert_array_equal(approx[4:], np.tile([10.0, 0.0], (4, 1)))

    def test_jump_equal_to_budget_stays_single_segment(self):
        # total variation 10 with m = 2 gives delta = 10; the single step of
        # exactly 10 ties with the budget and must not split
        z = np.vstack([np.tile([0.0, 0.0], (4, 1)), np.tile([10.0, 0.0], (4, 1))])
        approx, starts = piecewise_constant_approx(z, 2)
        assert len(starts) == 1
        assert max_deviation(z, approx) <= 10.0 + 1e-12

    def test_deviation_bound_random_trajectories(self):
        rng = np.random.default_rng(13)
        for trial in range(200):
            d_z = int(rng.integers(2, 9))
            n = int(rng.integers(4, 60))
            z = random_sphere_traj(rng, n, d_z, step_scale=float(rng.uniform(0.05, 1.5)))
            for m in (2, 4, 8):
                approx, starts = piecewise_constant_approx(z, m)
                v = tv_oracle(z.tolist())
                bound = v / (m - 1)
                dev = max_dev_oracle(z.tolist(), approx.tolist())
                assert dev <= bound + 1e-9, (
                    f"trial {trial}: deviation {dev:.6g} exceeds V/(m-1) = {bound:.6g}"
                )
                assert len(starts) <= m

    def test_intra_segment_variation_never_exceeds_budget(self):
        rng = np.random.default_rng(29)
        z = random_sphere_traj(rng, 50, 4)
        m = 5
        approx, starts = piecewise_constant_approx(z, m)
        delta = total_variation(z) / (m - 1)
        for seg in segment_slices(starts, 50):
            assert tv_oracle(z[seg].tolist()) <= delta + 1e-12

    def test_tie_stays_in_segment(self):
        # steps of length 1 each, V = 4, m = 5 -> delta = 1; a single step
        # exactly equals the budget and must not open a new segment
        z = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        approx, starts = piecewise_constant_approx(z, 5)
        # m >= T path reproduces exactly here, so force the greedy path with m=3
        approx, starts = piecewise_constant_approx(z, 3)
        # delta = 4/2 = 2; steps accumulate 1,2 then a third would hit 3 > 2
        assert starts == (0, 3)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 70), st.integers(1, 6),
           st.sampled_from([2, 3, 4, 8, 16, 100]))
    @settings(max_examples=150, deadline=None)
    def test_matches_segment_loop(self, seed, n_steps, d_z, m):
        rng = np.random.default_rng(seed)
        z = random_sphere_traj(rng, n_steps, d_z, step_scale=float(rng.uniform(0.01, 2.0)))
        z[rng.random(n_steps) < 0.2] = z[0]  # repeated frames make zero steps and ties
        approx, starts = piecewise_constant_approx(z, m)
        want, want_starts = loop_piecewise_constant(z, m)
        assert starts == want_starts
        assert approx.tobytes() == want.tobytes()

    def test_budget_below_two_raises(self):
        z = np.zeros((4, 2))
        with pytest.raises(RangeError):
            piecewise_constant_approx(z, 1)

    def test_partition_covers_everything_once(self):
        rng = np.random.default_rng(17)
        z = random_sphere_traj(rng, 33, 3)
        _, starts = piecewise_constant_approx(z, 4)
        covered = []
        for seg in segment_slices(starts, 33):
            covered.extend(range(seg.start, seg.stop))
        assert covered == list(range(33))


# ---------------------------------------------------------------------------
# blend_overlap
# ---------------------------------------------------------------------------

class TestBlend:
    def test_single_frame_is_midpoint(self):
        tail = np.array([[2.0, 0.0]])
        head = np.array([[0.0, 2.0]])
        np.testing.assert_allclose(blend_overlap(tail, head), [[1.0, 1.0]], rtol=1e-15)

    def test_weights_for_overlap_four(self):
        tail = np.zeros((4, 1))
        head = np.ones((4, 1))
        out = blend_overlap(tail, head)
        np.testing.assert_allclose(out[:, 0], [0.2, 0.4, 0.6, 0.8], rtol=1e-15)

    def test_blend_lies_on_segment(self):
        rng = np.random.default_rng(23)
        tail = rng.normal(size=(6, 5))
        head = rng.normal(size=(6, 5))
        out = blend_overlap(tail, head)
        for o in range(6):
            rho = (o + 1) / 7
            np.testing.assert_allclose(out[o], (1 - rho) * tail[o] + rho * head[o], rtol=1e-14)
            # convexity: each coordinate between the endpoints
            lo = np.minimum(tail[o], head[o])
            hi = np.maximum(tail[o], head[o])
            assert np.all(out[o] >= lo - 1e-12) and np.all(out[o] <= hi + 1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeMismatch):
            blend_overlap(np.zeros((3, 2)), np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

class TestTypes:
    def test_max_deviation_matches_oracle(self):
        rng = np.random.default_rng(37)
        a = rng.normal(size=(12, 3))
        b = rng.normal(size=(12, 3))
        assert np.isclose(max_deviation(a, b), max_dev_oracle(a.tolist(), b.tolist()), rtol=1e-12)
