"""Verification-harness tests: every reported number is recomputed with plain
loops, the tight instances attain their floors to near machine precision, and
degenerate inputs raise instead of certifying vacuously."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import behavegen.theory as theory
from behavegen.errors import (
    CountMismatch,
    DegenerateRho,
    PreconditionViolated,
    RangeError,
    ShapeMismatch,
)
from behavegen.geometry import piecewise_constant_approx, project_rows, total_variation
from behavegen.theory import (
    check_cases,
    compression_case,
    compression_instance,
    margin_instance,
    random_sphere_walk,
    run_suites,
    smoothing_instance,
    sweep_compression_grid,
    verify_margin_bound,
    verify_smoothing_bound,
    world_recipe,
)
from behavegen.world import ExtractionConfig, lookahead_averages, make_world, rollout


# ---------------------------------------------------------------------------
# loop oracles and tight instances
# ---------------------------------------------------------------------------

def loop_sphere_walk(rng, n_steps, d_z, step=0.35):
    """random_sphere_walk one step at a time, one draw of d_z normals per step."""
    raw = np.empty((n_steps, d_z))
    raw[0] = rng.standard_normal(d_z)
    for t in range(1, n_steps):
        raw[t] = raw[t - 1] + step * rng.standard_normal(d_z)
    low = np.linalg.norm(raw, axis=1) < 1e-6
    raw[low] = rng.standard_normal((int(low.sum()), d_z))
    return project_rows(raw)


def margin_tight_instance(d, eta, n_negatives=1):
    """Embeddings that attain the gap and probability floors exactly.

    The negative along (e_m - e_y) / ||e_m - e_y|| has cosine -sqrt(eta/2)
    with e_y, so delta = 1 + sqrt(eta/2) makes the precondition an equality
    and the realized gap equal to its floor.
    """
    e_y = np.eye(d)[0]
    # unit e_m at angle theta with cos(theta) = 1 - eta
    e_m = np.zeros(d)
    e_m[0] = 1.0 - eta
    e_m[1] = np.sqrt(1.0 - (1.0 - eta) ** 2)
    e_neg = (e_m - e_y) / np.linalg.norm(e_m - e_y)
    return e_y, e_m, [e_neg] * n_negatives, 1.0 + np.sqrt(eta / 2.0)


def loop_suites(seed, n_compression, n_smoothing, n_margin):
    """run_suites one instance after another, each rolled out on its own."""
    rng = np.random.default_rng(seed)
    results = {}
    for name, gen, count in (("compression", compression_instance, n_compression),
                             ("smoothing", smoothing_instance, n_smoothing),
                             ("margin", margin_instance, n_margin)):
        reports = [gen(rng) for _ in range(count)]
        failures = [{"instance": i, **rep} for i, rep in enumerate(reports) if not rep["ok"]]
        results[name] = {"passed": sum(rep["ok"] for rep in reports), "total": count,
                         "failures": failures[:5]}
    return results


def compression_report(world, z, m, s1):
    """The report of one compression instance in ``world``."""
    return check_cases([compression_case(world.to_config(), z, m, s1)])[0]


def loop_sweep(seed, segment_counts, n_trials):
    """sweep_compression_grid one instance after another, each world built
    and rolled out on its own."""
    rng = np.random.default_rng(seed)
    rows = []
    for m in segment_counts:
        for trial in range(n_trials):
            world = make_world(**world_recipe(rng))
            z = random_sphere_walk(rng, int(rng.integers(30, 61)), world.d_z)
            rep = compression_report(world, z, m, 0.5 * rng.standard_normal(world.state_dim))
            rows.append({"m": m, "trial": trial, "L_s": world.L_s, "L_z": world.L_z,
                         **{k: rep[k] for k in ("total_variation", "delta", "max_error",
                                                "uniform_bound", "tightness", "ok")}})
    return rows


def assert_reports_close(got, want):
    """Equal keys, flags and counts; floats to the rounding of a mixed-world
    batch."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            np.testing.assert_allclose(got[key], value, rtol=1e-13, atol=1e-14, err_msg=key)
        else:
            assert got[key] == value, key


def loop_worst_telescope(world, cfg, states):
    """Largest telescope residual of verify_smoothing_bound, one window pair
    at a time over the same full-window averages."""
    span = cfg.lookahead
    full = lookahead_averages(world, cfg, states)[:states.shape[0] - span]
    feats = states @ world.B_mat.T
    worst = 0.0
    for i in range(full.shape[0] - 1):
        lhs = full[i + 1] - full[i]
        rhs = (feats[i + 1 + span] - feats[i + 1]) / span
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


# ---------------------------------------------------------------------------
# compression error propagation
# ---------------------------------------------------------------------------

class TestCompressionBound:
    def test_report_matches_loop_recomputation(self):
        rng = np.random.default_rng(1)
        world = make_world(state_dim=4, action_dim=3, d_z=3, target_L_s=0.85,
                           target_L_z=0.8, target_L_B=1.0, seed=2)
        z = random_sphere_walk(rng, 30, 3)
        s1 = 0.5 * rng.standard_normal(4)
        m = 5
        rep = compression_report(world, z, m, s1)

        approx, _ = piecewise_constant_approx(z, m)
        sa = rollout(world, s1, z)
        sb = rollout(world, s1, approx)
        delta = total_variation(z) / (m - 1)
        worst = -np.inf
        max_err = 0.0
        for i in range(sa.shape[0]):
            err = float(np.linalg.norm(sa[i] - sb[i]))
            bound = world.L_z * delta * sum(world.L_s ** k for k in range(i))
            worst = max(worst, err - bound)
            max_err = max(max_err, err)
            assert err <= bound + 1e-9
        assert rep["ok"]
        assert rep["delta"] == pytest.approx(delta, rel=1e-12)
        assert rep["max_error"] == pytest.approx(max_err, rel=1e-12)
        assert rep["worst_margin"] == pytest.approx(worst, abs=1e-12)
        uniform = world.L_z * total_variation(z) / ((m - 1) * (1 - world.L_s))
        assert rep["uniform_bound"] == pytest.approx(uniform, rel=1e-12)

    def test_exact_budget_gives_zero_error(self):
        rng = np.random.default_rng(3)
        world = make_world(state_dim=3, action_dim=2, d_z=2, target_L_s=0.7,
                           target_L_z=0.5, target_L_B=1.0, seed=4)
        z = random_sphere_walk(rng, 8, 2)
        rep = compression_report(world, z, m=8, s1=np.zeros(3))
        assert rep["ok"]
        assert rep["max_error"] == 0.0
        assert rep["max_deviation"] == 0.0

    def test_bound_is_exercised(self):
        # coarse budgets must produce real error, not a vacuous 0 <= bound
        rng = np.random.default_rng(5)
        world = make_world(state_dim=4, action_dim=3, d_z=3, target_L_s=0.9,
                           target_L_z=1.0, target_L_B=1.0, seed=6)
        z = random_sphere_walk(rng, 40, 3)
        rep = compression_report(world, z, m=2, s1=np.zeros(4))
        assert rep["ok"]
        assert rep["max_error"] > 1e-3
        assert 0.0 < rep["tightness"] <= 1.0

    def test_random_instances_all_pass(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            assert compression_instance(rng)["ok"]

    def test_one_batched_rollout_matches_two_calls(self, monkeypatch):
        batched = [compression_instance(np.random.default_rng(seed)) for seed in range(60)]
        monkeypatch.setattr(theory, "rollouts", lambda worlds, s1s, z_seqs: [
            rollout(w, s1, z) for w, s1, z in zip(worlds, s1s, z_seqs, strict=True)])
        assert batched == [compression_instance(np.random.default_rng(seed)) for seed in range(60)]


# ---------------------------------------------------------------------------
# extraction smoothness
# ---------------------------------------------------------------------------

class TestSmoothingBound:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_telescope_matches_loop_exactly(self, seed):
        rng = np.random.default_rng(seed)
        world = make_world(**world_recipe(rng))
        span = int(rng.integers(1, 8))
        z = random_sphere_walk(rng, int(rng.integers(span + 1, span + 40)), world.d_z)
        states = rollout(world, 0.5 * rng.standard_normal(world.state_dim), z)
        cfg = ExtractionConfig(lookahead=span)
        try:
            rep = verify_smoothing_bound(world, cfg, states)
        except DegenerateRho:
            return
        worst = loop_worst_telescope(world, cfg, states)
        assert rep["worst_telescope"] == worst
        assert rep["telescope_ok"] == (worst <= 1e-10)

    def test_report_matches_loop_recomputation(self):
        rng = np.random.default_rng(8)
        world = make_world(state_dim=4, action_dim=3, d_z=3, target_L_s=0.8,
                           target_L_z=0.7, target_L_B=1.2, seed=9)
        z = random_sphere_walk(rng, 25, 3)
        states = rollout(world, 0.5 * rng.standard_normal(4), z)
        span = 4
        cfg = ExtractionConfig(lookahead=span)
        rep = verify_smoothing_bound(world, cfg, states)

        feats = states @ world.B_mat.T
        n_z = states.shape[0] - 1
        n_full = n_z - span + 1
        assert rep["full_windows"] == n_full
        averages = np.stack([
            feats[i + 1:i + 1 + span].mean(axis=0) for i in range(n_full)
        ])
        worst = 0.0
        for i in range(n_full - 1):
            lhs = averages[i + 1] - averages[i]
            rhs = (feats[i + 1 + span] - feats[i + 1]) / span
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst <= 1e-10
        assert rep["worst_telescope"] == pytest.approx(worst, abs=1e-15)

        rho = min(float(np.linalg.norm(a)) for a in averages)
        assert rep["rho"] == pytest.approx(rho, rel=1e-12)
        unit = averages / np.linalg.norm(averages, axis=1, keepdims=True)
        z_full = np.sqrt(world.d_z) * unit
        tv = sum(float(np.linalg.norm(z_full[i + 1] - z_full[i]))
                 for i in range(n_full - 1))
        assert rep["tv"] == pytest.approx(tv, rel=1e-12)
        state_var = sum(float(np.linalg.norm(states[i + 1 + span] - states[i + 1]))
                        for i in range(n_full - 1))
        cap = 2 * np.sqrt(world.d_z) * world.L_B / (rho * span) * state_var
        assert rep["tv_cap"] == pytest.approx(cap, rel=1e-12)
        assert rep["ok"]
        assert tv <= cap + 1e-9

    def test_degenerate_rho_raises(self):
        world = make_world(state_dim=3, action_dim=2, d_z=2, target_L_s=0.7,
                           target_L_z=0.5, target_L_B=1.0, seed=10)
        x = np.ones(3)
        # alternating states make every two-step feature average exactly zero
        states = np.stack([x if i % 2 == 0 else -x for i in range(8)])
        with pytest.raises(DegenerateRho):
            verify_smoothing_bound(world, ExtractionConfig(lookahead=2), states)

    def test_too_short_for_full_windows(self):
        world = make_world(state_dim=3, action_dim=2, d_z=2, target_L_s=0.7,
                           target_L_z=0.5, target_L_B=1.0, seed=11)
        from behavegen.errors import ShapeMismatch
        with pytest.raises(ShapeMismatch):
            verify_smoothing_bound(world, ExtractionConfig(lookahead=4),
                                   np.ones((5, 3)))

    def test_random_instances_all_pass(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            assert smoothing_instance(rng)["ok"]


# ---------------------------------------------------------------------------
# contrastive margin separation
# ---------------------------------------------------------------------------

class TestMarginBound:
    def test_report_matches_loop_recomputation(self):
        d = 6
        e_y = np.zeros(d)
        e_y[0] = 1.0
        eta = 0.02
        e_m = np.zeros(d)
        e_m[0] = 1.0 - eta
        e_m[1] = np.sqrt(1 - (1 - eta) ** 2)
        neg1 = np.zeros(d)
        neg1[2] = 1.0  # cosine 0 with e_y
        neg2 = np.zeros(d)
        neg2[0], neg2[3] = -0.5, np.sqrt(0.75)
        delta, tau = 0.5, 0.2
        rep = verify_margin_bound(e_y, e_m, [neg1, neg2], delta, tau)

        assert rep["eta"] == pytest.approx(eta, abs=1e-12)
        floor = delta - eta - np.sqrt(2 * eta)
        assert rep["margin_regime"] == (delta > eta + np.sqrt(2 * eta))
        assert rep["gap_floor"] == pytest.approx(floor, rel=1e-12)
        gaps = [float(e_m @ e_y - e_m @ n) for n in (neg1, neg2)]
        assert rep["actual_gap"] == pytest.approx(min(gaps), rel=1e-12)
        num = np.exp(float(e_m @ e_y) / tau)
        den = num + sum(np.exp(float(e_m @ n) / tau) for n in (neg1, neg2))
        assert rep["p_match"] == pytest.approx(num / den, rel=1e-12)
        assert rep["p_floor"] == pytest.approx(
            1 / (1 + 2 * np.exp(-floor / tau)), rel=1e-12)
        assert rep["ok"]

    def test_tight_instance_attains_floors(self):
        for eta in (0.001, 0.01, 0.1, 0.4):
            e_y, e_m, negs, delta = margin_tight_instance(8, eta,
                                                          n_negatives=3)
            rep = verify_margin_bound(e_y, e_m, negs, delta, tau=0.1)
            assert rep["margin_regime"]
            assert rep["ok"]
            assert rep["actual_gap"] == pytest.approx(rep["gap_floor"],
                                                      abs=1e-12)
            assert rep["p_match"] == pytest.approx(rep["p_floor"], abs=1e-12)

    def test_outside_margin_regime_is_vacuous(self):
        e_y, e_m, negs, _ = margin_tight_instance(5, 0.3)
        rep = verify_margin_bound(e_y, e_m, negs, delta=0.3, tau=0.1)
        assert not rep["margin_regime"]
        assert rep["ok"]

    def test_precondition_violations(self):
        d = 4
        e_y = np.eye(d)[0]
        e_m = np.eye(d)[1]
        with pytest.raises(PreconditionViolated):
            # negative too close to the prompt for the claimed margin
            verify_margin_bound(e_y, e_m, [e_y], delta=0.5, tau=0.1)
        with pytest.raises(PreconditionViolated):
            verify_margin_bound(2 * e_y, e_m, [e_m], delta=0.5, tau=0.1)
        with pytest.raises(RangeError):
            verify_margin_bound(e_y, e_m, [e_m], delta=0.5, tau=0.0)
        with pytest.raises(CountMismatch):
            verify_margin_bound(e_y, e_m, [], delta=0.5, tau=0.1)

    def test_shape_and_norm_checks_in_vector_order(self):
        # unit norms are checked up to the first vector of another shape,
        # as a check of one vector after another would
        e_y, e_m = np.eye(4)[0], np.eye(4)[1]
        with pytest.raises(ShapeMismatch, match="share one dimension"):
            verify_margin_bound(e_y, e_m, [e_m, np.eye(3)[0]], delta=0.5, tau=0.1)
        with pytest.raises(PreconditionViolated, match="unit-norm"):
            verify_margin_bound(e_y, 2 * e_m, [np.eye(3)[0]], delta=0.5, tau=0.1)
        with pytest.raises(ShapeMismatch, match="vectors"):
            verify_margin_bound(e_y[None], e_m[None], [e_m[None]], delta=0.5, tau=0.1)

    def test_boundary_negative_passes_precondition(self):
        d = 4
        e_y = np.eye(d)[0]
        e_m = np.eye(d)[0]
        delta = 0.5
        neg = np.zeros(d)
        neg[0] = 1 - delta  # cosine exactly 1 - delta
        neg[1] = np.sqrt(1 - neg[0] ** 2)
        rep = verify_margin_bound(e_y, e_m, [neg], delta, tau=0.2)
        assert rep["ok"]

    def test_random_instances_all_pass(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            assert margin_instance(rng)["ok"]


# ---------------------------------------------------------------------------
# suites and sweeps
# ---------------------------------------------------------------------------

class TestSuites:
    def test_small_suite_all_green(self):
        out = run_suites(seed=0, n_compression=40, n_smoothing=15, n_margin=40)
        assert out["ok"]
        assert out["compression"]["passed"] == 40
        assert out["smoothing"]["passed"] == 15
        assert out["margin"]["passed"] == 40
        assert out["elapsed_seconds"] > 0
        assert out["compression"]["failures"] == []

    def test_deterministic(self):
        a = run_suites(seed=5, n_compression=10, n_smoothing=5, n_margin=10)
        b = run_suites(seed=5, n_compression=10, n_smoothing=5, n_margin=10)
        for key in ("compression", "smoothing", "margin"):
            assert a[key] == b[key]

    @pytest.mark.parametrize("seed", [0, 1, 9, 1501003])
    def test_batched_suites_match_per_instance_loop(self, seed):
        got = run_suites(seed=seed, n_compression=30, n_smoothing=12, n_margin=5)
        want = loop_suites(seed, 30, 12, 5)
        for name in ("compression", "smoothing", "margin"):
            assert got[name] == want[name], name

    @pytest.mark.parametrize("count", [0, 1])
    def test_empty_and_single_suites(self, count, monkeypatch):
        if count == 0:  # rollouts rejects an empty batch
            monkeypatch.setattr(theory, "rollouts", lambda *a: pytest.fail("rolled out"))
        got = run_suites(seed=4, n_compression=count, n_smoothing=count, n_margin=count)
        assert got["ok"]
        want = loop_suites(4, count, count, count)
        for name in ("compression", "smoothing", "margin"):
            assert got[name] == want[name], name

    def test_blocks_keep_the_draw_order(self, monkeypatch):
        monkeypatch.setattr(theory, "SUITE_BLOCK", 3)
        calls = []
        rollouts = theory.rollouts
        monkeypatch.setattr(theory, "rollouts", lambda *a: calls.append(len(a[2])) or rollouts(*a))
        got = run_suites(seed=6, n_compression=8, n_smoothing=7, n_margin=2)
        # blocks of 3, 3 and 2 instances with two trajectories each, then 3, 3, 1
        assert calls == [6, 6, 4, 3, 3, 1]
        want = loop_suites(6, 8, 7, 2)
        for name in ("compression", "smoothing", "margin"):
            assert got[name] == want[name], name

    def test_failures_listed_like_the_per_instance_loop(self, monkeypatch):
        # a negative tolerance fails every instance, so the failure reports
        # themselves are compared
        monkeypatch.setattr(theory, "BOUND_TOL", -1.0)
        monkeypatch.setattr(theory, "TELESCOPE_TOL", -1.0)
        got = run_suites(seed=2, n_compression=7, n_smoothing=7, n_margin=0)
        want = loop_suites(2, 7, 7, 0)
        for name in ("compression", "smoothing"):
            assert got[name]["passed"] == want[name]["passed"] < 7
            assert len(got[name]["failures"]) == len(want[name]["failures"]) == 5
            for a, b in zip(got[name]["failures"], want[name]["failures"], strict=True):
                assert_reports_close(a, b)

    @pytest.mark.parametrize("draw, single", [(theory.draw_compression, compression_instance),
                                              (theory.draw_smoothing, smoothing_instance)])
    def test_batched_reports_match_single_instances(self, draw, single):
        got = list(theory.suite_reports(draw, np.random.default_rng(21), 80))
        rng = np.random.default_rng(21)
        for a in got:
            assert_reports_close(a, single(rng))

    def test_sweep_rows(self):
        rows = sweep_compression_grid(seed=1, segment_counts=(2, 4),
                                      n_trials=3)
        assert len(rows) == 6
        for row in rows:
            assert row["ok"]
            assert 0 <= row["tightness"] <= 1.0
            assert row["max_error"] <= row["uniform_bound"] + 1e-9
        assert sorted({r["m"] for r in rows}) == [2, 4]

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_sweep_matches_one_world_at_a_time(self, seed, monkeypatch):
        # one block of mixed worlds: the same draws, worlds, ints and flags
        # as one world at a time, and floats equal to rounding
        calls = []
        for name in ("make_worlds", "rollouts"):
            monkeypatch.setattr(theory, name, lambda *a, f=getattr(theory, name), n=name:
                                calls.append(n) or f(*a))
        got = sweep_compression_grid(seed=seed)
        assert calls == ["make_worlds", "rollouts"]
        want = loop_sweep(seed, (2, 3, 4, 6, 8, 12), 10)
        assert len(got) == len(want) == 60
        for a, b in zip(got, want, strict=True):
            assert list(a) == list(b)
            assert (a["L_s"], a["L_z"]) == (b["L_s"], b["L_z"])
            assert_reports_close(a, b)


class TestRandomGenerators:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 80), st.integers(1, 8),
           st.sampled_from([0.35, 0.01, 3.0]))
    @settings(max_examples=80, deadline=None)
    def test_sphere_walk_matches_loop(self, seed, n_steps, d_z, step):
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_sphere_walk(rng_got, n_steps, d_z, step)
        want = loop_sphere_walk(rng_want, n_steps, d_z, step)
        np.testing.assert_array_equal(got, want)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state

    def test_sphere_walk_on_sphere(self):
        rng = np.random.default_rng(14)
        z = random_sphere_walk(rng, 50, 4)
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 2.0, rtol=1e-9)

    def test_walk_smoother_than_iid(self):
        rng = np.random.default_rng(15)
        walk = random_sphere_walk(rng, 100, 4, step=0.2)
        iid = random_sphere_walk(rng, 100, 4, step=100.0)
        assert total_variation(walk) < total_variation(iid)

    def test_random_world_contractive(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            world = make_world(**world_recipe(rng))
            assert world.L_s < 1.0
