"""Verification harness for the analytic guarantees behind the pipeline.

Three families of checks, each returning a report dict with an ``ok`` flag
and the measured margins rather than raising on a violated bound, so callers
can aggregate and surface failures:

* compression error propagation: replacing a latent trajectory by its greedy
  m-segment piecewise-constant approximation perturbs a contractive rollout
  by at most L_z * (V / (m - 1)) * sum_j L_s^j at every step;
* extraction smoothness: on full lookahead windows the pre-projection latent
  difference telescopes to an exact two-state expression, which caps the
  total variation of the projected latents;
* contrastive margin separation: a pooled-embedding gap floor and the induced
  retrieval probability floor.

Random instance generators and suite runners live here too; the command-line
``verify-bounds`` subcommand is a thin wrapper over ``run_suites``.
"""

import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import (
    CountMismatch,
    DegenerateRho,
    PreconditionViolated,
    RangeError,
    ShapeMismatch,
    ZeroNormInput,
    check_seed,
)
from .geometry import (
    max_deviation,
    piecewise_constant_approx,
    project_rows,
    row_dots,
    row_norms,
    total_variation,
)
from .world import (
    ExtractionConfig,
    SyntheticWorld,
    lookahead_averages,
    make_worlds,
    rollouts,
)

BOUND_TOL = 1e-9
RHO_FLOOR = 1e-8  # smallest pre-projection norm for which the smoothing cap means anything
TELESCOPE_TOL = 1e-10
SUITE_BLOCK = 256  # instances a suite draws and rolls out together


# ---------------------------------------------------------------------------
# compression error propagation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCase:
    """A drawn bound instance: the world of ``recipe`` rolls ``z_seqs`` out
    from ``s1``, and ``check(world, states)`` turns their states, in order,
    into the report.  ``check_cases`` makes the reports."""

    recipe: dict
    s1: np.ndarray
    z_seqs: tuple
    check: Callable[[SyntheticWorld, list], dict]


def check_cases(cases) -> list:
    """The report of each case, in order.  Every case's world is built in one
    ``make_worlds`` call and every trajectory rolled out in one ``rollouts``
    call.  A lone case rolls out in one world, with the bits of rollouts of
    its own; a block of several worlds agrees with that to rounding."""
    worlds = make_worlds([c.recipe for c in cases])
    states = iter(rollouts(*zip(*((w, c.s1, z) for w, c in zip(worlds, cases)
                                  for z in c.z_seqs))))
    return [c.check(w, [next(states) for _ in c.z_seqs]) for w, c in zip(worlds, cases)]


def compression_case(recipe: dict, z, m: int, s1) -> BoundCase:
    """A latent trajectory and its m-segment approximation, to be rolled out
    from ``s1`` and checked against the per-step and uniform error bounds."""
    approx, starts = piecewise_constant_approx(z, m)
    return BoundCase(recipe, s1, (z, approx), partial(
        _compression_report, z, approx, m, len(starts)))


def _compression_report(z, approx, m, segments, world, states) -> dict:
    states_ref, states_hat = states
    v_total = total_variation(z)
    delta = v_total / (m - 1)
    dev = max_deviation(z, approx)
    errs = np.linalg.norm(states_ref - states_hat, axis=1)

    l_s, l_z = world.L_s, world.L_z
    # e at state row i obeys e_i <= L_z * delta * sum_{k<i} L_s^k
    geo = np.cumsum(l_s ** np.arange(errs.shape[0]))
    bounds = np.concatenate([[0.0], l_z * delta * geo[:-1]])
    per_step_ok = bool(np.all(errs <= bounds + BOUND_TOL))
    worst_margin = float(np.max(errs - bounds))

    uniform = l_z * v_total / ((m - 1) * (1.0 - l_s)) if l_s < 1 else np.inf
    uniform_ok = bool(np.max(errs) <= uniform + BOUND_TOL)
    dev_ok = bool(dev <= delta + BOUND_TOL)

    return {
        "ok": per_step_ok and uniform_ok and dev_ok,
        "per_step_ok": per_step_ok,
        "uniform_ok": uniform_ok,
        "deviation_ok": dev_ok,
        "segments": segments,
        "total_variation": float(v_total),
        "delta": float(delta),
        "max_deviation": float(dev),
        "max_error": float(np.max(errs)),
        "uniform_bound": float(uniform),
        "worst_margin": worst_margin,
        "tightness": float(np.max(errs) / uniform) if uniform > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# extraction smoothness
# ---------------------------------------------------------------------------

def verify_smoothing_bound(world: SyntheticWorld, cfg: ExtractionConfig, states) -> dict:
    """Telescoping identity and total-variation cap on full lookahead windows.

    With a full window the averaged feature difference collapses to
    (B s_{t+L+1} - B s_{t+1}) / L exactly; combined with the sphere
    projection being (2 sqrt(d) / rho)-Lipschitz outside radius rho, the
    projected latents' total variation is capped by
    (2 sqrt(d_z) L_B / (rho L)) * sum_t ||s_{t+L+1} - s_{t+1}||.
    """
    s_arr = np.asarray(states, dtype=float)
    span = cfg.lookahead
    n_z = s_arr.shape[0] - 1
    if n_z - span < 1:
        raise ShapeMismatch(
            f"need at least {span + 2} states for two full windows"
        )
    averages = lookahead_averages(world, cfg, s_arr)
    full = averages[:n_z - span + 1]  # rows with a complete window

    feats = s_arr @ world.B_mat.T
    n_full = full.shape[0]
    rhs = (feats[1 + span:n_full + span] - feats[1:n_full]) / span
    worst_tel = float(np.max(np.abs(np.diff(full, axis=0) - rhs)))
    telescope_ok = worst_tel <= TELESCOPE_TOL

    rho = float(np.min(np.linalg.norm(full, axis=1)))
    if rho < RHO_FLOOR:
        raise DegenerateRho(
            f"pre-projection norms reach {rho:.3e}; cap is vacuous"
        )
    z_full = project_rows(full, cfg.norm_floor)
    tv = total_variation(z_full)
    d_z = world.d_z
    # summed left to right, one window pair after another
    state_var = sum(row_norms(s_arr[1 + span:n_full + span] - s_arr[1:n_full]).tolist())
    cap = (2.0 * np.sqrt(d_z) * world.L_B / (rho * span)) * state_var
    tv_ok = bool(tv <= cap + BOUND_TOL)

    return {
        "ok": telescope_ok and tv_ok,
        "telescope_ok": telescope_ok,
        "tv_ok": tv_ok,
        "worst_telescope": worst_tel,
        "rho": rho,
        "tv": float(tv),
        "tv_cap": float(cap),
        "full_windows": int(full.shape[0]),
        "tightness": float(tv / cap) if cap > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# contrastive margin separation
# ---------------------------------------------------------------------------

def _unit(v):
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise ZeroNormInput("cannot normalize a near-zero vector")
    return v / n


def verify_margin_bound(e_y, e_m, negatives, delta: float, tau: float) -> dict:
    """Gap and retrieval-probability floors for a matched pair against
    negatives that keep a cosine margin from the paired prompt.

    Preconditions: all vectors unit-norm, every negative satisfies
    <e_y, e_neg> <= 1 - delta.  The floors only bind in the margin regime
    delta > eta + sqrt(2 eta) with eta = 1 - <e_y, e_m>.
    """
    if tau <= 0:
        raise RangeError(f"temperature {tau} must be positive")
    e_y = np.asarray(e_y, dtype=float)
    vecs = [e_y, np.asarray(e_m, dtype=float)] + [np.asarray(n, dtype=float) for n in negatives]
    if len(vecs) == 2:
        raise CountMismatch("need at least one negative")
    if e_y.ndim != 1:
        raise ShapeMismatch(f"embeddings must be vectors, got shape {e_y.shape}")
    # the vectors before the first of another shape are checked for unit norm first
    same = next((i for i, v in enumerate(vecs) if v.shape != e_y.shape), len(vecs))
    units = np.array(vecs[:same])
    if (np.abs(row_norms(units) - 1.0) > 1e-9).any():
        raise PreconditionViolated("embeddings must be unit-norm")
    if same < len(vecs):
        raise ShapeMismatch("all embeddings must share one dimension")
    e_m, negs = units[1], units[2:]
    cos_neg = max(row_dots(e_y, negs).tolist())
    if cos_neg > 1.0 - delta + 1e-12:
        raise PreconditionViolated(
            f"a negative has cosine {cos_neg:.6f} > 1 - delta"
        )

    eta = 1.0 - float(e_y @ e_m)
    margin_regime = delta > eta + np.sqrt(2.0 * eta)
    gap_floor = delta - eta - np.sqrt(2.0 * eta)
    match = float(e_m @ e_y)
    to_negs = row_dots(e_m, negs)
    actual_gap = min((match - to_negs).tolist())

    # softmax retrieval over the matched prompt plus the negatives
    logits = np.concatenate(([match], to_negs)) / tau
    logits -= logits.max()
    weights = np.exp(logits)
    p_match = float(weights[0] / weights.sum())
    n_neg = len(negs)
    p_floor = 1.0 / (1.0 + n_neg * np.exp(-gap_floor / tau))

    if margin_regime:
        gap_ok = actual_gap >= gap_floor - BOUND_TOL
        prob_ok = p_match >= p_floor - BOUND_TOL
    else:
        gap_ok = prob_ok = True  # floors are vacuous outside the regime

    return {
        "ok": bool(gap_ok and prob_ok),
        "margin_regime": bool(margin_regime),
        "eta": float(eta),
        "delta": float(delta),
        "gap_floor": float(gap_floor),
        "actual_gap": float(actual_gap),
        "gap_ok": bool(gap_ok),
        "p_match": p_match,
        "p_floor": float(p_floor),
        "prob_ok": bool(prob_ok),
        "n_negatives": n_neg,
    }


# ---------------------------------------------------------------------------
# random instances and suite runners
# ---------------------------------------------------------------------------

def random_sphere_walk(rng, n_steps: int, d_z: int, step: float = 0.35):
    """Correlated on-sphere trajectory: a projected Gaussian random walk."""
    raw = rng.standard_normal((n_steps, d_z))
    raw[1:] *= step
    raw = np.cumsum(raw, axis=0)
    low = np.linalg.norm(raw, axis=1) < 1e-6
    raw[low] = rng.standard_normal((int(low.sum()), d_z))
    return project_rows(raw)


def world_recipe(rng, ls_low: float = 0.5) -> dict:
    """A random world recipe for ``make_worlds``."""
    return dict(
        state_dim=int(rng.integers(3, 8)),
        action_dim=int(rng.integers(2, 6)),
        d_z=int(rng.integers(2, 6)),
        target_L_s=float(rng.uniform(ls_low, 0.95)),
        target_L_z=float(rng.uniform(0.3, 1.5)),
        target_L_B=float(rng.uniform(0.5, 2.0)),
        seed=int(rng.integers(0, 2 ** 31)),
    )


def draw_compression(rng) -> BoundCase:
    recipe = world_recipe(rng, ls_low=0.3)
    n_steps = int(rng.integers(20, 61))
    z = random_sphere_walk(rng, n_steps, recipe["d_z"])
    m = int(rng.choice([2, 4, 8, 16]))
    s1 = 0.5 * rng.standard_normal(recipe["state_dim"])
    return compression_case(recipe, z, m, s1)


def compression_instance(rng) -> dict:
    return check_cases([draw_compression(rng)])[0]


def draw_smoothing(rng) -> BoundCase:
    recipe = world_recipe(rng)
    span = int(rng.integers(2, 7))
    n_steps = int(rng.integers(span + 6, span + 40))
    z = random_sphere_walk(rng, n_steps, recipe["d_z"])
    s1 = 0.5 * rng.standard_normal(recipe["state_dim"])
    return BoundCase(recipe, s1, (z,), partial(
        _smoothing_suite_report, ExtractionConfig(lookahead=span)))


def _smoothing_suite_report(cfg, world, states) -> dict:
    try:
        return verify_smoothing_bound(world, cfg, states[0])
    except DegenerateRho:
        return {"ok": True, "degenerate_rho": True}


def smoothing_instance(rng) -> dict:
    return check_cases([draw_smoothing(rng)])[0]


def margin_instance(rng) -> dict:
    d = int(rng.integers(4, 33))
    eta = float(rng.uniform(0.0005, 0.08))
    e_y = _unit(rng.standard_normal(d))
    # rotate a second unit vector to the requested eta
    perp = rng.standard_normal(d)
    perp -= (perp @ e_y) * e_y
    perp = _unit(perp)
    cos_m = 1.0 - eta
    e_m = cos_m * e_y + np.sqrt(1.0 - cos_m ** 2) * perp
    # the margin regime needs delta > eta + sqrt(2 eta); eta <= 0.08 keeps
    # room for a satisfiable delta < 1
    floor_delta = eta + np.sqrt(2.0 * eta)
    delta = float(rng.uniform(floor_delta + 0.05, min(1.3, floor_delta + 0.6)))
    n_neg = int(rng.integers(1, 9))
    negs = []
    while len(negs) < n_neg:
        v = _unit(rng.standard_normal(d))
        if float(e_y @ v) <= 1.0 - delta:
            negs.append(v)
    tau = float(rng.uniform(0.05, 1.0))
    return verify_margin_bound(e_y, e_m, negs, delta, tau)


def suite_reports(draw, rng, count: int):
    """Reports of ``count`` drawn instances, in draw order.  Each block of at
    most SUITE_BLOCK instances is drawn, then checked by ``check_cases``.
    Checking draws nothing from ``rng``, so its stream is that of one
    instance after another."""
    for lo in range(0, count, SUITE_BLOCK):
        yield from check_cases([draw(rng) for _ in range(min(SUITE_BLOCK, count - lo))])


def run_suites(seed: int = 0, n_compression: int = 500, n_smoothing: int = 200,
               n_margin: int = 500) -> dict:
    """Run every family on fresh random instances; returns counts and timing."""
    if min(n_compression, n_smoothing, n_margin) < 0:
        raise RangeError(f"suite counts {n_compression}, {n_smoothing}, {n_margin} must be >= 0")
    rng = np.random.default_rng(check_seed(seed))
    t0 = time.perf_counter()
    results = {}
    for name, reports, count in (
        ("compression", suite_reports(draw_compression, rng, n_compression), n_compression),
        ("smoothing", suite_reports(draw_smoothing, rng, n_smoothing), n_smoothing),
        ("margin", (margin_instance(rng) for _ in range(n_margin)), n_margin),
    ):
        passed = 0
        failures = []
        for i, rep in enumerate(reports):
            if rep["ok"]:
                passed += 1
            elif len(failures) < 5:
                failures.append({"instance": i, **rep})
        results[name] = {"passed": passed, "total": count, "failures": failures}
    results["elapsed_seconds"] = time.perf_counter() - t0
    results["ok"] = all(
        results[k]["passed"] == results[k]["total"]
        for k in ("compression", "smoothing", "margin")
    )
    return results


def sweep_compression_grid(seed: int = 0, segment_counts=(2, 3, 4, 6, 8, 12),
                           n_trials: int = 10) -> list:
    """Bound-tightness rows over a grid of segment budgets, for plotting.
    Every instance is checked in one ``check_cases`` block."""
    rng = np.random.default_rng(seed)
    cases = []
    for m in segment_counts:
        for trial in range(n_trials):
            recipe = world_recipe(rng)
            z = random_sphere_walk(rng, int(rng.integers(30, 61)), recipe["d_z"])
            s1 = 0.5 * rng.standard_normal(recipe["state_dim"])
            case = compression_case(recipe, z, m, s1)
            cases.append(replace(case, check=partial(_sweep_row, case.check, m, trial)))
    return check_cases(cases)


def _sweep_row(check, m, trial, world, states) -> dict:
    rep = check(world, states)
    return {"m": m, "trial": trial, "L_s": world.L_s, "L_z": world.L_z,
            **{k: rep[k] for k in ("total_variation", "delta", "max_error",
                                   "uniform_bound", "tightness", "ok")}}
