"""Acceptance gate: one test per top-level deliverable property.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the same condition, so both human and CI readings agree.  The heavy
pipeline (bundled config, 500-sample corpus, two-stage training) is built once
per session and shared.

Run:  pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import behavegen.cli as cli
from behavegen.bottleneck import (
    BottleneckConfig,
    BottleneckModel,
    Posterior,
    batch_from_samples,
    contrastive_loss,
    encode,
    kl_prior_loss,
    make_noises,
    similarity_matrix,
    vbb_grad,
    vbb_loss,
)
from behavegen.composition import generate_composed, generate_single_shot
from behavegen.config import load_run_config, run_config_from_dict
from behavegen.flow import (
    FlowConfig,
    FlowModel,
    SamplerConfig,
    euler_sample,
    fm_grad,
    fm_loss,
    interpolate,
)
from behavegen.metrics import order_accuracy, paired_sign_test, transition_score
from behavegen.nn import finite_difference_grads, relative_grad_error
from behavegen.serialization import read_json
from behavegen.theory import run_suites
from behavegen.world import (
    DatasetSpec,
    ExtractionConfig,
    action_kl,
    generate_dataset,
    make_vocabulary,
    make_world,
)
from test_nn import zero_grads

REPO = Path(__file__).resolve().parent.parent
BASE_CONFIG = str(REPO / "configs" / "base.json")
HOLDOUT = 64


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name} — {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared pipeline artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    data = root / "data.json"
    vbb = root / "vbb"
    flow = root / "flow"
    eval_json = root / "eval.json"

    assert cli.main(["gen-data", "--config", BASE_CONFIG,
                     "--out", str(data)]) == 0
    t0 = time.time()
    assert cli.main(["train-vbb", "--config", BASE_CONFIG, "--data", str(data),
                     "--out", str(vbb), "--holdout", str(HOLDOUT)]) == 0
    assert cli.main(["train-flow", "--config", BASE_CONFIG, "--data", str(data),
                     "--vbb", str(vbb), "--out", str(flow),
                     "--holdout", str(HOLDOUT)]) == 0
    train_seconds = time.time() - t0
    assert cli.main(["eval", "--config", BASE_CONFIG, "--data", str(data),
                     "--vbb", str(vbb), "--flow", str(flow),
                     "--out", str(eval_json), "--n-eval", str(HOLDOUT),
                     "--holdout", str(HOLDOUT)]) == 0

    cfg = load_run_config(BASE_CONFIG)
    bottleneck, world, spec, extraction, vocab = cli._load_bottleneck(str(vbb))
    flow_model = cli._load_flow(str(flow))
    return {
        "root": root,
        "data": str(data),
        "vbb": str(vbb),
        "flow": str(flow),
        "eval_json": str(eval_json),
        "train_seconds": train_seconds,
        "cfg": cfg,
        "bottleneck": bottleneck,
        "flow_model": flow_model,
        "world": world,
        "spec": spec,
        "vocab": vocab,
    }


# ---------------------------------------------------------------------------
# criterion 1: analytic-guarantee suites
# ---------------------------------------------------------------------------

def test_theorem_suites():
    out = run_suites(seed=0, n_compression=500, n_smoothing=200, n_margin=500)
    ok = out["ok"] and out["elapsed_seconds"] < 120.0
    detail = (f"compression {out['compression']['passed']}/500, "
              f"smoothing {out['smoothing']['passed']}/200, "
              f"margin {out['margin']['passed']}/500, "
              f"{out['elapsed_seconds']:.2f}s (< 120s)")
    assert report("theorem-suites", ok, detail)


# ---------------------------------------------------------------------------
# criterion 2: gradient correctness on <= 500-parameter toys
# ---------------------------------------------------------------------------

def _toy_corpus():
    world = make_world(state_dim=3, action_dim=2, d_z=2, target_L_s=0.8,
                       target_L_z=0.5, seed=41)
    spec = DatasetSpec(n_samples=6, behaviors=("walk", "turn"), d_text=4,
                       embed_seed=7, dur_min=6, dur_max=9, stage_probs=(1.0,))
    extraction = ExtractionConfig(lookahead=2)
    vocab = make_vocabulary(spec.behaviors, spec.separator, spec.d_text,
                            spec.embed_seed)
    samples = generate_dataset(world, extraction, spec, vocab, seed=3)
    return world, vocab, samples


def test_gradient_checks():
    world, vocab, samples = _toy_corpus()
    bcfg = BottleneckConfig(d_z=2, d_m=3, d_e=3, width=4, levels=1, d_text=4)
    # seed 1: at seed 0 one decoder preactivation sits within the probing
    # step of a relu kink, which corrupts the central-difference estimate
    model = BottleneckModel(bcfg, seed=1)
    assert model.param_count() <= 500
    batch = batch_from_samples(samples[:4], vocab)
    rng = np.random.default_rng(11)
    noises = make_noises(model, batch, rng)

    zero_grads(model)
    vbb_grad(model, world, batch, noises)
    analytic = {k: p.grad.copy() for k, p in model.params().items()}

    def vbb_loss_fn():
        total, _ = vbb_loss(model, world, batch, noises)
        return total

    numeric = finite_difference_grads(vbb_loss_fn, model.params())
    vbb_err = relative_grad_error(analytic, numeric)

    fcfg = FlowConfig(d_m=3, d_e=3, width=4, blocks=1, r_dim=4)
    fmodel = FlowModel(fcfg, seed=1)
    assert fmodel.param_count() <= 500
    program = rng.standard_normal((4, 3))
    noise = rng.standard_normal((4, 3))
    y_vec = rng.standard_normal(3)
    y_vec /= np.linalg.norm(y_vec)

    zero_grads(fmodel)
    fm_grad(fmodel, program, noise, 0.37, y_vec=y_vec)
    analytic_f = {k: p.grad.copy() for k, p in fmodel.params().items()}
    numeric_f = finite_difference_grads(
        lambda: fm_loss(fmodel, program, noise, 0.37, y_vec=y_vec),
        fmodel.params())
    flow_err = relative_grad_error(analytic_f, numeric_f)

    ok = vbb_err < 1e-4 and flow_err < 1e-4
    assert report("gradient-checks", ok,
                  f"bottleneck rel err {vbb_err:.2e}, flow rel err "
                  f"{flow_err:.2e} (< 1e-4; {model.param_count()} and "
                  f"{fmodel.param_count()} params)")


# ---------------------------------------------------------------------------
# criterion 3: loss oracles
# ---------------------------------------------------------------------------

def _similarity_oracle(progs, texts, lam_tok, lam_frm):
    """Scalar-loop recomputation of the pooled similarity definition."""
    b = len(progs)
    r = np.empty((b, b))
    for i in range(b):
        for j in range(b):
            t_frames = progs[i].shape[0]
            f = np.empty(t_frames)
            for t in range(t_frames):
                cos = [float(progs[i][t] @ texts[j][k])
                       for k in range(texts[j].shape[0])]
                peak = max(c / lam_tok for c in cos)
                mean_exp = sum(math.exp(c / lam_tok - peak) for c in cos) / len(cos)
                f[t] = lam_tok * (peak + math.log(mean_exp))
            g = f / lam_frm
            g = g - g.max()
            w = np.exp(g)
            w = w / w.sum()
            r[i, j] = float(w @ f)
    return r


def _contrastive_oracle(r_mat, gamma):
    b = r_mat.shape[0]
    s = gamma * np.asarray(r_mat, dtype=float)
    total = 0.0
    for i in range(b):
        row = s[i, i] - math.log(sum(math.exp(v) for v in s[i]))
        col = s[i, i] - math.log(sum(math.exp(v) for v in s[:, i]))
        total += -(row + col)
    return total / (2 * b)


def test_loss_oracles():
    rng = np.random.default_rng(5)

    def unit_rows(n, d):
        m = rng.standard_normal((n, d))
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    progs = [unit_rows(int(rng.integers(1, 5)), 6) for _ in range(8)]
    texts = [unit_rows(int(rng.integers(1, 6)), 6) for _ in range(8)]
    got = similarity_matrix(progs, texts, 0.2, 0.2)
    want = _similarity_oracle(progs, texts, 0.2, 0.2)
    sim_err = float(np.abs(got - want).max())

    r_mat = rng.standard_normal((6, 6))
    con_err = abs(contrastive_loss(r_mat, 3.7) - _contrastive_oracle(r_mat, 3.7))

    # posterior KL against a Monte-Carlo estimate of E[log q - log p]
    mu = rng.standard_normal((3, 4))
    log_var = rng.uniform(-1.5, 0.5, size=(3, 4))
    post = Posterior(mu=mu, log_var=log_var)
    exact = kl_prior_loss(post)
    sigma = np.exp(0.5 * log_var)
    n_draws, chunk = 1_000_000, 100_000
    stats = []
    for start in range(0, n_draws, chunk):
        x = mu + sigma * rng.standard_normal((chunk,) + mu.shape)
        log_q = -0.5 * (((x - mu) / sigma) ** 2 + 2 * np.log(sigma)
                        + math.log(2 * math.pi))
        log_p = -0.5 * (x ** 2 + math.log(2 * math.pi))
        stats.append((log_q - log_p).mean(axis=(1, 2)))
    stats = np.concatenate(stats)
    kl_se = stats.std(ddof=1) / math.sqrt(n_draws)
    kl_gap = abs(stats.mean() - exact)

    # action divergence against sampled log-ratios
    world = make_world(state_dim=4, action_dim=3, d_z=3, seed=9)
    states = rng.standard_normal((11, 4))
    z_ref = unit_rows(10, 3)
    z_hat = unit_rows(10, 3)
    exact_akl = action_kl(world, states, z_ref, z_hat)
    mu_ref = states[:10] @ world.W_s.T + z_ref @ world.W_z.T
    mu_hat = states[:10] @ world.W_s.T + z_hat @ world.W_z.T
    n_draws = 100_000
    a = mu_hat[None] + world.sigma_pi * rng.standard_normal((n_draws,) + mu_hat.shape)
    log_ratio = ((a - mu_ref) ** 2 - (a - mu_hat) ** 2).sum(axis=2) \
        / (2 * world.sigma_pi ** 2)
    per_draw = log_ratio.mean(axis=1)
    akl_se = per_draw.std(ddof=1) / math.sqrt(n_draws)
    akl_gap = abs(per_draw.mean() - exact_akl)

    ok = (sim_err < 1e-12 and con_err < 1e-12
          and kl_gap < 3 * kl_se and akl_gap < 3 * akl_se)
    assert report("loss-oracles", ok,
                  f"similarity max err {sim_err:.1e}, contrastive err "
                  f"{con_err:.1e} (< 1e-12); posterior KL gap {kl_gap:.2e} vs "
                  f"3SE {3*kl_se:.2e}; action KL gap {akl_gap:.2e} vs 3SE "
                  f"{3*akl_se:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: path endpoints and sampler convergence order
# ---------------------------------------------------------------------------

def test_flow_path_and_convergence():
    rng = np.random.default_rng(21)
    noise = rng.standard_normal((5, 4))
    program = rng.standard_normal((5, 4))
    end0 = interpolate(noise, program, 0.0)
    end1 = interpolate(noise, program, 1.0)
    endpoints_ok = (end0.tobytes() == noise.tobytes()
                    and end1.tobytes() == program.tobytes())

    fcfg = FlowConfig(d_m=4, d_e=3, width=16, blocks=2, r_dim=8)
    model = FlowModel(fcfg, seed=35)
    # an untrained random field is stiffer than a trained one; damping the
    # output head puts steps=4 inside the first-order regime
    for name, p in model.params().items():
        if name.startswith("out."):
            p.value *= 0.3
    path_rng = np.random.default_rng(17)
    start = path_rng.normal(size=(6, 4))
    y = path_rng.normal(size=3)
    y /= np.linalg.norm(y)
    ref = euler_sample(model, start, SamplerConfig(steps=256, guidance=1.0),
                       y_vec=y)

    def err(steps):
        out = euler_sample(model, start, SamplerConfig(steps=steps, guidance=1.0),
                           y_vec=y)
        return float(np.linalg.norm(out - ref))

    errs = {s: err(s) for s in (4, 8, 16, 32)}
    anchor = errs[4] * 4
    ratios = {s: errs[s] * s / anchor for s in (4, 8, 16, 32)}
    conv_ok = all(0.5 <= ratios[s] <= 2.0 for s in ratios)

    ok = endpoints_ok and conv_ok
    assert report("flow-path-and-convergence", ok,
                  f"endpoints bit-exact: {endpoints_ok}; err·steps/C at "
                  f"{{8: {ratios[8]:.2f}, 16: {ratios[16]:.2f}, "
                  f"32: {ratios[32]:.2f}}} within [0.5, 2.0]")


# ---------------------------------------------------------------------------
# criterion 5: end-to-end learning on the bundled corpus
# ---------------------------------------------------------------------------

def test_end_to_end_learning(pipeline):
    rep = read_json(pipeline["eval_json"])
    ratio = rep["recon_mse"] / rep["baseline_mse"]
    ok = (pipeline["train_seconds"] < 600.0
          and ratio < 0.25
          and rep["retrieval_top1"] >= 0.8
          and rep["prototype_match"] >= 0.9)
    assert report("end-to-end-learning", ok,
                  f"training {pipeline['train_seconds']:.0f}s (< 600s); "
                  f"held-out recon ratio {ratio:.4f} (< 0.25); retrieval "
                  f"top-1 {rep['retrieval_top1']:.3f} (>= 0.8); prototype "
                  f"match {rep['prototype_match']:.3f} (>= 0.9)")


# ---------------------------------------------------------------------------
# criterion 6: compression sweep ordering
# ---------------------------------------------------------------------------

def test_compression_sweep(pipeline):
    doc = json.loads(Path(BASE_CONFIG).read_text())
    doc["vbb_train"]["steps"] = 1200  # equal budget for both factors
    cfg = run_config_from_dict(doc)
    world = pipeline["world"]
    spec = pipeline["spec"]
    vocab = pipeline["vocab"]
    _, _, _, _, _, samples = cli._read_dataset(pipeline["data"])
    rows = cli.compression_sweep(cfg, world, spec, vocab,
                                 samples[:-HOLDOUT], samples[-HOLDOUT:],
                                 budgets=(8, 16))
    kl8 = rows[0]["mean_action_kl"]
    kl16 = rows[1]["mean_action_kl"]
    ok = kl16 > kl8
    assert report("compression-sweep", ok,
                  f"action KL c=16 {kl16:.4f} > c=8 {kl8:.4f} "
                  f"(equal {doc['vbb_train']['steps']}-step budgets)")


# ---------------------------------------------------------------------------
# criterion 7: composed vs single-shot on 3-stage prompts
# ---------------------------------------------------------------------------

def test_composition_direction(pipeline):
    cfg = pipeline["cfg"]
    vocab = pipeline["vocab"]
    world = pipeline["world"]
    bottleneck = pipeline["bottleneck"]
    flow_model = pipeline["flow_model"]
    gen = cfg.generation
    n_trials = 100

    rng = np.random.default_rng(2024)
    rows = []
    for trial in range(n_trials):
        ids = [int(rng.integers(8))]
        while len(ids) < 3:
            nxt = int(rng.integers(7))
            if nxt >= ids[-1]:
                nxt += 1
            ids.append(nxt)
        sep = vocab.words[vocab.separator_id]
        tokens = vocab.encode(f" {sep} ".join(vocab.words[b] for b in ids))
        seed = 10_000 + trial
        comp = generate_composed(flow_model, bottleneck, vocab, world, tokens,
                                 t_m=gen.t_m, sampler=cfg.sampler, seed=seed,
                                 overlap=gen.overlap,
                                 init_state_scale=gen.init_state_scale)
        single = generate_single_shot(flow_model, bottleneck, vocab, world,
                                      tokens, t_m=gen.t_m * 3,
                                      sampler=cfg.sampler, seed=seed,
                                      init_state_scale=gen.init_state_scale)
        rows.append((
            order_accuracy(bottleneck, vocab, comp.latents, comp.boundaries, ids),
            order_accuracy(bottleneck, vocab, single.latents, single.boundaries, ids),
            transition_score(comp.states, comp.boundaries),
            transition_score(single.states, single.boundaries),
        ))

    oc, os_, tc, ts = (np.array(v) for v in zip(*rows))
    sign_order = paired_sign_test(oc, os_)
    sign_trans = paired_sign_test(ts, tc)
    ok = (oc.mean() > os_.mean() and tc.mean() < ts.mean()
          and sign_order["p_value"] < 0.05 and sign_trans["p_value"] < 0.05)
    assert report("composition-direction", ok,
                  f"order acc {oc.mean():.3f} > {os_.mean():.3f} "
                  f"(p {sign_order['p_value']:.2e}); transition "
                  f"{tc.mean():.4f} < {ts.mean():.4f} "
                  f"(p {sign_trans['p_value']:.2e}); {n_trials} paired trials")


# ---------------------------------------------------------------------------
# criterion 8: byte-identical artifacts
# ---------------------------------------------------------------------------

def test_determinism(pipeline, tmp_path):
    data2 = tmp_path / "data2.json"
    assert cli.main(["gen-data", "--config", BASE_CONFIG,
                     "--out", str(data2)]) == 0
    data_ok = data2.read_bytes() == Path(pipeline["data"]).read_bytes()

    # training determinism at a reduced budget (the loop and seeding are
    # identical; only the step count differs from the bundled config)
    doc = json.loads(Path(BASE_CONFIG).read_text())
    doc["vbb_train"]["steps"] = 300
    doc["flow_train"]["steps"] = 300
    short_cfg = tmp_path / "short.json"
    short_cfg.write_text(json.dumps(doc))
    blobs = {}
    for tag in ("a", "b"):
        vbb = tmp_path / f"vbb_{tag}"
        flw = tmp_path / f"flow_{tag}"
        assert cli.main(["train-vbb", "--config", str(short_cfg),
                         "--data", pipeline["data"], "--out", str(vbb),
                         "--holdout", str(HOLDOUT)]) == 0
        assert cli.main(["train-flow", "--config", str(short_cfg),
                         "--data", pipeline["data"], "--vbb", str(vbb),
                         "--out", str(flw), "--holdout", str(HOLDOUT)]) == 0
        blobs[tag] = (Path(str(vbb) + ".bin").read_bytes(),
                      Path(str(flw) + ".bin").read_bytes())
    ckpt_ok = blobs["a"] == blobs["b"]

    eval2 = tmp_path / "eval2.json"
    assert cli.main(["eval", "--config", BASE_CONFIG,
                     "--data", pipeline["data"], "--vbb", pipeline["vbb"],
                     "--flow", pipeline["flow"], "--out", str(eval2),
                     "--n-eval", str(HOLDOUT), "--holdout", str(HOLDOUT)]) == 0
    eval_ok = eval2.read_bytes() == Path(pipeline["eval_json"]).read_bytes()

    ok = data_ok and ckpt_ok and eval_ok
    assert report("determinism", ok,
                  f"dataset bytes equal: {data_ok}; checkpoint blobs equal: "
                  f"{ckpt_ok}; eval report bytes equal: {eval_ok}")
