"""End-to-end tests for the command-line interface.

A session-scoped pipeline run (tiny corpus, few training steps) feeds most
tests; each subcommand is exercised through ``main(argv)`` so the exit-code
contract is tested exactly as a shell would see it.
"""

import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import behavegen.cli as cli
from behavegen import errors, metrics
from behavegen.cli import main, training_prototypes
from behavegen.errors import InputError, TooFewSamples
from behavegen.serialization import read_json
from behavegen.world import Sample

TINY_CONFIG = {
    "schema_version": 1,
    "seed": 11,
    "world": {"state_dim": 3, "action_dim": 2, "d_z": 2,
              "target_L_s": 0.8, "target_L_z": 0.5, "seed": 41},
    "extraction": {"lookahead": 2},
    "dataset": {"n_samples": 24, "behaviors": ["walk", "turn"],
                "d_text": 4, "embed_seed": 7, "dur_min": 6, "dur_max": 9,
                "stage_probs": [0.6, 0.4]},
    "bottleneck": {"d_m": 3, "d_e": 3, "width": 4, "levels": 1},
    "vbb_train": {"steps": 25, "batch_size": 8, "lr": 1e-3, "warmup": 5},
    "flow": {"width": 4, "blocks": 1, "r_dim": 4},
    "flow_train": {"steps": 25, "batch_size": 8, "lr": 1e-3, "warmup": 5},
    "sampler": {"steps": 4, "guidance": 1.5},
    "generation": {"t_m": 2, "overlap": 1},
}


def run_cli_process(commands, threads=None):
    """Run CLI commands, one after another, in a process of their own: stderr
    then shows what a user sees (pytest records warnings instead), and BLAS
    reads ``threads`` (``OPENBLAS_NUM_THREADS``) afresh, as it does only at
    start-up.  Returns the finished process; its exit code is the largest."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    env.pop("BEHAVE_SEED", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    script = ("import json, sys\nfrom behavegen.cli import main\n"
              "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    return subprocess.run([sys.executable, "-c", script, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """Config plus trained artifacts shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    data = root / "data.json"
    vbb = root / "vbb"
    flow = root / "flow"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train-vbb", "--config", str(cfg), "--data", str(data),
                 "--out", str(vbb),
                 "--history", str(root / "vbb_hist.jsonl")]) == 0
    assert main(["train-flow", "--config", str(cfg), "--data", str(data),
                 "--vbb", str(vbb), "--out", str(flow)]) == 0
    return {"root": root, "cfg": str(cfg), "data": str(data),
            "vbb": str(vbb), "flow": str(flow)}


class TestArtifacts:
    def test_dataset_file_round_trips(self, workdir):
        doc = read_json(workdir["data"])
        assert len(doc["samples"]) == 24
        s = doc["samples"][0]
        assert len(s["states"]) == len(s["latents"]) + 1

    def test_checkpoints_carry_their_kind(self, workdir):
        vbb = read_json(workdir["vbb"] + ".json")
        flow = read_json(workdir["flow"] + ".json")
        assert vbb["hyperparams"]["kind"] == "bottleneck"
        assert flow["hyperparams"]["kind"] == "flow"
        # the bottleneck checkpoint is self-describing: world + dataset +
        # extraction travel with the weights
        assert set(vbb["hyperparams"]) >= {"config", "world", "dataset",
                                           "extraction", "train", "seed"}

    def test_history_opened_once_per_run_and_appended(self, workdir, tmp_path, monkeypatch):
        hist = tmp_path / "hist.jsonl"
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        for _ in range(2):
            assert main(["train-vbb", "--config", workdir["cfg"], "--data", workdir["data"],
                         "--out", str(tmp_path / "vbb"), "--history", str(hist)]) == 0
        assert opened.count(str(hist)) == 2
        steps = TINY_CONFIG["vbb_train"]["steps"]
        lines = hist.read_text().splitlines()
        assert [json.loads(line)["step"] for line in lines] == list(range(steps)) * 2

    def test_history_jsonl_written(self, workdir):
        lines = (workdir["root"] / "vbb_hist.jsonl").read_text().splitlines()
        assert len(lines) == TINY_CONFIG["vbb_train"]["steps"]
        rec = json.loads(lines[-1])
        assert rec["step"] == len(lines) - 1
        assert np.isfinite(rec["total"])


class TestGenerateAndCompose:
    def test_generate_writes_rollout(self, workdir, tmp_path):
        out = tmp_path / "single.json"
        rc = main(["generate", "--config", workdir["cfg"],
                   "--vbb", workdir["vbb"], "--flow", workdir["flow"],
                   "--prompt", "walk then turn", "--out", str(out)])
        assert rc == 0
        doc = read_json(str(out))
        assert doc["mode"] == "single-shot"
        # two clauses at t_m=2 each, compression 2: 8 latent frames
        assert len(doc["latents"]) == 8
        assert len(doc["states"]) == 9
        assert len(doc["boundaries"]) == 1

    def test_compose_writes_rollout(self, workdir, tmp_path):
        out = tmp_path / "comp.json"
        rc = main(["compose", "--config", workdir["cfg"],
                   "--vbb", workdir["vbb"], "--flow", workdir["flow"],
                   "--prompt", "walk then turn", "--out", str(out)])
        assert rc == 0
        doc = read_json(str(out))
        assert doc["mode"] == "composed"
        # two 4-frame stages joined with overlap 1: 7 frames; stage_lengths
        # records the pre-stitch decode lengths
        assert len(doc["latents"]) == 7
        assert doc["stage_lengths"] == [4, 4]
        # junction midpoint: first stage keeps 3 own frames, then the blend
        assert doc["boundaries"] == [3]

    def test_unknown_prompt_word_is_config_error(self, workdir, tmp_path):
        rc = main(["generate", "--config", workdir["cfg"],
                   "--vbb", workdir["vbb"], "--flow", workdir["flow"],
                   "--prompt", "fly", "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_seed_flag_changes_output(self, workdir, tmp_path):
        outs = []
        for seed in (1, 2):
            path = tmp_path / f"s{seed}.json"
            main(["generate", "--config", workdir["cfg"],
                  "--vbb", workdir["vbb"], "--flow", workdir["flow"],
                  "--prompt", "walk", "--seed", str(seed),
                  "--out", str(path)])
            outs.append(read_json(str(path)))
        assert outs[0]["latents"] != outs[1]["latents"]


class TestEval:
    def test_eval_report_and_plot_data(self, workdir, tmp_path):
        out = tmp_path / "eval.json"
        csv = tmp_path / "recon.csv"
        # two behaviors yield exactly three prompt bags: each word alone
        # plus the two-stage combination
        rc = main(["eval", "--config", workdir["cfg"],
                   "--data", workdir["data"], "--vbb", workdir["vbb"],
                   "--flow", workdir["flow"], "--out", str(out),
                   "--n-eval", "8", "--retrieval-batch", "3",
                   "--emit-plot-data", str(csv)])
        assert rc == 0
        doc = read_json(str(out))
        assert doc["n_samples"] == 8
        assert 0.0 <= doc["retrieval_top1"] <= doc["retrieval_top5"] <= 1.0
        assert doc["recon_mse"] > 0.0 and doc["baseline_mse"] > 0.0
        lines = csv.read_text().splitlines()
        assert lines[0] == "index,frames,recon_mse"
        assert len(lines) == 9

    def test_plot_data_reuses_the_reconstructions(self, workdir, tmp_path, monkeypatch):
        # the CSV rows come from the reconstructions the report already made
        decoded = []

        def spy(model, programs):
            decoded.append(len(programs))
            return decode_packed(model, programs)

        decode_packed = metrics.decode_packed
        monkeypatch.setattr(metrics, "decode_packed", spy)
        rc = main(["eval", "--config", workdir["cfg"],
                   "--data", workdir["data"], "--vbb", workdir["vbb"],
                   "--flow", workdir["flow"], "--out", str(tmp_path / "e.json"),
                   "--n-eval", "5", "--retrieval-batch", "3",
                   "--emit-plot-data", str(tmp_path / "recon.csv")])
        assert rc == 0
        # one reconstruction each for the trained and the baseline model, then
        # one decode of the generation study's 16 programs per behavior
        assert decoded == [5, 5, 32]

    def test_retrieval_batch_larger_than_distinct_prompts(self, workdir,
                                                          tmp_path):
        rc = main(["eval", "--config", workdir["cfg"],
                   "--data", workdir["data"], "--vbb", workdir["vbb"],
                   "--flow", workdir["flow"],
                   "--out", str(tmp_path / "e.json"),
                   "--retrieval-batch", "10000"])
        assert rc == 2


def _single_stage(b, mean_latent, frames=3):
    latents = np.tile(np.asarray(mean_latent, dtype=float), (frames, 1))
    return Sample(token_ids=(b,), states=np.zeros((frames + 1, 2)), latents=latents)


class TestTrainingPrototypes:
    def test_behaviors_without_single_stage_sample_drop_out(self):
        samples = [
            _single_stage(0, [3.0, 4.0]),
            _single_stage(0, [3.0, 4.0]),
            # multi-stage samples never make a prototype
            Sample(token_ids=(1, 3, 2), states=np.zeros((4, 2)), latents=np.ones((3, 2))),
            _single_stage(2, [0.0, -2.0]),
        ]
        ids, protos = training_prototypes(samples, 3, 2)
        assert ids == [0, 2]
        np.testing.assert_array_equal(protos, [[0.6, 0.8], [0.0, -1.0]])

    def test_fewer_than_two_prototypes_rejected(self):
        samples = [_single_stage(1, [1.0, 0.0]),
                   Sample(token_ids=(0, 2, 1), states=np.zeros((4, 2)),
                          latents=np.ones((3, 2)))]
        with pytest.raises(TooFewSamples, match=r"behaviors \[1\], need at least two"):
            training_prototypes(samples, 2, 2)


THREE_BEHAVIORS = {**TINY_CONFIG, "dataset": {**TINY_CONFIG["dataset"], "n_samples": 30,
                                              "behaviors": ["walk", "turn", "sit"]}}


@pytest.fixture(scope="class")
def three_behaviors(tmp_path_factory):
    """A three-behavior corpus with trained checkpoints."""
    root = tmp_path_factory.mktemp("three")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(THREE_BEHAVIORS))
    paths = {name: str(root / name) for name in ("data.json", "vbb", "flow")}
    assert main(["gen-data", "--config", str(cfg), "--out", paths["data.json"]]) == 0
    assert main(["train-vbb", "--config", str(cfg), "--data", paths["data.json"],
                 "--out", paths["vbb"]]) == 0
    assert main(["train-flow", "--config", str(cfg), "--data", paths["data.json"],
                 "--vbb", paths["vbb"], "--out", paths["flow"]]) == 0
    return {"cfg": str(cfg), **paths}


class TestEvalPrototypes:
    def _eval(self, three_behaviors, tmp_path, drop):
        """Eval on the corpus without the single-stage samples of ``drop``."""
        doc = read_json(three_behaviors["data.json"])
        doc["samples"] = [s for s in doc["samples"]
                          if not (len(s["prompt_tokens"]) == 1 and s["prompt_tokens"][0] in drop)]
        data = tmp_path / "data.json"
        data.write_text(json.dumps(doc))
        out = tmp_path / "eval.json"
        rc = main(["eval", "--config", three_behaviors["cfg"], "--data", str(data),
                   "--vbb", three_behaviors["vbb"], "--flow", three_behaviors["flow"],
                   "--out", str(out), "--n-eval", "8", "--retrieval-batch", "3"])
        return rc, out

    def test_behavior_without_prototype_left_out(self, three_behaviors, tmp_path,
                                                 monkeypatch):
        scored = []

        def spy(mean_latents, expected_ids, prototypes):
            scored.append((list(expected_ids), prototypes.shape))
            return match_rate(mean_latents, expected_ids, prototypes)

        match_rate = metrics.prototype_match_rate
        monkeypatch.setattr(metrics, "prototype_match_rate", spy)
        rc, out = self._eval(three_behaviors, tmp_path, drop=(2,))
        assert rc == 0
        # 16 generations for each of the two behaviors that have a prototype
        assert scored == [([0] * 16 + [1] * 16, (2, 2))]
        assert 0.0 <= read_json(str(out))["prototype_match"] <= 1.0

    def test_one_prototype_left_exits_2(self, three_behaviors, tmp_path, capsys):
        rc, _ = self._eval(three_behaviors, tmp_path, drop=(0, 2))
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1 and "need at least two" in err, err


class TestVerifyBounds:
    def test_small_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "bounds.json"
        csv = tmp_path / "tight.csv"
        rc = main(["verify-bounds", "--seed", "3", "--n-compression", "20",
                   "--n-smoothing", "8", "--n-margin", "20",
                   "--out", str(out), "--emit-plot-data", str(csv)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "PASS compression 20/20" in text
        assert "PASS smoothing 8/8" in text
        assert "PASS margin 20/20" in text
        doc = read_json(str(out))
        assert doc["ok"] is True
        header = csv.read_text().splitlines()[0]
        assert header.startswith("m,trial,")

    def test_empty_suites_pass(self, capsys):
        rc = main(["verify-bounds", "--n-compression", "0", "--n-smoothing", "0",
                   "--n-margin", "0"])
        assert rc == 0
        text = capsys.readouterr().out
        assert all(f"PASS {name} 0/0" in text for name in ("compression", "smoothing", "margin"))

    def test_violation_exits_4(self, monkeypatch, capsys):
        fake = {
            "ok": False,
            "elapsed_seconds": 0.0,
            "compression": {"passed": 1, "total": 2, "failures": [{}]},
            "smoothing": {"passed": 2, "total": 2, "failures": []},
            "margin": {"passed": 2, "total": 2, "failures": []},
        }
        monkeypatch.setattr(cli, "run_suites", lambda **kw: fake)
        rc = main(["verify-bounds"])
        assert rc == 4
        assert "FAIL compression 1/2" in capsys.readouterr().out


class TestSweep:
    def test_sweep_two_budgets(self, workdir, tmp_path):
        out = tmp_path / "sweep.json"
        csv = tmp_path / "sweep.csv"
        rc = main(["sweep-compression", "--config", workdir["cfg"],
                   "--data", workdir["data"], "--budgets", "2,4",
                   "--out", str(out), "--n-eval", "6",
                   "--emit-plot-data", str(csv)])
        assert rc == 0
        doc = read_json(str(out))
        assert doc["budgets"] == [2, 4]
        assert [r["levels"] for r in doc["rows"]] == [1, 2]
        assert all(np.isfinite(r["mean_action_kl"]) for r in doc["rows"])
        assert csv.read_text().splitlines()[0].startswith("compression,")

    def test_non_power_of_two_budget(self, workdir, tmp_path):
        rc = main(["sweep-compression", "--config", workdir["cfg"],
                   "--data", workdir["data"], "--budgets", "3",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_malformed_budget_string(self, workdir, tmp_path):
        rc = main(["sweep-compression", "--config", workdir["cfg"],
                   "--data", workdir["data"], "--budgets", "2,abc",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    @given(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=3),
           st.integers(-2 ** 70, 0), st.integers(0, 3))
    @example([], 0, 0)
    @example([2, 4], -4, 2)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_budget_below_one_exits_2_before_training(self, workdir, capsys,
                                                      budgets, bad, where):
        budgets.insert(where, bad)
        out = workdir["root"] / "never.json"
        rc = main(["sweep-compression", "--config", workdir["cfg"],
                   "--data", workdir["data"], "--budgets=" + ",".join(map(str, budgets)),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_too_many_levels_exits_2_before_training(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setattr(metrics, "train_bottleneck", None)  # never reached
        rc = main(["sweep-compression", "--config", workdir["cfg"],
                   "--data", workdir["data"], "--budgets", "2,2048",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        rc = main(["gen-data", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "d.json")])
        assert rc == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"schema_version": 1, "bogus": 1}))
        rc = main(["gen-data", "--config", str(cfg),
                   "--out", str(tmp_path / "d.json")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["train-flow", "eval"])
    @pytest.mark.parametrize("dataset", [{"embed_seed": 8}, {"behaviors": ["turn", "walk"]}],
                             ids=["embeddings", "words"])
    def test_dataset_of_another_vocabulary_exits_2(self, workdir, tmp_path, capsys, command,
                                                   dataset):
        # the bottleneck embeds "walk" as token 0 with the table of embed_seed 7
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG,
                                   "dataset": {**TINY_CONFIG["dataset"], **dataset}}))
        data = tmp_path / "data.json"
        assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
        capsys.readouterr()
        extra = {"train-flow": [], "eval": ["--flow", workdir["flow"]]}[command]
        out = tmp_path / "out"
        rc = main([command, "--config", workdir["cfg"], "--data", str(data),
                   "--vbb", workdir["vbb"], *extra, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert str(data) in err and workdir["vbb"] in err, err
        assert not list(tmp_path.glob("out*"))

    def test_wrong_checkpoint_kind(self, workdir, tmp_path):
        # handing the flow checkpoint where a bottleneck is expected
        rc = main(["generate", "--config", workdir["cfg"],
                   "--vbb", workdir["flow"], "--flow", workdir["flow"],
                   "--prompt", "walk", "--out", str(tmp_path / "x.json")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["train-vbb", "train-flow", "eval",
                                         "sweep-compression"])
    def test_malformed_dataset_exits_2(self, workdir, tmp_path, capsys, command):
        artifacts = {"train-flow": ["--vbb", workdir["vbb"]],
                     "eval": ["--vbb", workdir["vbb"], "--flow", workdir["flow"]]}
        for path in (("spec",), ("spec", "world"), ("samples",), ("seed",)):
            doc = read_json(workdir["data"])
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            del parent[path[-1]]
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            rc = main([command, "--config", workdir["cfg"], "--data", str(bad),
                       *artifacts.get(command, []), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert rc == 2, (path, err)
            assert len(err.splitlines()) == 1 and path[-1] in err, err

    def test_malformed_dataset_values_exit_2(self, workdir, tmp_path, capsys):
        for where, value in (("states", [[0.0, 1.0], [2.0]]), ("seed", "eleven")):
            doc = read_json(workdir["data"])
            if where == "seed":
                doc["seed"] = value
            else:
                doc["samples"][0]["states"] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            rc = main(["train-vbb", "--config", workdir["cfg"], "--data", str(bad),
                       "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert rc == 2, (where, err)
            assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("section, key, command", [
        ("world", "state_dim", "gen-data"),
        ("dataset", "n_samples", "gen-data"),
        ("bottleneck", "width", "train-vbb"),
        ("bottleneck", "levels", "train-vbb"),
        ("flow", "width", "train-flow"),
        ("generation", "t_m", "compose"),
        ("dataset", "init_state_scale", "gen-data"),
        ("generation", "init_state_scale", "compose"),
        ("world", "target_L_z", "gen-data"),
        ("world", "target_L_B", "gen-data"),
        ("dataset", "script_noise", "gen-data"),
        ("extraction", "norm_floor", "gen-data"),
    ])
    def test_huge_size_exits_2(self, workdir, tmp_path, capsys, section, key, command):
        # a size far above its fixed limit is refused at once, not when an
        # array of that size is allocated or a rollout overflows
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg[section][key] = 10 ** 10
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        inputs = {"gen-data": [], "train-vbb": ["--data", workdir["data"]],
                  "train-flow": ["--data", workdir["data"], "--vbb", workdir["vbb"]],
                  "compose": ["--vbb", workdir["vbb"], "--flow", workdir["flow"],
                              "--prompt", "walk"]}
        t0 = time.perf_counter()
        rc = main([command, "--config", str(path), *inputs[command],
                   "--out", str(tmp_path / "out")])
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1 and key in err, err
        assert not (tmp_path / "out").exists() and not (tmp_path / "out.json").exists()
        assert elapsed < 1.0, f"{command} took {elapsed:.2f} s to refuse {key}"

    @pytest.mark.parametrize("section, key, value", [
        ("flow", "cond_dropout", 1.0),
        ("bottleneck", "lambda_tok", 0),
    ])
    def test_model_sections_checked_at_load(self, tmp_path, capsys, section, key, value):
        # the bottleneck and flow sections are checked when the config loads,
        # so gen-data refuses them, not the first command that builds them
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        rc = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "data.json")])
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1 and key in err, err
        assert not (tmp_path / "data.json").exists()

    @pytest.mark.parametrize("sigma_pi", [1e-300, 1e-7])
    def test_tiny_policy_noise_exits_2(self, workdir, tmp_path, capsys, sigma_pi):
        # 2 sigma_pi^2 underflows to 0 at 1e-300, and the policy loss then
        # divided by it; the dataset's world is refused when it is loaded
        doc = read_json(workdir["data"])
        doc["spec"]["world"]["sigma_pi"] = sigma_pi
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["train-vbb", "--config", workdir["cfg"], "--data", str(bad),
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1 and "sigma_pi" in err, err

    @pytest.mark.parametrize("entry", ["config", "env", "generate", "verify-bounds"])
    def test_negative_seed_exits_2(self, workdir, tmp_path, capsys, monkeypatch, entry):
        # NumPy cannot seed from a negative integer; each way of giving a
        # seed refuses one with a single line, not a ValueError traceback
        cfg = json.loads(json.dumps(TINY_CONFIG))
        if entry == "config":
            cfg["seed"] = -1
        if entry == "env":
            monkeypatch.setenv("BEHAVE_SEED", "-5")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = {
            "config": ["gen-data", "--config", str(path), "--out", str(tmp_path / "d.json")],
            "env": ["gen-data", "--config", str(path), "--out", str(tmp_path / "d.json")],
            "generate": ["generate", "--config", str(path), "--vbb", workdir["vbb"],
                         "--flow", workdir["flow"], "--prompt", "walk", "--seed", "-1",
                         "--out", str(tmp_path / "g.json")],
            "verify-bounds": ["verify-bounds", "--seed", "-3", "--n-compression", "1",
                              "--n-smoothing", "1", "--n-margin", "1"],
        }[entry]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1 and "seed" in err, err
        assert not (tmp_path / "d.json").exists() and not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize("flag", ["--n-compression", "--n-smoothing", "--n-margin"])
    def test_negative_suite_count_exits_2(self, capsys, flag):
        # a negative count is bad input, not a violated bound (exit 4)
        argv = {"--n-compression": "1", "--n-smoothing": "1", "--n-margin": "1", flag: "-2"}
        rc = main(["verify-bounds", *[a for kv in argv.items() for a in kv]])
        captured = capsys.readouterr()
        assert rc == 2 and len(captured.err.splitlines()) == 1, captured.err
        assert "FAIL" not in captured.out

    @pytest.mark.parametrize("batch", ["0", "1", "-3"])
    def test_retrieval_batch_below_two_exits_2(self, workdir, tmp_path, capsys, batch):
        # a batch of one scores a trivial top-1 of 1.0, and 0 scored every prompt
        out = tmp_path / "e.json"
        rc = main(["eval", "--config", workdir["cfg"], "--data", workdir["data"],
                   "--vbb", workdir["vbb"], "--flow", workdir["flow"],
                   "--out", str(out), "--n-eval", "8", "--retrieval-batch", batch])
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1 and "retrieval batch" in err, err
        assert not out.exists()

    def test_one_behavior_with_two_stages_exits_2(self, tmp_path, capsys):
        cfg = dict(TINY_CONFIG, dataset=dict(TINY_CONFIG["dataset"], behaviors=["walk"]))
        path = tmp_path / "one.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "d.json"
        rc = main(["gen-data", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1 and "one behavior" in err, err
        assert not out.exists()

    def test_divergence_exits_3(self, workdir, tmp_path):
        cfg = dict(TINY_CONFIG)
        cfg["flow_train"] = {"steps": 40, "batch_size": 8, "lr": 1e9,
                             "warmup": 0}
        path = tmp_path / "hot.json"
        path.write_text(json.dumps(cfg))
        with np.errstate(all="ignore"):
            rc = main(["train-flow", "--config", str(path),
                       "--data", workdir["data"], "--vbb", workdir["vbb"],
                       "--out", str(tmp_path / "flow")])
        assert rc == 3

    def test_diverging_bottleneck_exits_3(self, workdir, tmp_path, capsys):
        # one step at this rate sends the logit scale's log to -1e300, so
        # exp underflows to 0 while every parameter is still finite
        cfg = dict(TINY_CONFIG)
        cfg["vbb_train"] = {"steps": 40, "batch_size": 8, "lr": 1e300, "warmup": 0}
        path = tmp_path / "hot.json"
        path.write_text(json.dumps(cfg))
        with np.errstate(all="ignore"):
            rc = main(["train-vbb", "--config", str(path), "--data", workdir["data"],
                       "--out", str(tmp_path / "vbb")])
        err = capsys.readouterr().err
        assert rc == 3 and len(err.splitlines()) == 1, err
        assert err.startswith("numeric failure: "), err
        assert not (tmp_path / "vbb.json").exists()

    @pytest.mark.parametrize("section,lr", [("vbb_train", 1e300), ("flow_train", 1e9)])
    def test_numeric_failure_is_one_line_naming_its_step(self, workdir, tmp_path,
                                                         section, lr):
        # a process of its own, where NumPy's warnings would reach stderr.  The
        # bottleneck trains 3 steps; at 1e9 the flow loss overflows at its step 5,
        # within the config's 25
        cfg = dict(TINY_CONFIG, vbb_train=dict(TINY_CONFIG["vbb_train"], steps=3))
        cfg[section] = dict(cfg[section], lr=lr)
        path = tmp_path / "hot.json"
        path.write_text(json.dumps(cfg))
        command = (["train-vbb"] if section == "vbb_train"
                   else ["train-flow", "--vbb", workdir["vbb"]])
        proc = run_cli_process([command + ["--config", str(path), "--data", workdir["data"],
                                           "--out", str(tmp_path / "model")]])
        assert proc.returncode == 3, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert re.fullmatch(r"numeric failure: .* at step \d+\n", proc.stderr), proc.stderr
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("section", ["vbb_train", "flow_train"])
    @pytest.mark.parametrize("field,value", [("weight_decay", -1), ("warmup", -5), ("lr", 0)])
    def test_bad_training_field_exits_2_naming_it(self, workdir, tmp_path, capsys,
                                                  section, field, value):
        cfg = dict(TINY_CONFIG, **{section: dict(TINY_CONFIG[section], **{field: value})})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        command = (["train-vbb"] if section == "vbb_train"
                   else ["train-flow", "--vbb", workdir["vbb"]])
        rc = main(command + ["--config", str(path), "--data", workdir["data"],
                             "--out", str(tmp_path / "model")])
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1, err
        assert f"{section}: {field} = " in err, err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("field", ["beta", "lambda_pi", "lambda_sem"])
    def test_unbounded_loss_weight_exits_2_naming_it(self, workdir, tmp_path, field):
        # at 1e300 Adam's second moment overflows; a process of its own shows
        # every line that reaches stderr
        cfg = dict(TINY_CONFIG, bottleneck=dict(TINY_CONFIG["bottleneck"], **{field: 1e300}))
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli_process([["train-vbb", "--config", str(path), "--data", workdir["data"],
                                 "--out", str(tmp_path / "vbb")]])
        assert proc.returncode == 2, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert f"bottleneck: {field} = " in proc.stderr, proc.stderr
        assert not (tmp_path / "vbb.json").exists()

    @pytest.mark.parametrize("guidance", [1e300, -1e308])
    def test_unbounded_guidance_exits_2_naming_it(self, workdir, tmp_path, guidance):
        # at 1e300 the sampler wrote latents near 1e300 and exited 0; at 1e308
        # Euler integration overflowed and exited 3
        cfg = dict(TINY_CONFIG, sampler=dict(TINY_CONFIG["sampler"], guidance=guidance))
        path = tmp_path / "guided.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli_process([["generate", "--config", str(path), "--vbb", workdir["vbb"],
                                 "--flow", workdir["flow"], "--prompt", "walk then turn",
                                 "--out", str(tmp_path / "gen.json")]])
        assert proc.returncode == 2, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert "sampler: guidance = " in proc.stderr, proc.stderr
        assert not (tmp_path / "gen.json").exists()

    def test_bottleneck_batch_of_one_exits_2(self, workdir, tmp_path, capsys):
        # a valid training section, but the contrastive term needs two items
        cfg = dict(TINY_CONFIG, vbb_train=dict(TINY_CONFIG["vbb_train"], batch_size=1))
        path = tmp_path / "one.json"
        path.write_text(json.dumps(cfg))
        rc = main(["train-vbb", "--config", str(path), "--data", workdir["data"],
                   "--out", str(tmp_path / "vbb")])
        err = capsys.readouterr().err
        assert rc == 2 and len(err.splitlines()) == 1 and "at least 2" in err, err
        assert not (tmp_path / "vbb.json").exists()

    def test_diverging_rollout_exits_3(self, tmp_path, capsys, monkeypatch):
        # no valid config makes a world expand, so the world is swapped for one
        # whose state map is scaled up by 1e100
        make_world = cli.make_world

        def expanding_world(**recipe):
            world = make_world(**recipe)
            return dataclasses.replace(world, A_s=world.A_s * 1e100)

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY_CONFIG))
        monkeypatch.setattr(cli, "make_world", expanding_world)
        out = tmp_path / "d.json"
        with np.errstate(all="ignore"):
            rc = main(["gen-data", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3 and err == "numeric failure: rollout diverged to non-finite states\n"
        assert not out.exists()


# every error class but these blames the input: the CLI exits 2 for it, 3 for these
NUMERIC_FAILURES = {"NonFiniteInput", "ZeroNormInput", "NonFiniteState", "UnstableWorld",
                    "NonUnitInput", "DivergenceDetected", "DegenerateRho",
                    "PreconditionViolated"}
ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, errors.BehavegenError)]


class TestErrorClasses:
    def test_numeric_failures_are_the_only_other_errors(self):
        other = {c.__name__ for c in ERROR_CLASSES if not issubclass(c, InputError)}
        assert other == NUMERIC_FAILURES | {"BehavegenError"}

    @pytest.mark.parametrize("error", [*ERROR_CLASSES, OSError], ids=lambda c: c.__name__)
    def test_each_error_maps_to_its_exit_code(self, monkeypatch, capsys, error):
        def fail(args):
            raise error("stubbed")

        monkeypatch.setattr(cli, "cmd_verify_bounds", fail)
        rc = main(["verify-bounds"])
        err = capsys.readouterr().err
        if error.__name__ in NUMERIC_FAILURES | {"BehavegenError"}:
            assert (rc, err) == (3, "numeric failure: stubbed\n")
        else:
            assert (rc, err) == (2, "error: stubbed\n")


def _drop(*path):
    def edit(doc):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        return doc
    return edit


MANIFEST_FAULTS = {
    "hyperparams": _drop("hyperparams"),
    "hyperparams.config": _drop("hyperparams", "config"),
    "hyperparams.world": _drop("hyperparams", "world"),
    "hyperparams.config.d_m": _drop("hyperparams", "config", "d_m"),
    "list manifest": lambda doc: [doc],
}
BLOB_FAULTS = {
    "nan blob": lambda raw: np.full(len(raw) // 8, np.nan).tobytes(),
    "truncated blob": lambda raw: raw[:-3],
}


def _command(name, workdir, vbb, flow, out):
    """argv of a command that loads the given checkpoints."""
    models = ["--config", workdir["cfg"], "--vbb", vbb]
    return {
        "generate": ["generate", *models, "--flow", flow, "--prompt", "walk then turn"],
        "compose": ["compose", *models, "--flow", flow, "--prompt", "walk then turn"],
        "eval": ["eval", *models, "--flow", flow, "--data", workdir["data"],
                 "--n-eval", "8", "--retrieval-batch", "3"],
        "train-flow": ["train-flow", *models, "--data", workdir["data"]],
    }[name] + ["--out", out]


def _corrupt_copy(prefix, dst, manifest_fault=None, blob_fault=None):
    """Copy a checkpoint to ``dst`` with one fault applied."""
    manifest = read_json(prefix + ".json")
    if manifest_fault is not None:
        manifest = manifest_fault(manifest)
    with open(dst + ".json", "w") as fh:
        json.dump(manifest, fh)
    raw = open(prefix + ".bin", "rb").read()
    with open(dst + ".bin", "wb") as fh:
        fh.write(raw if blob_fault is None else blob_fault(raw))
    return dst


class TestCorruptCheckpoints:
    @pytest.mark.parametrize("command", ["generate", "compose", "eval", "train-flow"])
    def test_corrupt_bottleneck_exits_2(self, workdir, tmp_path, capsys, command):
        cases = [(name, fault, None) for name, fault in MANIFEST_FAULTS.items()]
        cases += [(name, None, fault) for name, fault in BLOB_FAULTS.items()]
        for name, manifest_fault, blob_fault in cases:
            vbb = _corrupt_copy(workdir["vbb"], str(tmp_path / "vbb"),
                                manifest_fault, blob_fault)
            rc = main(_command(command, workdir, vbb, workdir["flow"],
                               str(tmp_path / "out")))
            err = capsys.readouterr().err
            assert rc == 2, (name, err)
            assert len(err.splitlines()) == 1, (name, err)

    @pytest.mark.parametrize("command", ["generate", "compose", "eval"])
    def test_corrupt_flow_exits_2(self, workdir, tmp_path, capsys, command):
        faults = [(MANIFEST_FAULTS[n], None) for n in
                  ("hyperparams", "hyperparams.config", "list manifest")]
        faults += [(None, fault) for fault in BLOB_FAULTS.values()]
        for manifest_fault, blob_fault in faults:
            flow = _corrupt_copy(workdir["flow"], str(tmp_path / "flow"),
                                 manifest_fault, blob_fault)
            rc = main(_command(command, workdir, workdir["vbb"], flow,
                               str(tmp_path / "out")))
            err = capsys.readouterr().err
            assert rc == 2 and len(err.splitlines()) == 1, err


# ---------------------------------------------------------------------------
# fuzzed artifacts: any exit code of the contract, never a traceback
# ---------------------------------------------------------------------------

OTHER_VALUES = (None, True, 7, 2.5, "x", [], {})


def _json_type(v):
    return type(v).__name__


def _paths(doc, prefix=()):
    """Key paths of a JSON document; lists contribute their first two items."""
    yield prefix
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))[:2]
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one key dropped, one value of another JSON type put in
    place of another, or one unknown key added to an object."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    how = draw(st.sampled_from(["drop", "retype", "unknown"]))
    if how == "drop":
        del parent[path[-1]]
    elif how == "retype":
        old = parent[path[-1]]
        parent[path[-1]] = draw(st.sampled_from(
            [v for v in OTHER_VALUES if _json_type(v) != _json_type(old)]))
    elif isinstance(parent[path[-1]], dict):
        parent[path[-1]]["bogus"] = 1
    else:
        parent[path[-1]] = {"bogus": 1}
    return doc


FUZZ = settings(max_examples=30, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
CONTRACT_CODES = (0, 2, 3, 4)


class TestFuzzedArtifacts:
    @FUZZ
    @given(data=st.data())
    def test_fuzzed_dataset(self, workdir, tmp_path, data):
        bad = tmp_path / "data.json"
        bad.write_text(json.dumps(data.draw(mutated(read_json(workdir["data"])))))
        out = str(tmp_path / "out")
        with np.errstate(all="ignore"):
            assert main(["train-vbb", "--config", workdir["cfg"], "--data", str(bad),
                         "--out", out]) in CONTRACT_CODES
            assert main(_command("eval", {**workdir, "data": str(bad)}, workdir["vbb"],
                                 workdir["flow"], out)) in CONTRACT_CODES

    @FUZZ
    @given(data=st.data())
    def test_fuzzed_manifest(self, workdir, tmp_path, data):
        vbb = str(tmp_path / "vbb")
        shutil.copyfile(workdir["vbb"] + ".bin", vbb + ".bin")
        with open(vbb + ".json", "w") as fh:
            json.dump(data.draw(mutated(read_json(workdir["vbb"] + ".json"))), fh)
        out = str(tmp_path / "out")
        with np.errstate(all="ignore"):
            for command in ("generate", "eval"):
                assert main(_command(command, workdir, vbb, workdir["flow"],
                                     out)) in CONTRACT_CODES


class TestDeterminism:
    def test_gen_data_byte_identical(self, workdir, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(["gen-data", "--config", workdir["cfg"],
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == open(workdir["data"], "rb").read()

    def test_generate_byte_identical(self, workdir, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(["generate", "--config", workdir["cfg"],
                         "--vbb", workdir["vbb"], "--flow", workdir["flow"],
                         "--prompt", "walk then turn", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_train_vbb_byte_identical(self, workdir, tmp_path):
        out = tmp_path / "vbb2"
        assert main(["train-vbb", "--config", workdir["cfg"],
                     "--data", workdir["data"], "--out", str(out)]) == 0
        original = open(workdir["vbb"] + ".bin", "rb").read()
        assert open(str(out) + ".bin", "rb").read() == original

    def test_verify_bounds_byte_identical(self, tmp_path, capsys):
        # the wall-clock time is printed but stays out of the file
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(["verify-bounds", "--seed", "3", "--n-compression", "10",
                         "--n-smoothing", "4", "--n-margin", "10",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "elapsed_seconds" not in read_json(str(a))
        assert capsys.readouterr().out.count("elapsed ") == 2

    def test_verify_bounds_plot_data_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["verify-bounds", "--seed", "3", "--n-compression", "0",
                         "--n-smoothing", "0", "--n-margin", "0",
                         "--emit-plot-data", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 61

    def test_artifacts_do_not_depend_on_blas_threads(self, workdir, tmp_path):
        # the sampler and the trainers rely on BLAS giving each row of a product
        # the same bits however many threads share it
        digests = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            out.mkdir()
            model = ["--config", workdir["cfg"], "--vbb", str(out / "vbb")]
            proc = run_cli_process([
                ["gen-data", "--config", workdir["cfg"], "--out", str(out / "data.json")],
                ["train-vbb", "--config", workdir["cfg"], "--data", str(out / "data.json"),
                 "--out", str(out / "vbb"), "--history", str(out / "vbb.jsonl")],
                ["train-flow", *model, "--data", str(out / "data.json"),
                 "--out", str(out / "flow"), "--history", str(out / "flow.jsonl")],
                ["generate", *model, "--flow", str(out / "flow"),
                 "--prompt", "walk then turn", "--out", str(out / "gen.json")],
                ["compose", *model, "--flow", str(out / "flow"),
                 "--prompt", "walk then turn", "--out", str(out / "comp.json")],
            ], threads=threads)
            assert proc.returncode == 0, proc.stderr
            digests.append({f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                            for f in sorted(out.iterdir())})
        assert len(digests[0]) == 9
        assert digests[0] == digests[1]

    def test_env_seed_changes_dataset(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("BEHAVE_SEED", "999")
        out = tmp_path / "other.json"
        assert main(["gen-data", "--config", workdir["cfg"],
                     "--out", str(out)]) == 0
        assert out.read_bytes() != open(workdir["data"], "rb").read()
        assert read_json(str(out))["seed"] == 999
