"""End-to-end tests for the command-line interface.

A session-scoped pipeline run (tiny corpus, few training steps) feeds most
tests; each subcommand is exercised through ``main(argv)`` so the exit-code
contract is tested exactly as a shell would see it.
"""

import json

import numpy as np
import pytest

import behavegen.cli as cli
from behavegen.cli import main
from behavegen.serialization import read_json

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

    def test_retrieval_batch_larger_than_distinct_prompts(self, workdir,
                                                          tmp_path):
        rc = main(["eval", "--config", workdir["cfg"],
                   "--data", workdir["data"], "--vbb", workdir["vbb"],
                   "--flow", workdir["flow"],
                   "--out", str(tmp_path / "e.json"),
                   "--retrieval-batch", "10000"])
        assert rc == 2


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


class TestDeterminism:
    def test_gen_data_byte_identical(self, workdir, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(["gen-data", "--config", workdir["cfg"],
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == open(workdir["data"], "rb").read()

    def test_threads_do_not_change_output(self, workdir, tmp_path):
        out = tmp_path / "threaded.json"
        assert main(["gen-data", "--config", workdir["cfg"],
                     "--out", str(out), "--threads", "4"]) == 0
        assert out.read_bytes() == open(workdir["data"], "rb").read()

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

    def test_env_seed_changes_dataset(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("BEHAVE_SEED", "999")
        out = tmp_path / "other.json"
        assert main(["gen-data", "--config", workdir["cfg"],
                     "--out", str(out)]) == 0
        assert out.read_bytes() != open(workdir["data"], "rb").read()
        assert read_json(str(out))["seed"] == 999
