"""The package names the benchmark relies on still exist and still fit.

``perfbench/`` is not a package: ``perfbench/run.py`` imports ``tracer`` and
``workloads`` from its own directory.  These tests load both files by path,
so a refactor that moves or renames a name the benchmark needs fails here
rather than in a benchmark run.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from behavegen import cli
from behavegen.serialization import canon_dumps, read_json
from behavegen.world import (
    DatasetSpec,
    ExtractionConfig,
    dataset_to_dict,
    generate_dataset,
    make_vocabulary,
    make_world,
)
from test_cli import TINY_CONFIG

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_target():
    tracer_module = load("tracer")
    tracer = tracer_module.Tracer()  # resolves every target, patches nothing
    assert not tracer.installed
    assert [name for name, _, _ in tracer._resolved] == list(tracer_module.TARGETS)
    assert all(owners for _, owners, _ in tracer._resolved)


def test_workloads_find_their_cli_names():
    workloads = load("workloads")
    for name in ("load_run_config", "_build_world_and_vocab", "_load_bottleneck",
                 "_load_flow", "write_json", "main"):
        assert callable(getattr(workloads.cli, name)), name


def test_dataset_check_accepts_written_and_read_documents():
    # corpus_eval compares the dict gen-data wrote with the file read back
    world = make_world(state_dim=3, action_dim=2, d_z=2, seed=5)
    spec = DatasetSpec(n_samples=6, behaviors=("walk", "turn"), d_text=4,
                       dur_min=4, dur_max=6)
    extraction = ExtractionConfig(lookahead=2)
    vocab = make_vocabulary(spec.behaviors, spec.separator, spec.d_text, spec.embed_seed)
    samples = generate_dataset(world, extraction, spec, vocab, seed=3)
    written = dataset_to_dict(world, extraction, spec, 3, samples)
    read = json.loads(canon_dumps(written))
    assert load("workloads")._same_dataset(written, read)


def test_gen_data_write_is_captured_and_matches_the_file(tmp_path):
    # the corpus_eval check: gen-data makes one write_json call, and the
    # document it passed reads back from the file as the same dataset
    config, data = tmp_path / "cfg.json", tmp_path / "data.json"
    config.write_text(json.dumps(TINY_CONFIG))
    workloads = load("workloads")
    written = []
    with workloads._capture_writes(written):
        rc = cli.main(["gen-data", "--config", str(config), "--out", str(data)])
    assert rc == 0 and len(written) == 1
    assert workloads._same_dataset(written[0], read_json(str(data)))


def test_benchmark_smoke_run():
    # a short traced run of every workload passes all its output checks; 3 s
    # per workload leaves the untraced flow block time for at least one step
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    docs = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    record, result = docs[-2]["record"], docs[-1]
    assert result["attempted"] > 0 and result["failed"] == 0, proc.stdout[-2000:]
    untraced_flow_steps, _ = record["samples"]["train"]["flow_step"]
    assert untraced_flow_steps >= 1
