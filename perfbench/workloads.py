"""The three benchmark workloads and their output checks.

A run is cut into rounds of equal measured time.  Each round sets up afresh
(the median set-up is ``setup_s``), then runs the workload's operations
until its time is spent; the last round goes on until every timed kind has
enough samples for its tail percentile, but for at most as long again.
Rounds spread each kind of operation over the whole run, so a slow spell on
the host touches every kind alike.  In a traced run the odd rounds are traced and the even ones
are not, so the difference between them is the tracing overhead.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import time
import traceback
from collections import defaultdict

import numpy as np

from behavegen import cli
from behavegen.bottleneck import BottleneckModel, train_bottleneck
from behavegen.composition import generate_composed, generate_single_shot
from behavegen.flow import FlowModel, train_flow
from behavegen.serialization import read_json
from behavegen.world import dataset_from_dict, generate_dataset

ROUNDS = 4
HOLDOUT = 64          # samples kept out of training, as in the README recipe
VBB_SHARE = 0.7       # share of a train round spent on bottleneck steps
SETUP_SAMPLES = 64    # corpus that the generate / corpus_eval checkpoints train on
SETUP_VBB_STEPS = 4   # the checkpoints only need valid weights, not good ones
SETUP_FLOW_STEPS = 13
MAX_FAILURE_NOTES = 10
# Each corpus_eval command is kept near half a second, so that it mostly runs
# in one host state and a run holds about twenty cycles for the upper quartile.
CYCLE_SAMPLES = 150   # corpus that each cycle draws, writes and evaluates
BOUND_INSTANCES = ("--n-compression", 150, "--n-smoothing", 60, "--n-margin", 150)
BOUND_SEEDS = 8       # verify-bounds seeds a run cycles through
# at least ten samples beyond each tail percentile; cycles have no gated tail
MIN_SAMPLES = {"vbb_step": 200, "flow_step": 500, "single": 1000, "compose": 1000,
               "cycle": 8}


class SetupFailed(RuntimeError):
    """The program failed while the benchmark was preparing its inputs."""


class _PhaseDone(Exception):
    """Raised from a trainer's history hook to end a timed phase."""


class Run:
    """State of one benchmark run: timings, checks, tracer and scratch files."""

    def __init__(self, root, seed: int, seconds: float, tracer=None):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.work = root / "perfbench" / f".work-{os.getpid()}"
        self.samples = defaultdict(lambda: ([], []))  # kind -> (untraced, traced) seconds
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.layer = {}  # derived per-layer values a workload adds
        self.last_stderr = ""

    def __enter__(self):
        self.work.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.remove()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- bookkeeping -------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_NOTES:
            self.failures.append(what)

    def trace(self, on: bool, phase: str) -> None:
        """Switch tracing on or off; traced calls are attributed to ``phase``."""
        if self.tracer is None:
            return
        self.tracer.phase = phase
        if on and not self.tracer.installed:
            self.tracer.install()
        elif not on and self.tracer.installed:
            self.tracer.remove()

    def record(self, kind: str, seconds: float, traced: bool) -> None:
        self.samples[kind][traced].append(seconds)
        if traced:
            self.tracer.ops[kind] += 1

    def done(self, kinds, deadline: float, seconds: float, last: bool) -> bool:
        """True once a block of ``seconds`` ending at ``deadline`` is spent.

        In the last round of an untraced run without failures the block goes
        on until every kind has its minimum sample count, but for at most
        ``seconds`` more, so a slower program cannot stretch the run further.
        """
        now = time.perf_counter()
        if now < deadline:
            return False
        return (not last or self.tracer is not None or self.failed > 0
                or now >= deadline + seconds
                or all(len(self.samples[k][False]) >= MIN_SAMPLES[k] for k in kinds))

    def rounds(self, setup):
        """Yield (traced, last, seconds, set-up result) for each round."""
        for r in range(ROUNDS):
            traced = self.tracer is not None and r % 2 == 1
            self.trace(traced, "setup")
            t0 = time.perf_counter()
            state = setup()
            self.record("setup", time.perf_counter() - t0, traced)
            yield traced, r == ROUNDS - 1, self.seconds / ROUNDS, state
        self.trace(False, "setup")

    # -- inputs ------------------------------------------------------------

    def write_config(self, name: str, **sections) -> str:
        """The bundled base config with this run's seed and section overrides."""
        with open(self.root / "configs" / "base.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["seed"] = self.seed
        for section, values in sections.items():
            doc[section] = {**doc.get(section, {}), **values}
        path = self.work / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return str(path)

    def run_cli(self, *argv) -> int:
        """Run one command in-process, keeping its console output."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
        self.last_stderr = err.getvalue().strip()
        return rc

    def setup_cli(self, *argv) -> None:
        rc = self.run_cli(*argv)
        if rc != 0:
            raise SetupFailed(f"{argv[0]} exited {rc}: {self.last_stderr}")

    def train_checkpoints(self):
        """Tiny bottleneck and flow checkpoints, trained and saved by the CLI."""
        config = self.write_config(
            "setup.json", dataset={"n_samples": SETUP_SAMPLES},
            vbb_train={"steps": SETUP_VBB_STEPS},
            flow_train={"steps": SETUP_FLOW_STEPS})
        data, vbb, flow = (self.work / n for n in ("setup_data.json", "vbb", "flow"))
        self.setup_cli("gen-data", "--config", config, "--out", data)
        self.setup_cli("train-vbb", "--config", config, "--data", data, "--out", vbb)
        self.setup_cli("train-flow", "--config", config, "--data", data,
                       "--vbb", vbb, "--out", flow)
        return str(vbb), str(flow)


def _failure_note(what: str, exc: BaseException) -> str:
    last = traceback.format_exception_only(type(exc), exc)[-1].strip()
    return f"{what}: {last}"


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _trainer_block(run: Run, kind: str, traced: bool, last: bool, seconds: float,
                   train_fn) -> None:
    """Time each trainer step at its history hook until the block ends.

    Step 0 also carries the trainer's one-off set-up, so it is checked but
    not timed.
    """
    run.trace(traced, kind)
    deadline = time.perf_counter() + seconds
    state = {"step": 0, "last": time.perf_counter()}

    def hook(record):
        now = time.perf_counter()
        if state["step"] > 0:
            run.record(kind, now - state["last"], traced)
        elif traced:
            run.tracer.ops[kind] += 1  # traced work, though not timed
        run.check(math.isfinite(record["total"]),
                  f"{kind} {record['step']}: loss {record['total']!r}")
        state["step"] += 1
        if run.done((kind,), deadline, seconds, last):
            raise _PhaseDone
        state["last"] = time.perf_counter()

    try:
        train_fn(hook)
    except _PhaseDone:
        pass
    except Exception as exc:  # a step that raises is a failed step
        run.fail(_failure_note(f"{kind} {state['step']}", exc))
        run.attempted += 1
    finally:
        run.trace(False, kind)


def train(run: Run) -> None:
    doc_path = run.write_config("train.json")

    def setup():
        cfg = cli.load_run_config(doc_path)
        world, spec, vocab = cli._build_world_and_vocab(cfg)
        samples = generate_dataset(world, cfg.extraction, spec, vocab, seed=cfg.seed)
        dims = {"d_z": world.d_z, "d_text": spec.d_text}
        return (cfg, world, vocab, samples[:len(samples) - HOLDOUT],
                BottleneckModel(cfg.bottleneck_config(**dims), seed=cfg.seed),
                FlowModel(cfg.flow_config(**dims), seed=cfg.seed))

    unbounded = 10 ** 9  # blocks end on time, not on the step budget
    epochs = {"used": 0, "made": 0, "count": 0}
    for traced, last, seconds, state in run.rounds(setup):
        cfg, world, vocab, samples, bottleneck, flow = state
        _trainer_block(run, "vbb_step", traced, last, VBB_SHARE * seconds,
                       lambda hook: train_bottleneck(
                           bottleneck, world, vocab, samples,
                           dataclasses.replace(cfg.vbb_train, steps=unbounded),
                           seed=cfg.seed, history_hook=hook))
        first_mark = len(run.tracer.marks) if traced else 0
        _trainer_block(run, "flow_step", traced, last, (1 - VBB_SHARE) * seconds,
                       lambda hook: train_flow(
                           flow, bottleneck, vocab, samples,
                           dataclasses.replace(cfg.flow_train, steps=unbounded),
                           seed=cfg.seed, history_hook=hook))
        if traced:
            # complete epochs: fm_grad calls between consecutive re-encodes
            marks = run.tracer.marks[first_mark:]
            epochs["used"] += sum(b[0] - a[0] for a, b in zip(marks, marks[1:]))
            epochs["made"] += sum(a[1] for a in marks[:-1])
            epochs["count"] += max(len(marks) - 1, 0)

    if epochs["count"]:
        run.layer["reencode.flow.targets_used"] = epochs["used"] / epochs["count"]
        run.layer["reencode.flow.targets_made"] = epochs["made"] / epochs["count"]
        run.layer["reencode.flow.target_use_ratio"] = epochs["used"] / epochs["made"]
    if run.tracer is not None:
        counts = run.tracer.counts
        real = counts[("vbb_step", "bottleneck.real_frames")]
        if real:
            padded = counts[("vbb_step", "bottleneck.padded_frames")]
            run.layer["vbb_step.bottleneck.pad_ratio"] = (padded - real) / real


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _check_rollout(run: Run, what: str, out, n_clauses: int, overlap: int) -> None:
    frames = out.latents.shape[0]
    # stitched stages give up `overlap` frames at each junction they share
    expected = sum(out.stage_lengths) - overlap * (len(out.stage_lengths) - 1)
    run.check(out.states.shape[0] == frames + 1
              and len(out.stage_lengths) == n_clauses
              and expected == frames
              and bool(np.all(np.isfinite(out.latents)))
              and bool(np.all(np.isfinite(out.states))),
              f"{what}: {frames} frames, {out.states.shape[0]} states, "
              f"stages {out.stage_lengths}")


def generate(run: Run) -> None:
    cfg = cli.load_run_config(run.write_config("generate.json"))
    gen = cfg.generation
    overlap = 0 if gen.in_place else gen.overlap  # frames a junction consumes

    def setup():
        vbb, flow = run.train_checkpoints()
        bottleneck, world, spec, _, vocab = cli._load_bottleneck(vbb)
        return bottleneck, world, spec, vocab, cli._load_flow(flow)

    rng = np.random.default_rng(run.seed)
    kinds = ("single", "compose")
    clauses = 0
    i = 0
    for traced, last, seconds, state in run.rounds(setup):
        bottleneck, world, spec, vocab, flow = state
        deadline = time.perf_counter() + seconds
        while not run.done(kinds, deadline, seconds, last):
            kind = kinds[i % 2]
            i += 1
            n = int(rng.integers(1, 5))
            prompt = f" {spec.separator} ".join(rng.choice(spec.behaviors, size=n))
            seed = int(rng.integers(2 ** 31))
            run.trace(traced, kind)
            t0 = time.perf_counter()
            try:
                ids = vocab.encode(prompt)
                if kind == "single":
                    out = generate_single_shot(
                        flow, bottleneck, vocab, world, ids, t_m=gen.t_m * n,
                        sampler=cfg.sampler, seed=seed,
                        init_state_scale=gen.init_state_scale)
                else:
                    out = generate_composed(
                        flow, bottleneck, vocab, world, ids, t_m=gen.t_m,
                        sampler=cfg.sampler, seed=seed, overlap=gen.overlap,
                        in_place=gen.in_place, init_state_scale=gen.init_state_scale)
            except Exception as exc:  # a request that raises is a failed request
                run.fail(_failure_note(f"{kind} {prompt!r}", exc))
                run.attempted += 1
                continue
            run.record(kind, time.perf_counter() - t0, traced)
            if traced and kind == "compose":
                clauses += n
            _check_rollout(run, f"{kind} {prompt!r}", out, n,
                           overlap if kind == "compose" else 0)
        run.trace(False, "compose")

    if clauses:
        calls = run.tracer.calls[("compose", "flow.FlowModel.field")]
        run.layer["clause.flow.FlowModel.field.calls"] = calls / clauses
        run.layer["compose.clauses"] = clauses / run.tracer.ops["compose"]


# ---------------------------------------------------------------------------
# corpus_eval
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _capture_writes(captured: list):
    """Keep every object the CLI writes as JSON, to compare with the file."""
    original = cli.write_json

    def write_json(path, obj):
        captured.append(obj)
        return original(path, obj)

    cli.write_json = write_json
    try:
        yield
    finally:
        cli.write_json = original


def _same_dataset(written: dict, read: dict) -> bool:
    w_world, w_ext, w_spec, _, w_seed, w_samples = dataset_from_dict(written)
    r_world, r_ext, r_spec, _, r_seed, r_samples = dataset_from_dict(read)
    return (w_world.to_config() == r_world.to_config() and w_ext == r_ext
            and w_spec == r_spec and w_seed == r_seed
            and len(w_samples) == len(r_samples)
            and all(a.token_ids == b.token_ids
                    and np.array_equal(a.states, b.states)
                    and np.array_equal(a.latents, b.latents)
                    for a, b in zip(w_samples, r_samples)))


def _timed_cli(run: Run, kind: str, traced: bool, *argv):
    run.trace(traced, kind)
    t0 = time.perf_counter()
    try:
        rc = run.run_cli(*argv)
    except Exception as exc:  # the CLI should turn every error into an exit code
        rc = _failure_note(kind, exc)
    dt = time.perf_counter() - t0
    run.trace(False, kind)
    run.record(kind, dt, traced)
    return rc, dt


def _cycle(run: Run, traced: bool, cycle: int, config: str, vbb: str, flow: str) -> None:
    """gen-data, eval and verify-bounds through the CLI, each output checked."""
    data, report, bounds = (str(run.work / n) for n in
                            ("data.json", "eval.json", "bounds.json"))
    written = []
    with _capture_writes(written):
        rc, t_gen = _timed_cli(run, "gen_data", traced,
                               "gen-data", "--config", config, "--out", data)
    run.check(rc == 0 and len(written) == 1
              and _same_dataset(written[0], read_json(data)),
              f"gen-data cycle {cycle}: exit {rc}, dataset read back differs")

    rc, t_eval = _timed_cli(run, "eval", traced, "eval", "--config", config,
                            "--data", data, "--vbb", vbb, "--flow", flow,
                            "--out", report, "--n-eval", 64, "--holdout", HOLDOUT)
    fields = read_json(report) if rc == 0 else {}
    run.check(rc == 0 and all(math.isfinite(v) for v in fields.values()),
              f"eval cycle {cycle}: exit {rc}, report {fields}")

    # the instances repeat every BOUND_SEEDS cycles, so how many cycles a run
    # completes does not change which instances it times
    rc, t_bounds = _timed_cli(run, "verify_bounds", traced, "verify-bounds",
                              "--seed", run.seed * 1000 + cycle % BOUND_SEEDS,
                              "--out", bounds,
                              *BOUND_INSTANCES)
    if rc in (0, 4):
        suites = read_json(bounds)
        for name in ("compression", "smoothing", "margin"):
            rep = suites[name]
            run.attempted += rep["total"]
            for _ in range(rep["total"] - rep["passed"]):
                run.fail(f"verify-bounds cycle {cycle}: {name} instance failed")
    else:
        run.check(False, f"verify-bounds cycle {cycle}: exit {rc}")
    run.samples["cycle"][traced].append(t_gen + t_eval + t_bounds)


def corpus_eval(run: Run) -> None:
    config = run.write_config("cycle.json", dataset={"n_samples": CYCLE_SAMPLES})
    cycle = 0
    for traced, last, seconds, (vbb, flow) in run.rounds(run.train_checkpoints):
        deadline = time.perf_counter() + seconds
        while True:  # every round runs at least one cycle
            _cycle(run, traced, cycle, config, vbb, flow)
            cycle += 1
            # a cycle takes seconds: end the round when less than half of one
            # is left, so rounds do not overrun by a cycle on average
            half = run.samples["cycle"][traced][-1] / 2
            if run.done(("cycle",), deadline - half, seconds, last):
                break


WORKLOADS = {"train": train, "generate": generate, "corpus_eval": corpus_eval}
