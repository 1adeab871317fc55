"""Command-line interface for the text-to-behavior pipeline.

Subcommands::

    gen-data           draw the synthetic corpus and write it as JSON
    train-vbb          train the variational bottleneck on a corpus
    train-flow         train the flow generator against a frozen bottleneck
    generate           one program for the whole prompt (single shot)
    compose            stage-wise generation with junction crossfades
    eval               reconstruction / retrieval / prototype report
    verify-bounds      run the analytic-guarantee suites
    sweep-compression  action-mismatch cost across compression factors

Exit codes: 0 success, 2 configuration or artifact error, 3 numeric failure,
4 a verified bound was violated.  All commands are deterministic for a fixed
seed; BEHAVE_SEED overrides the config seed.
"""

import argparse
import dataclasses
import sys

import numpy as np

from .bottleneck import BottleneckConfig, BottleneckModel, train_bottleneck
from .composition import generate_composed, generate_single_shot, split_prompt
from .config import load_run_config
from .errors import (
    BehavegenError,
    ConfigInvalid,
    InputError,
    InvalidSpec,
    MissingArtifact,
    RangeError,
    check_seed,
)
from .flow import FlowConfig, FlowModel, train_flow
from .metrics import (
    EvalReport,
    compression_sweep,
    distinct_prompt_subset,
    generation_study,
    reconstruction_mse,
    retrieval_accuracy,
    retrieval_scores,
    training_prototypes,
)
from .nn import TrainConfig
from .serialization import (
    from_doc,
    jsonl_appender,
    load_checkpoint,
    read_json,
    save_checkpoint,
    to_doc,
    write_csv,
    write_json,
)
from .theory import run_suites, sweep_compression_grid
from .world import (
    DatasetSpec,
    ExtractionConfig,
    WorldConfig,
    dataset_from_dict,
    dataset_to_dict,
    generate_dataset,
    make_vocabulary,
    make_world,
)


def _read_dataset(path: str):
    try:
        return dataset_from_dict(read_json(path))
    except InvalidSpec as exc:
        raise InvalidSpec(f"dataset {path}: {exc}") from exc


def _build_world_and_vocab(cfg):
    """World and vocabulary of a run config or a bottleneck's hyperparams."""
    world = make_world(**dataclasses.asdict(cfg.world))
    spec = cfg.dataset
    vocab = make_vocabulary(spec.behaviors, spec.separator, spec.d_text,
                            spec.embed_seed)
    return world, spec, vocab


@dataclasses.dataclass(frozen=True)
class BottleneckHyperparams:
    """A bottleneck checkpoint's ``hyperparams``: the model and the data
    context that generate, compose and eval rebuild from it."""

    config: BottleneckConfig
    world: WorldConfig
    dataset: DatasetSpec
    extraction: ExtractionConfig
    train: TrainConfig
    seed: int
    kind: str = "bottleneck"


@dataclasses.dataclass(frozen=True)
class FlowHyperparams:
    config: FlowConfig
    train: TrainConfig
    seed: int
    kind: str = "flow"


def _read_checkpoint(prefix: str, cls):
    """Hyperparams (a ``cls``) and parameters of a ``cls.kind`` checkpoint."""
    manifest, params = load_checkpoint(prefix)
    hyper = manifest["hyperparams"]
    if not isinstance(hyper, dict) or hyper.get("kind") != cls.kind:
        raise MissingArtifact(f"{prefix} is not a {cls.kind} checkpoint")
    try:
        return from_doc(cls, hyper, "hyperparams"), params
    except InvalidSpec as exc:
        raise MissingArtifact(f"{prefix}.json: {exc}") from exc


def _load_bottleneck(prefix: str):
    """Rebuild the bottleneck plus its self-describing data context."""
    hyper, params = _read_checkpoint(prefix, BottleneckHyperparams)
    model = BottleneckModel(hyper.config, seed=0)
    model.load_values(params)
    world, spec, vocab = _build_world_and_vocab(hyper)
    return model, world, spec, hyper.extraction, vocab


def _load_flow(prefix: str) -> FlowModel:
    hyper, params = _read_checkpoint(prefix, FlowHyperparams)
    model = FlowModel(hyper.config, seed=0)
    model.load_values(params)
    return model


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = load_run_config(args.config)
    world, spec, vocab = _build_world_and_vocab(cfg)
    samples = generate_dataset(world, cfg.extraction, spec, vocab, seed=cfg.seed)
    write_json(args.out, dataset_to_dict(world, cfg.extraction, spec,
                                         cfg.seed, samples))
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _train_split(samples, holdout: int):
    if holdout < 0 or holdout >= len(samples):
        raise RangeError(
            f"holdout {holdout} out of range for {len(samples)} samples")
    return samples[:len(samples) - holdout]


def _eval_split(samples, n_eval: int):
    if n_eval < 1 or n_eval > len(samples):
        raise RangeError(f"n_eval {n_eval} out of range for {len(samples)} samples")
    return samples[-n_eval:]


def _check_vocabulary(data: str, data_vocab, vbb: str, vocab) -> None:
    """A dataset's prompt tokens must mean the same words, with the same
    embeddings, in the bottleneck's vocabulary."""
    if data_vocab.words != vocab.words or not np.array_equal(data_vocab.embeddings,
                                                             vocab.embeddings):
        raise InvalidSpec(f"{data} and {vbb} use different vocabularies")


def cmd_train_vbb(args) -> int:
    cfg = load_run_config(args.config)
    world, extraction, spec, vocab, _, samples = _read_dataset(args.data)
    train_samples = _train_split(samples, args.holdout)
    bcfg = cfg.bottleneck_config(d_z=world.d_z, d_text=spec.d_text)
    model = BottleneckModel(bcfg, seed=cfg.seed)
    with jsonl_appender(args.history) as hook:
        history = train_bottleneck(model, world, vocab, train_samples,
                                   cfg.vbb_train, seed=cfg.seed, history_hook=hook)
    save_checkpoint(args.out, model.export_values(), to_doc(BottleneckHyperparams(
        config=bcfg, world=world.config, dataset=spec, extraction=extraction,
        train=cfg.vbb_train, seed=cfg.seed)))
    print(f"trained bottleneck for {len(history)} steps; "
          f"final loss {history[-1]['total']:.6f}; saved to {args.out}")
    return 0


def cmd_train_flow(args) -> int:
    cfg = load_run_config(args.config)
    _, _, _, data_vocab, _, samples = _read_dataset(args.data)
    train_samples = _train_split(samples, args.holdout)
    bottleneck, world, spec, _, vocab = _load_bottleneck(args.vbb)
    _check_vocabulary(args.data, data_vocab, args.vbb, vocab)
    fcfg = cfg.flow_config(d_z=world.d_z, d_text=spec.d_text)
    model = FlowModel(fcfg, seed=cfg.seed)
    with jsonl_appender(args.history) as hook:
        history = train_flow(model, bottleneck, vocab, train_samples,
                             cfg.flow_train, seed=cfg.seed, history_hook=hook)
    save_checkpoint(args.out, model.export_values(), to_doc(FlowHyperparams(
        config=fcfg, train=cfg.flow_train, seed=cfg.seed)))
    print(f"trained flow for {len(history)} steps; "
          f"final loss {history[-1]['total']:.6f}; saved to {args.out}")
    return 0


def _sample_prompt(args, mode: str):
    """Load both checkpoints, sample the prompt and write the rollout document."""
    cfg = load_run_config(args.config)
    bottleneck, world, _, _, vocab = _load_bottleneck(args.vbb)
    flow = _load_flow(args.flow)
    ids = vocab.encode(args.prompt)
    seed = check_seed(cfg.seed if args.seed is None else args.seed)
    gen = cfg.generation
    if mode == "composed":
        out = generate_composed(
            flow, bottleneck, vocab, world, ids, t_m=gen.t_m,
            sampler=cfg.sampler, seed=seed, overlap=gen.overlap,
            in_place=gen.in_place, init_state_scale=gen.init_state_scale)
    else:
        n_clauses = len(split_prompt(ids, vocab.separator_id))
        out = generate_single_shot(
            flow, bottleneck, vocab, world, ids, t_m=gen.t_m * n_clauses,
            sampler=cfg.sampler, seed=seed, init_state_scale=gen.init_state_scale)
    write_json(args.out, {"prompt": args.prompt, "mode": mode, "seed": seed, **to_doc(out)})
    return out


def cmd_generate(args) -> int:
    out = _sample_prompt(args, "single-shot")
    print(f"generated {out.latents.shape[0]} latent frames "
          f"({len(out.stage_lengths)} clauses, single shot) -> {args.out}")
    return 0


def cmd_compose(args) -> int:
    out = _sample_prompt(args, "composed")
    print(f"composed {len(out.stage_lengths)} stages into "
          f"{out.latents.shape[0]} latent frames -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    _, _, _, data_vocab, _, samples = _read_dataset(args.data)
    bottleneck, world, spec, _, vocab = _load_bottleneck(args.vbb)
    _check_vocabulary(args.data, data_vocab, args.vbb, vocab)
    flow = _load_flow(args.flow)

    eval_samples = _eval_split(samples, args.n_eval)
    if args.retrieval_batch < 2:
        raise RangeError(f"retrieval batch {args.retrieval_batch} must be >= 2")
    recon, recon_per_sample = reconstruction_mse(bottleneck, eval_samples)
    baseline_model = BottleneckModel(bottleneck.cfg, seed=cfg.seed)
    baseline, _ = reconstruction_mse(baseline_model, eval_samples)

    retrieval_set = distinct_prompt_subset(samples, args.retrieval_batch)
    sims = retrieval_scores(bottleneck, vocab, retrieval_set)
    top1 = retrieval_accuracy(sims, 1)
    top5 = retrieval_accuracy(sims, min(5, len(retrieval_set)))

    ids, protos = training_prototypes(_train_split(samples, args.holdout),
                                      len(spec.behaviors), world.d_z)
    match, div = generation_study(flow, bottleneck, vocab, cfg.sampler,
                                  cfg.generation.t_m, cfg.seed, ids, protos)

    report = EvalReport(
        n_samples=len(eval_samples),
        recon_mse=recon,
        baseline_mse=baseline,
        retrieval_top1=top1,
        retrieval_top5=top5,
        prototype_match=match,
        diversity=div,
    )
    write_json(args.out, to_doc(report))
    if args.emit_plot_data:
        rows = [{"index": i, "frames": s.latents.shape[0], "recon_mse": mse}
                for i, (s, mse) in enumerate(zip(eval_samples, recon_per_sample))]
        write_csv(args.emit_plot_data, rows)
    print(f"recon {recon:.5f} (baseline {baseline:.5f}), "
          f"retrieval (fit) top-1 {top1:.3f}, top-5 {top5:.3f}, "
          f"prototype match {match:.3f}, diversity {div:.4f}")
    return 0


def cmd_verify_bounds(args) -> int:
    out = run_suites(seed=args.seed, n_compression=args.n_compression,
                     n_smoothing=args.n_smoothing, n_margin=args.n_margin)
    for name in ("compression", "smoothing", "margin"):
        rep = out[name]
        flag = "PASS" if rep["passed"] == rep["total"] else "FAIL"
        print(f"{flag} {name} {rep['passed']}/{rep['total']}")
    print(f"elapsed {out['elapsed_seconds']:.2f}s")
    if args.out:
        # the wall clock stays out of the file, so equal seeds give equal bytes
        write_json(args.out, {k: v for k, v in out.items() if k != "elapsed_seconds"})
    if args.emit_plot_data:
        write_csv(args.emit_plot_data, sweep_compression_grid(seed=args.seed))
    return 0 if out["ok"] else 4


def cmd_sweep_compression(args) -> int:
    cfg = load_run_config(args.config)
    world, _, spec, vocab, _, samples = _read_dataset(args.data)
    budgets = []
    for tok in args.budgets.split(","):
        try:
            budgets.append(int(tok))
        except ValueError as exc:
            raise ConfigInvalid(f"bad compression budget {tok!r}") from exc
    rows = compression_sweep(cfg, world, spec, vocab, _train_split(samples, args.holdout),
                             _eval_split(samples, args.n_eval), budgets)
    write_json(args.out, {"budgets": budgets, "rows": rows})
    if args.emit_plot_data:
        write_csv(args.emit_plot_data, rows)
    for row in rows:
        print(f"compression {row['compression']:3d}: "
              f"action KL {row['mean_action_kl']:.6f}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="behavegen",
        description="text-conditioned behavior generation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="draw the synthetic corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-vbb", help="train the variational bottleneck")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--history", default=None, help="loss history JSONL path")
    p.add_argument("--holdout", type=int, default=0,
                   help="exclude the last N samples from training")
    p.set_defaults(func=cmd_train_vbb)

    p = sub.add_parser("train-flow", help="train the program generator")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vbb", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--history", default=None)
    p.add_argument("--holdout", type=int, default=0,
                   help="exclude the last N samples from training")
    p.set_defaults(func=cmd_train_flow)

    p = sub.add_parser("generate", help="single-shot generation for a prompt")
    p.add_argument("--config", required=True)
    p.add_argument("--vbb", required=True)
    p.add_argument("--flow", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("compose", help="stage-wise generation for a prompt")
    p.add_argument("--config", required=True)
    p.add_argument("--vbb", required=True)
    p.add_argument("--flow", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("eval", help="reconstruction / retrieval / prototype report")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vbb", required=True)
    p.add_argument("--flow", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-eval", type=int, default=64)
    p.add_argument("--retrieval-batch", type=int, default=32)
    p.add_argument("--holdout", type=int, default=0,
                   help="prototype references come from the first N-holdout samples")
    p.add_argument("--emit-plot-data", default=None, help="per-sample CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify-bounds", help="run the analytic-guarantee suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-compression", type=int, default=500)
    p.add_argument("--n-smoothing", type=int, default=200)
    p.add_argument("--n-margin", type=int, default=500)
    p.add_argument("--out", default=None, help="JSON report path")
    p.add_argument("--emit-plot-data", default=None, help="tightness CSV path")
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("sweep-compression",
                       help="action mismatch across compression factors")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--budgets", default="8,16",
                   help="comma-separated compression factors")
    p.add_argument("--out", required=True)
    p.add_argument("--n-eval", type=int, default=32)
    p.add_argument("--holdout", type=int, default=0,
                   help="exclude the last N samples from training")
    p.add_argument("--emit-plot-data", default=None)
    p.set_defaults(func=cmd_sweep_compression)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every stage checks its results for finiteness, so NumPy's
        # floating-point warnings would only add stderr lines to its report
        with np.errstate(all="ignore"):
            return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BehavegenError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
