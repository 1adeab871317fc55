"""Run configuration: one JSON document drives every pipeline command.

The document is strict — unknown keys anywhere are rejected so typos cannot
silently fall back to defaults — and omitted keys take the library defaults.
Model dimensions are never stated twice: the bottleneck inherits d_z from the
world section and d_text from the dataset section, and the flow field
inherits d_m and d_e from the bottleneck.  The BEHAVE_SEED environment
variable overrides the document seed.
"""

import dataclasses
import json
import math
import os
import sys

from .bottleneck import BottleneckConfig
from .errors import MAX_COUNT, MAX_SCALE, BehavegenError, ConfigInvalid, check_seed, check_sizes
from .flow import FlowConfig, SamplerConfig
from .nn import TrainConfig
from .serialization import from_doc, to_doc
from .world import DatasetSpec, ExtractionConfig, WorldConfig

SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class GenerationConfig:
    t_m: int = 4
    overlap: int = 4
    in_place: bool = False
    init_state_scale: float = 0.5

    def __post_init__(self):
        check_sizes(self, "t_m", limit=MAX_COUNT)
        check_sizes(self, "overlap", limit=MAX_COUNT, low=0)
        check_sizes(self, "init_state_scale", limit=MAX_SCALE, low=0)


def _section(cls, *derived):
    """``cls`` without the fields other sections fix, and without its
    checks, which run once those dimensions are filled in."""
    return dataclasses.make_dataclass(
        cls.__name__ + "Section",
        [(f.name, f.type, dataclasses.field(default=f.default))
         for f in dataclasses.fields(cls) if f.name not in derived],
        frozen=True)


BottleneckSection = _section(BottleneckConfig, "d_z", "d_text")
FlowSection = _section(FlowConfig, "d_m", "d_e")


def _materialize(cls, name: str, section, **dims):
    try:
        return from_doc(cls, {**to_doc(section), **dims}, name)
    except BehavegenError as exc:
        raise ConfigInvalid(str(exc)) from exc


@dataclasses.dataclass(frozen=True)
class RunConfig:
    schema_version: int = SCHEMA_VERSION
    seed: int = 0
    world: WorldConfig = WorldConfig()
    extraction: ExtractionConfig = ExtractionConfig()
    dataset: DatasetSpec = DatasetSpec()
    bottleneck: BottleneckSection = BottleneckSection()
    vbb_train: TrainConfig = TrainConfig()
    flow: FlowSection = FlowSection()
    flow_train: TrainConfig = TrainConfig(lr=3e-5, steps=2000)
    sampler: SamplerConfig = SamplerConfig()
    generation: GenerationConfig = GenerationConfig()

    def bottleneck_config(self, d_z=None, d_text=None) -> BottleneckConfig:
        """Materialize the bottleneck; dims default to the world and dataset
        sections but a self-describing dataset file may override them."""
        return _materialize(
            BottleneckConfig, "bottleneck", self.bottleneck,
            d_z=self.world.d_z if d_z is None else d_z,
            d_text=self.dataset.d_text if d_text is None else d_text)

    def flow_config(self, d_z=None, d_text=None) -> FlowConfig:
        b = self.bottleneck_config(d_z=d_z, d_text=d_text)
        return _materialize(FlowConfig, "flow", self.flow, d_m=b.d_m, d_e=b.d_e)


def _with_defaults(default, doc):
    """``doc`` with every key it omits taken from ``default``, recursively."""
    if not (isinstance(default, dict) and isinstance(doc, dict)):
        return doc
    return {**default, **{k: _with_defaults(default.get(k), v) for k, v in doc.items()}}


def run_config_from_dict(doc: dict, env=None) -> RunConfig:
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise ConfigInvalid(f"run configuration must be a JSON object with "
                            f"schema_version {SCHEMA_VERSION}, got {version!r}")
    try:
        cfg = from_doc(RunConfig, _with_defaults(to_doc(RunConfig()), doc), "")
    except BehavegenError as exc:
        raise ConfigInvalid(str(exc)) from exc

    env = os.environ if env is None else env
    if "BEHAVE_SEED" in env:
        try:
            cfg = dataclasses.replace(cfg, seed=int(env["BEHAVE_SEED"]))
        except ValueError as exc:
            raise ConfigInvalid(
                f"BEHAVE_SEED must be an integer, got {env['BEHAVE_SEED']!r}"
            ) from exc
    check_seed(cfg.seed)
    cfg.flow_config()  # checks the bottleneck and flow sections at their default dims
    # A feature averages B s, so its norm is at most L_B max ||s||; with the script on the
    # sqrt(d_z) sphere, ||s|| <= ||s_1|| + L_z sqrt(d_z) / (1 - L_s), and ||s_1|| exceeds init_state_scale
    # (sqrt(state_dim) + 10) with odds below e^-50.  Row norms lose features below sqrt(tiny).
    w = cfg.world
    bound = (cfg.dataset.init_state_scale * (math.sqrt(w.state_dim) + 10)
             + w.target_L_z * math.sqrt(w.d_z) / (1 - w.target_L_s))
    floor = max(cfg.extraction.norm_floor, math.sqrt(sys.float_info.min)) / bound
    if w.target_L_B < floor:
        raise ConfigInvalid(f"world.target_L_B = {w.target_L_B} is below {floor:.3e}: no feature "
                            f"reaches norm_floor at the scale target_L_z, target_L_s and "
                            f"init_state_scale give the states")
    return cfg


def load_run_config(path: str, env=None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"config {path} is not valid JSON: {exc}") from exc
    return run_config_from_dict(doc, env=env)
