"""Tests for the run-configuration loader.

The loader is strict: unknown keys anywhere are rejected, scalar types are
checked, and the two model sections derive their data-dependent dimensions
from the world/dataset sections rather than accepting them directly.
"""

import dataclasses
import json
import math
import warnings

import pytest

from behavegen.bottleneck import BottleneckConfig
from behavegen.config import (
    SCHEMA_VERSION,
    GenerationConfig,
    RunConfig,
    WorldConfig,
    load_run_config,
    run_config_from_dict,
)
from behavegen.errors import MAX_SCALE, ConfigInvalid, InvalidSpec
from behavegen.flow import FlowConfig, SamplerConfig
from behavegen.nn import TrainConfig
from behavegen.serialization import from_doc, to_doc
from behavegen.world import DatasetSpec, ExtractionConfig


def minimal_doc(**overrides) -> dict:
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(overrides)
    return doc


class TestDefaults:
    def test_empty_doc_gives_defaults(self):
        cfg = run_config_from_dict(minimal_doc())
        assert cfg.seed == 0
        assert cfg.world == WorldConfig()
        assert cfg.generation == GenerationConfig()
        assert cfg.vbb_train.batch_size == 32
        assert cfg.sampler.steps == 16

    def test_training_sections_share_one_schema(self):
        # one class, two sets of defaults
        cfg = RunConfig()
        assert cfg.vbb_train == TrainConfig(lr=5e-5, weight_decay=5e-4, warmup=200,
                                            batch_size=32, steps=1000)
        assert cfg.flow_train == TrainConfig(lr=3e-5, weight_decay=5e-4, warmup=200,
                                             batch_size=32, steps=2000)

    def test_schema_version_required_and_checked(self):
        with pytest.raises(ConfigInvalid):
            run_config_from_dict({})
        with pytest.raises(ConfigInvalid):
            run_config_from_dict({"schema_version": SCHEMA_VERSION + 1})

    def test_partial_section_merges_with_defaults(self):
        cfg = run_config_from_dict(minimal_doc(world={"state_dim": 5}))
        assert cfg.world.state_dim == 5
        assert cfg.world.action_dim == WorldConfig().action_dim


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigInvalid, match="unknown top-level"):
            run_config_from_dict(minimal_doc(bogus=1))

    def test_unknown_section_key(self):
        with pytest.raises(ConfigInvalid, match="world"):
            run_config_from_dict(minimal_doc(world={"state_dim": 3, "oops": 1}))

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigInvalid):
            run_config_from_dict(minimal_doc(world=[1, 2]))

    def test_bottleneck_rejects_derived_dims(self):
        # d_z comes from the world section; accepting it here would let the
        # two disagree silently.
        with pytest.raises(ConfigInvalid):
            run_config_from_dict(minimal_doc(bottleneck={"d_z": 9}))
        with pytest.raises(ConfigInvalid):
            run_config_from_dict(minimal_doc(bottleneck={"d_text": 9}))

    def test_flow_rejects_derived_dims(self):
        with pytest.raises(ConfigInvalid):
            run_config_from_dict(minimal_doc(flow={"d_m": 9}))
        with pytest.raises(ConfigInvalid):
            run_config_from_dict(minimal_doc(flow={"d_e": 9}))

    def test_seed_must_be_int(self):
        with pytest.raises(ConfigInvalid):
            run_config_from_dict(minimal_doc(seed="7"))
        with pytest.raises(ConfigInvalid):
            run_config_from_dict(minimal_doc(seed=True))

    def test_generation_sizes_bounded(self):
        # overlap 0 means no crossfade; sizes past MAX_COUNT and start scales
        # outside [0, MAX_SCALE] are refused at load
        cfg = run_config_from_dict(minimal_doc(generation={"overlap": 0}))
        assert cfg.generation.overlap == 0
        for bad in ({"t_m": 0}, {"t_m": 10 ** 12}, {"overlap": -1}, {"overlap": 10 ** 12},
                    {"init_state_scale": -0.5}, {"init_state_scale": 1e308}):
            with pytest.raises(ConfigInvalid, match=next(iter(bad))):
                run_config_from_dict(minimal_doc(generation=bad))


# a default of every config class whose numeric fields carry range checks
CHECKED_CONFIGS = (
    WorldConfig(), ExtractionConfig(), DatasetSpec(), BottleneckConfig(d_z=4),
    TrainConfig(), FlowConfig(d_m=4, d_e=4), SamplerConfig(), GenerationConfig(),
)
# numeric fields for which -1 is valid
UNCHECKED = {
    (SamplerConfig, "guidance"): "negative guidance is a valid classifier-free guidance setting, "
                                 "bounded by |g| <= MAX_SCALE",
    (BottleneckConfig, "logit_scale_init"): "the log of the logit scale, bounded by "
                                            "|x| <= ln(MAX_SCALE), so -1 is in range",
}
NUMERIC_FIELDS = [(default, f.name) for default in CHECKED_CONFIGS
                  for f in dataclasses.fields(default) if f.type in (int, float)]
# values at the edges of each numeric type, which every field must take or refuse by name
EXTREMES = {float: (1e300, 1e-300, 0.0, -0.0), int: (2 ** 62, 0, -1)}
EXTREME_CASES = [(default, f.name, value) for default in CHECKED_CONFIGS
                 for f in dataclasses.fields(default) if f.type in EXTREMES
                 for value in EXTREMES[f.type]]


class TestRangeChecks:
    @pytest.mark.parametrize(
        "default,name",
        [(d, n) for d, n in NUMERIC_FIELDS if (type(d), n) not in UNCHECKED],
        ids=lambda x: x if isinstance(x, str) else type(x).__name__)
    def test_negative_value_is_rejected_by_name(self, default, name):
        doc = {**to_doc(default), name: -1}
        with pytest.raises(InvalidSpec) as info:
            from_doc(type(default), doc, type(default).__name__)
        assert name in str(info.value)

    @pytest.mark.parametrize(
        "default,name,value", EXTREME_CASES,
        ids=lambda x: x if isinstance(x, str) else repr(x) if isinstance(x, (int, float))
        else type(x).__name__)
    def test_extreme_value_constructs_or_is_rejected_by_name(self, default, name, value):
        doc = {**to_doc(default), name: value}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning escaping is a failure too
            try:
                from_doc(type(default), doc, type(default).__name__)
            except InvalidSpec as exc:
                assert name in str(exc)

    def test_unchecked_fields_take_any_value(self):
        numeric = {(type(d), n): d for d, n in NUMERIC_FIELDS}
        for key in UNCHECKED:
            default = numeric[key]
            from_doc(key[0], {**to_doc(default), key[1]: -1}, key[0].__name__)

    def test_training_fields_name_their_range(self):
        for field, value, message in (
            ("lr", 0.0, "lr = 0.0 must be > 0"),
            ("weight_decay", -1.0, r"weight_decay = -1.0 outside \[0, inf\]"),
            ("warmup", -5, r"warmup = -5 outside \[0, inf\]"),
            ("batch_size", 0, r"batch_size = 0 outside \[1, inf\]"),
            ("steps", 0, r"steps = 0 outside \[1, inf\]"),
        ):
            with pytest.raises(ConfigInvalid, match=f"^vbb_train: {message}$"):
                run_config_from_dict(minimal_doc(vbb_train={field: value}))
        # no upper limit on steps: benchmarks run open-ended trainers
        assert TrainConfig(steps=10 ** 9).steps == 10 ** 9

    def test_logit_scale_init_keeps_the_scale_finite(self):
        bound = math.log(MAX_SCALE)
        for value in (bound, -bound, math.log(1.0 / 0.07)):
            cfg = run_config_from_dict(minimal_doc(bottleneck={"logit_scale_init": value}))
            assert cfg.bottleneck_config().logit_scale_init == value
        for value in (1e6, -1e6, 1.01 * bound):
            with pytest.raises(ConfigInvalid, match="^bottleneck: logit_scale_init = "):
                run_config_from_dict(minimal_doc(bottleneck={"logit_scale_init": value}))

    def test_feature_map_floor_follows_the_feature_scale(self):
        # features are at most L_B (init_state_scale (sqrt(6) + 10) + L_z
        # sqrt(d_z) / (1 - L_s)) = L_B * 26.2 at the defaults, so L_B below
        # norm_floor / 26.2 leaves every feature under the floor
        scale = 0.5 * (math.sqrt(6) + 10) + 1.0 * 2.0 / (1 - 0.9)
        for norm_floor, lowest in ((1e-8, 1e-8 / scale),
                                   (1e-300, math.sqrt(2.2250738585072014e-308) / scale)):
            for value, ok in ((lowest * 1.001, True), (lowest * 0.999, False)):
                doc = minimal_doc(world={"target_L_B": value},
                                  extraction={"norm_floor": norm_floor})
                if ok:
                    assert run_config_from_dict(doc).world.target_L_B == value
                else:
                    with pytest.raises(ConfigInvalid, match=r"^world\.target_L_B = .* is below"):
                        run_config_from_dict(doc)


class TestDerivedDims:
    def test_bottleneck_dims_follow_world_and_dataset(self):
        cfg = run_config_from_dict(minimal_doc(
            world={"d_z": 6},
            dataset={"d_text": 12},
            bottleneck={"d_m": 10, "levels": 2},
        ))
        b = cfg.bottleneck_config()
        assert (b.d_z, b.d_text, b.d_m, b.levels) == (6, 12, 10, 2)

    def test_explicit_override_wins(self):
        cfg = run_config_from_dict(minimal_doc(world={"d_z": 6}))
        assert cfg.bottleneck_config(d_z=3).d_z == 3

    def test_flow_dims_follow_bottleneck(self):
        cfg = run_config_from_dict(minimal_doc(
            bottleneck={"d_m": 10, "d_e": 7},
            flow={"width": 8},
        ))
        f = cfg.flow_config()
        assert (f.d_m, f.d_e, f.width) == (10, 7, 8)

    def test_bad_deferred_value_surfaces_at_load(self):
        # the sections whose dims are derived are checked at the default dims
        for doc, message in (({"flow": {"r_dim": 3}}, "^flow: r_dim"),
                             ({"bottleneck": {"lambda_tok": 0.0}}, "^bottleneck: lambda_tok")):
            with pytest.raises(ConfigInvalid, match=message):
                run_config_from_dict(minimal_doc(**doc))


class TestCoercionAndRoundTrip:
    def test_json_lists_become_tuples(self):
        cfg = run_config_from_dict(minimal_doc(
            dataset={"behaviors": ["walk", "turn"], "stage_probs": [0.5, 0.5]},
        ))
        assert cfg.dataset.behaviors == ("walk", "turn")
        assert cfg.dataset.stage_probs == (0.5, 0.5)

    def test_round_trip(self):
        doc = minimal_doc(
            seed=9,
            world={"state_dim": 4, "d_z": 3},
            dataset={"n_samples": 40, "behaviors": ["walk", "turn"]},
            bottleneck={"d_m": 6, "width": 8},
            flow={"width": 8},
            sampler={"steps": 8, "guidance": 2.0},
            generation={"t_m": 3, "overlap": 2, "in_place": True},
        )
        cfg = run_config_from_dict(doc)
        again = run_config_from_dict(to_doc(cfg))
        assert again == cfg

    def test_to_dict_is_json_serializable(self):
        cfg = run_config_from_dict(minimal_doc(bottleneck={"d_m": 6}))
        text = json.dumps(to_doc(cfg))
        assert run_config_from_dict(json.loads(text)) == cfg


class TestEnvOverride:
    def test_seed_env_override(self):
        cfg = run_config_from_dict(minimal_doc(seed=4),
                                   env={"BEHAVE_SEED": "123"})
        assert cfg.seed == 123

    def test_invalid_env_seed(self):
        with pytest.raises(ConfigInvalid):
            run_config_from_dict(minimal_doc(), env={"BEHAVE_SEED": "lots"})

    def test_absent_env_keeps_config_seed(self):
        cfg = run_config_from_dict(minimal_doc(seed=4), env={})
        assert cfg.seed == 4


class TestFileLoading:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_doc(seed=5)))
        assert load_run_config(str(path)).seed == 5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            load_run_config(str(tmp_path / "absent.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid):
            load_run_config(str(path))

    def test_frozen(self):
        cfg = run_config_from_dict(minimal_doc())
        with pytest.raises(Exception):
            cfg.seed = 3
        assert isinstance(cfg, RunConfig)
