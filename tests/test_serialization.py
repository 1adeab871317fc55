"""Round-trip and determinism tests for artifact serialization."""

import dataclasses
import json
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from behavegen.bottleneck import BottleneckConfig, BottleneckModel
from behavegen.cli import BottleneckHyperparams, FlowHyperparams
from behavegen.config import (
    BottleneckSection,
    FlowSection,
    GenerationConfig,
    RunConfig,
    run_config_from_dict,
)
from behavegen.errors import InvalidSpec, MissingArtifact, NonFiniteInput
from behavegen.flow import FlowConfig, FlowModel, SamplerConfig
from behavegen.metrics import EvalReport
from behavegen.nn import TrainConfig
from behavegen.serialization import (
    canon_dumps,
    from_doc,
    jsonl_appender,
    load_checkpoint,
    read_json,
    save_checkpoint,
    to_doc,
    write_json,
)
from behavegen.world import CorpusRecipe, DatasetSpec, ExtractionConfig, WorldConfig


def reference_dumps(obj, indent: int = 2) -> str:
    """The per-value recursive writer ``canon_dumps`` must match byte for byte."""
    pieces = []
    _reference_write(obj, pieces, indent, 0)
    return "".join(pieces) + "\n"


def _reference_write(obj, out, indent, depth):
    pad = " " * (indent * depth)
    pad_in = " " * (indent * (depth + 1))
    if isinstance(obj, np.ndarray):
        _reference_write(obj.tolist(), out, indent, depth)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for i, k in enumerate(keys):
            out.append(f"{pad_in}{json.dumps(k)}: ")
            _reference_write(obj[k], out, indent, depth + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq):
            out.append("[" + ", ".join(_reference_scalar(v) for v in seq) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad_in)
            _reference_write(v, out, indent, depth + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_reference_scalar(obj))


def _reference_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if not np.isfinite(v):
            raise NonFiniteInput("cannot serialise non-finite float")
        text = format(float(v), ".17g")
        if "." not in text and "e" not in text and "E" not in text:
            text += ".0"
        return text
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"unsupported JSON value type {type(v)}")


# integral floats take the .0 rule; the rest are extremes of the format
EDGE_FLOATS = [0.0, -0.0, 1.0, -7.0, 1e16, -1e16, 1e17, 5e-324, -5e-324, 0.1,
               1.7976931348623157e308, -1.7976931348623157e308]
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(-10 ** 6, 10 ** 6).map(float))
shapes = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
leaves = st.one_of(
    arrays(np.float64, shapes, elements=finite_floats),
    arrays(np.int64, shapes, elements=st.integers(-10 ** 12, 10 ** 12)),
    finite_floats, st.integers(-10 ** 6, 10 ** 6), st.booleans(), st.none(),
    st.text(max_size=4),
    st.lists(finite_floats, max_size=5),
    st.lists(st.one_of(finite_floats, st.integers(-9, 9)), max_size=5))
documents = st.recursive(
    leaves, lambda inner: st.one_of(st.lists(inner, max_size=3),
                                    st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=10)


class TestCanonJson:
    @given(documents)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_writer(self, doc):
        for indent in (0, 2):
            assert canon_dumps(doc, indent=indent) == reference_dumps(doc, indent=indent)

    @given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3),
                  elements=finite_floats),
           st.integers(0, 2 ** 16), st.sampled_from([np.nan, np.inf, -np.inf]),
           st.sampled_from(["array", "list", "scalar"]))
    @settings(max_examples=100, deadline=None)
    def test_non_finite_anywhere_rejected(self, arr, where, bad, form):
        arr.flat[where % arr.size] = bad
        leaf = {"array": arr, "list": arr.ravel().tolist(), "scalar": bad}[form]
        for indent in (0, 2):
            with pytest.raises(NonFiniteInput):
                canon_dumps({"a": [1, {"b": leaf}]}, indent=indent)


    def test_floats_round_trip_exactly(self):
        rng = np.random.default_rng(0)
        values = list(rng.normal(size=200) * 10 ** rng.uniform(-12, 12, size=200))
        values += [0.1, 1 / 3, 2 ** -52, -0.0, 1e300, 5e-324]
        doc = {"v": values}
        back = json.loads(canon_dumps(doc))
        for a, b in zip(values, back["v"]):
            assert (a == b and np.signbit(a) == np.signbit(b)) or (a != a and b != b)

    def test_keys_sorted_and_stable(self):
        a = canon_dumps({"b": 1, "a": {"z": [1.5, 2], "y": "s"}})
        b = canon_dumps({"a": {"y": "s", "z": [1.5, 2]}, "b": 1})
        assert a == b
        assert a.index('"a"') < a.index('"b"')

    def test_ndarray_and_nested_lists(self):
        doc = {"m": np.arange(6, dtype=float).reshape(2, 3)}
        back = json.loads(canon_dumps(doc))
        assert back["m"] == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            canon_dumps({"x": float("nan")})
        with pytest.raises(NonFiniteInput):
            canon_dumps({"x": float("inf")})

    def test_byte_identical_files(self, tmp_path):
        doc = {"seed": 3, "rows": np.random.default_rng(1).normal(size=(4, 3))}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(str(p1), doc)
        write_json(str(p2), doc)
        assert p1.read_bytes() == p2.read_bytes()

    def test_jsonl_appends_single_lines(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        with jsonl_appender(path) as append:
            append({"step": 1, "total": 0.25})
        with jsonl_appender(path) as append:
            append({"step": 2, "total": 0.125})
        lines = open(path).read().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"step": 1, "total": 0.25}


class TestCheckpoints:
    def test_parameter_names_are_pinned(self):
        # checkpoint keys; a change in how layers nest must not rename them
        conv, vec = (3, 4, 4), (4,)
        res = {f"{c}.{r}.{n}": conv if n == "W" else vec
               for c in ("enc", "dec") for r in ("res0.a", "res0.b", "res1.a", "res1.b")
               for n in "Wb"}
        bottleneck = BottleneckModel(BottleneckConfig(d_z=2, d_m=3, d_e=3, width=4, levels=2,
                                                      d_text=4))
        assert {k: p.value.shape for k, p in bottleneck.params().items()} == {
            "alpha": (), "pm.W": (3, 3), "pm.b": (3,), "py.W": (4, 3), "py.b": (3,),
            "enc.in.W": (2, 4), "enc.in.b": vec, "enc.down0.W": conv, "enc.down0.b": vec,
            "enc.down1.W": conv, "enc.down1.b": vec, "enc.mu.W": (4, 3), "enc.mu.b": (3,),
            "enc.logvar.W": (4, 3), "enc.logvar.b": (3,),
            "dec.in.W": (3, 4), "dec.in.b": vec, "dec.conv0.W": conv, "dec.conv0.b": vec,
            "dec.conv1.W": conv, "dec.conv1.b": vec, "dec.out.W": (4, 2), "dec.out.b": (2,),
            **res,
        }
        flow = FlowModel(FlowConfig(d_m=3, d_e=3, width=4, blocks=2, r_dim=4))
        assert {k: p.value.shape for k, p in flow.params().items()} == {
            "null_ctx": (3,), "in.W": (3, 4), "in.b": vec, "pool.W": (3, 4), "pool.b": vec,
            "r.W": (4, 4), "r.b": vec, "y.W": (3, 4), "y.b": vec,
            "b0.fc1.W": (4, 4), "b0.fc1.b": vec, "b0.fc2.W": (4, 4), "b0.fc2.b": vec,
            "b1.fc1.W": (4, 4), "b1.fc1.b": vec, "b1.fc2.W": (4, 4), "b1.fc2.b": vec,
            "out.W": (4, 3), "out.b": (3,),
        }

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        params = {
            "enc.w": rng.normal(size=(4, 3)),
            "enc.b": rng.normal(size=4),
            "alpha": np.array(2.5),
        }
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(prefix, params, {"lr": 1e-3})
        manifest, loaded = load_checkpoint(prefix)
        assert manifest["hyperparams"] == {"lr": 1e-3}
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])
            assert loaded[name].shape == params[name].shape

    def test_blob_length_mismatch_detected(self, tmp_path):
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(prefix, {"p": np.zeros(4)}, {})
        with open(prefix + ".bin", "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(MissingArtifact):
            load_checkpoint(prefix)

    def test_non_finite_blob_rejected(self, tmp_path):
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(prefix, {"p": np.zeros(4)}, {})
        np.array([0.0, np.nan, 0.0, np.inf]).astype("<f8").tofile(prefix + ".bin")
        with pytest.raises(MissingArtifact, match="non-finite"):
            load_checkpoint(prefix)

    def test_partial_value_in_blob_rejected(self, tmp_path):
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(prefix, {"p": np.zeros(4)}, {})
        with open(prefix + ".bin", "ab") as fh:
            fh.write(b"\x00" * 3)
        with pytest.raises(MissingArtifact):
            load_checkpoint(prefix)

    def test_malformed_manifest_rejected(self, tmp_path):
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(prefix, {"p": np.zeros(4)}, {})
        manifest = read_json(prefix + ".json")
        for bad in ([manifest], {**manifest, "shapes": {"p": [-4]}},
                    {**manifest, "shapes": {"p": [4.0]}},
                    {k: v for k, v in manifest.items() if k != "hyperparams"}):
            with open(prefix + ".json", "w") as fh:
                json.dump(bad, fh)
            with pytest.raises(MissingArtifact):
                load_checkpoint(prefix)

    def test_missing_files(self, tmp_path):
        with pytest.raises(MissingArtifact):
            read_json(str(tmp_path / "absent.json"))
        with pytest.raises(MissingArtifact):
            load_checkpoint(str(tmp_path / "absent"))


# ---------------------------------------------------------------------------
# dataclass codec
# ---------------------------------------------------------------------------

WORDS = ("walk", "run", "turn", "sit", "jump")

# field strategies where a class's checks need more than a type
OVERRIDES = {
    DatasetSpec: {
        # two behaviors at least, since one allows only single-stage scripts
        "behaviors": st.lists(st.sampled_from(WORDS), min_size=2, max_size=4,
                              unique=True).map(tuple),
        "separator": st.just("then"),
        "dur_min": st.integers(2, 9),
        "dur_max": st.integers(9, 30),
        "stage_probs": st.lists(st.integers(1, 9), min_size=1, max_size=4).map(
            lambda w: tuple(x / sum(w) for x in w)),
    },
    BottleneckConfig: {"levels": st.integers(1, 10)},  # compression 2^levels <= 1024
    TrainConfig: {"batch_size": st.integers(2, 64)},
    FlowConfig: {"r_dim": st.integers(1, 8).map(lambda n: 2 * n)},
}
# a run config checks its bottleneck and flow sections when it loads
OVERRIDES[BottleneckSection] = OVERRIDES[BottleneckConfig]
OVERRIDES[FlowSection] = OVERRIDES[FlowConfig]


def field_values(tp):
    if dataclasses.is_dataclass(tp):
        return instances(tp)
    if typing.get_origin(tp) is tuple:
        return st.lists(field_values(typing.get_args(tp)[0]), min_size=1,
                        max_size=4).map(tuple)
    return {int: st.integers(1, 40), float: st.floats(0.001, 0.999),
            bool: st.booleans(), str: st.sampled_from(WORDS)}[tp]


def instances(cls):
    over = OVERRIDES.get(cls, {})
    return st.builds(cls, **{f.name: over.get(f.name, field_values(f.type))
                             for f in dataclasses.fields(cls)})


CONFIG_CLASSES = (
    WorldConfig, ExtractionConfig, DatasetSpec, CorpusRecipe, BottleneckConfig,
    TrainConfig, FlowConfig, SamplerConfig, GenerationConfig,
    BottleneckSection, FlowSection, RunConfig, EvalReport,
    BottleneckHyperparams, FlowHyperparams,
)


class TestCodec:
    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, cls, data):
        x = data.draw(instances(cls))
        assert from_doc(cls, to_doc(x), "") == x
        assert from_doc(cls, json.loads(canon_dumps(to_doc(x))), "") == x

    @settings(max_examples=30, deadline=None)
    @given(cfg=instances(RunConfig))
    def test_run_config_round_trip(self, cfg):
        cfg = dataclasses.replace(cfg, schema_version=1)
        assert run_config_from_dict(to_doc(cfg), env={}) == cfg

    def test_scalar_types(self):
        doc = to_doc(WorldConfig())
        doc["target_L_z"] = 2
        got = from_doc(WorldConfig, doc, "world").target_L_z
        assert got == 2.0 and type(got) is float
        for key, value, message in (
            ("d_z", True, "world.d_z must be int, got bool"),
            ("d_z", 4.0, "world.d_z must be int, got float"),
            ("d_z", "4", "world.d_z must be int, got str"),
            ("sigma_pi", False, "world.sigma_pi must be float, got bool"),
            ("sigma_pi", None, "world.sigma_pi must be float, got null"),
            ("sigma_pi", float("nan"), "world.sigma_pi must be finite"),
        ):
            with pytest.raises(InvalidSpec, match=message):
                from_doc(WorldConfig, {**doc, key: value}, "world")

    def test_structure_faults_name_the_path(self):
        doc = to_doc(CorpusRecipe(WorldConfig(), ExtractionConfig(), DatasetSpec()))
        cases = []
        bad = json.loads(json.dumps(doc))
        del bad["world"]["d_z"]
        cases.append((bad, "world lacks d_z"))
        bad = json.loads(json.dumps(doc))
        bad["extraction"]["bogus"] = 1
        cases.append((bad, r"unknown extraction keys: \['bogus'\]"))
        bad = json.loads(json.dumps(doc))
        bad["dataset"]["behaviors"] = ["walk", 3]
        cases.append((bad, r"dataset.behaviors\[1\] must be str, got int"))
        bad = json.loads(json.dumps(doc))
        bad["dataset"]["stage_probs"] = 0.5
        cases.append((bad, "dataset.stage_probs must be a list, got float"))
        bad = json.loads(json.dumps(doc))
        bad["world"] = [1, 2]
        cases.append((bad, "world must be a JSON object, got list"))
        bad = json.loads(json.dumps(doc))
        bad["dataset"]["dur_min"] = 40
        cases.append((bad, "dataset: need 2 <= dur_min <= dur_max"))
        for bad, message in cases:
            with pytest.raises(InvalidSpec, match=message) as info:
                from_doc(CorpusRecipe, bad, "")
            assert "\n" not in str(info.value)
