"""Deterministic artifact serialization.

Two rules make artifacts byte-identical across runs with the same seed:
keys are emitted in sorted order, and every float is written with 17
significant digits so the decimal text round-trips to the exact same bits.
A float array is written in one pass: one finiteness check, one ``%`` format.

Config dataclasses map to JSON documents through one codec, ``to_doc`` and
``from_doc``, so every reader checks a document the same way.

Checkpoints are a JSON manifest next to a flat binary blob.  The blob holds
every parameter tensor as little-endian float64 in sorted-name order, the
manifest records shapes and hyperparameters.
"""

import contextlib
import dataclasses
import json
import os
import sys
import typing

import numpy as np

from .errors import BehavegenError, InvalidSpec, MissingArtifact, NonFiniteInput

SCHEMA_VERSION = 1


def canon_dumps(obj, indent: int = 2) -> str:
    """Serialise to JSON with sorted keys and round-trippable floats."""
    pieces = []
    _write(obj, pieces, indent, 0)
    return "".join(pieces) + "\n"


def _write(obj, out, indent, depth):
    pad = " " * (indent * depth)
    pad_in = " " * (indent * (depth + 1))
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        out.append(_float_text(obj, indent, depth))
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out, indent, depth)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {type(k)}")
            out.append(f"{pad_in}{json.dumps(k)}: ")
            _write(obj[k], out, indent, depth + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        # flat numeric rows stay on one line to keep files readable
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq):
            out.append("[" + ", ".join(_scalar(v) for v in seq) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad_in)
            _write(v, out, indent, depth + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(obj))


def _float_text(arr: np.ndarray, indent: int, depth: int) -> str:
    """A float array as its nested lists: one finiteness check, one ``%``."""
    if not np.isfinite(arr).all():
        raise NonFiniteInput("cannot serialise non-finite float")
    values = tuple(arr.ravel().tolist())
    template = _template(arr.shape, indent, depth)
    text = template % values
    if text.count(".") != len(values):  # keep floats parseable: '1' -> '1.0', '-0' -> '-0.0'
        text = template.replace("%.17g", "%s") % tuple(
            t if "." in t or "e" in t else t + ".0" for t in ("%.17g" % v for v in values))
    return text


def _template(shape, indent: int, depth: int) -> str:
    """Nested lists of ``shape`` with a ``%.17g`` slot for each value."""
    if len(shape) < 2:
        return "[" + ", ".join(["%.17g"] * shape[0]) + "]" if shape else "%.17g"
    pad = " " * (indent * depth)
    sep = ",\n" + pad + " " * indent
    inner = sep.join([_template(shape[1:], indent, depth + 1)] * shape[0])
    return "[" + sep[1:] + inner + "\n" + pad + "]" if shape[0] else "[]"


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _float_text(np.asarray(v, dtype=float), 0, 0)
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"unsupported JSON value type {type(v)}")


def write_json(path: str, obj) -> None:
    text = canon_dumps(obj)
    with open(path, "w") as fh:
        fh.write(text)


def write_csv(path: str, rows) -> None:
    """One line per row dict under a header of the first row's keys; floats
    with 17 significant digits, booleans as 1/0."""
    def cell(v) -> str:
        if isinstance(v, bool):
            return "1" if v else "0"
        return format(v, ".17g") if isinstance(v, float) else str(v)

    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(cell(v) for v in row.values()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_json(path: str):
    if not os.path.exists(path):
        raise MissingArtifact(f"no such file: {path}")
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise MissingArtifact(f"malformed JSON in {path}: {exc}") from exc


@contextlib.contextmanager
def jsonl_appender(path: str | None):
    """Open ``path`` once for appending and yield a function that writes one
    record per line (sorted keys, .17g floats); yield None without a path."""
    with open(path, "a") if path else contextlib.nullcontext() as fh:
        yield None if fh is None else (
            lambda obj: fh.write(canon_dumps(obj, indent=0).replace("\n", "").rstrip() + "\n"))


# ---------------------------------------------------------------------------
# dataclass codec
# ---------------------------------------------------------------------------

def to_doc(obj):
    """The JSON document of a dataclass: one key per field (the field name,
    or ``metadata["key"]``), nested dataclasses as objects, tuples as lists;
    arrays and scalars pass through."""
    if dataclasses.is_dataclass(obj):
        return {_key(f): to_doc(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return [to_doc(v) for v in obj]
    return obj


def from_doc(cls, doc, where: str):
    """Build dataclass ``cls`` from ``doc``, the inverse of ``to_doc``.

    Every field must be present with a value of its annotated type: ``int``
    (not bool), ``float`` (int accepted), ``bool``, ``str``, ``np.ndarray``
    (a finite float array), ``tuple[T, ...]`` or a nested dataclass.
    ``where`` is the dotted path of ``doc``; the first fault raises
    InvalidSpec with a one-line message naming the path, e.g.
    ``spec.world.d_z must be int, got str``.
    """
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{where or 'document'} must be a JSON object, got {_kind(doc)}")
    keys = {_key(f): f for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(keys)
    if unknown:
        raise InvalidSpec(f"unknown {where or 'top-level'} keys: {sorted(unknown)}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise InvalidSpec(f"{where or 'document'} lacks {', '.join(missing)}")
    prefix = where + "." if where else ""
    kwargs = {f.name: _value(f.type, doc[k], prefix + k) for k, f in keys.items()}
    try:
        return cls(**kwargs)
    except (BehavegenError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"{where or 'document'}: {exc}") from exc


# accepted Python and NumPy types per scalar annotation
_SCALARS = {int: (int, np.integer), float: (int, float, np.integer, np.floating),
            bool: (bool, np.bool_), str: (str,)}


def _key(f) -> str:
    # a field may name its document key, where the two differ
    return f.metadata.get("key", f.name)


def _kind(v) -> str:
    names = {dict: "object", list: "list", tuple: "list", type(None): "null"}
    return names.get(type(v), type(v).__name__)


def _value(tp, v, where: str):
    if tp in _SCALARS:
        if not isinstance(v, _SCALARS[tp]) or (tp is not bool and isinstance(v, (bool, np.bool_))):
            raise InvalidSpec(f"{where} must be {tp.__name__}, got {_kind(v)}")
        if tp is float and not abs(v) <= sys.float_info.max:  # NaN fails too
            raise InvalidSpec(f"{where} must be finite, got {v}")
        return tp(v)
    if tp is np.ndarray:
        try:
            arr = np.asarray(v, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidSpec(f"{where} is not a numeric array: {exc}") from exc
        if not np.isfinite(arr).all():
            raise InvalidSpec(f"{where} holds a non-finite value")
        return arr
    if typing.get_origin(tp) is tuple:
        if not isinstance(v, (list, tuple)):
            raise InvalidSpec(f"{where} must be a list, got {_kind(v)}")
        elem = typing.get_args(tp)[0]
        return tuple(_value(elem, x, f"{where}[{i}]") for i, x in enumerate(v))
    return from_doc(tp, v, where)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(prefix: str, params: dict, hyperparams: dict) -> None:
    """Write <prefix>.json and <prefix>.bin.

    The blob stores parameters as little-endian float64 in sorted-name order,
    which matches the order the sorted-key manifest declares them in.
    """
    names = sorted(params.keys())
    shapes = {name: list(params[name].shape) for name in names}
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "shapes": shapes,
        "hyperparams": hyperparams,
    }
    write_json(prefix + ".json", manifest)
    with open(prefix + ".bin", "wb") as fh:
        for name in names:
            arr = np.ascontiguousarray(params[name], dtype="<f8")
            fh.write(arr.tobytes())


def load_checkpoint(prefix: str):
    """Read a manifest/blob pair; returns (manifest, {name: float64 array}).

    The manifest must be a schema-current object whose ``shapes`` map names
    to lists of sizes and which holds ``hyperparams``; the blob must hold
    exactly the values those shapes declare, all finite.  Anything else is
    MissingArtifact.
    """
    manifest = read_json(prefix + ".json")
    if not isinstance(manifest, dict) or manifest.get("schema_version") != SCHEMA_VERSION:
        raise MissingArtifact(f"{prefix}.json is not a schema {SCHEMA_VERSION} checkpoint manifest")
    if "hyperparams" not in manifest:
        raise MissingArtifact(f"{prefix}.json lacks hyperparams")
    shapes = manifest.get("shapes")
    if not isinstance(shapes, dict) or not all(
            isinstance(s, list) and all(type(n) is int and n >= 0 for n in s)
            for s in shapes.values()):
        raise MissingArtifact(f"{prefix}.json: shapes must map names to lists of sizes")
    blob_path = prefix + ".bin"
    if not os.path.exists(blob_path):
        raise MissingArtifact(f"missing parameter blob: {blob_path}")
    names = sorted(shapes)
    sizes = [int(np.prod(shapes[name])) for name in names]
    if os.path.getsize(blob_path) != 8 * sum(sizes):
        raise MissingArtifact(f"parameter blob {blob_path} holds {os.path.getsize(blob_path)} "
                              f"bytes, the manifest declares {8 * sum(sizes)}")
    raw = np.fromfile(blob_path, dtype="<f8")
    if not np.all(np.isfinite(raw)):
        raise MissingArtifact(f"parameter blob {blob_path} holds a non-finite value")
    chunks = np.split(raw, np.cumsum(sizes)[:-1])
    params = {name: chunk.reshape(shapes[name]) for name, chunk in zip(names, chunks)}
    return manifest, params
