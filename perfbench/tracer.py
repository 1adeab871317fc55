"""Outside-in layer tracer for behavegen.

The tracer wraps public callables of the package from outside: nothing in
``src/`` is edited.  A wrapped name is patched in every behavegen module that
holds it, because ``composition`` and ``cli`` bind ``decode``,
``euler_sample``, ``embed_text`` and ``rollout`` at import time; patching
only the defining module would miss those calls.  Methods are patched on
their class.

Each call is one span.  Spans are aggregated as they close, keyed by the
phase the benchmark is in (``vbb_step``, ``compose``, ``eval``, ...), into a
call count and a self time: the span's duration minus the time its child
spans cover.  Calls made while a scope span is open (the per-epoch
re-encode) are also counted under that scope.
"""

import importlib
import os
import sys
import time
from collections import defaultdict

# "module.function" or "module.Class.method", relative to the behavegen package.
TARGETS = (
    "nn.Conv1d.forward", "nn.Conv1d.backward",
    "nn.Linear.forward", "nn.Linear.backward",
    "nn.Adam.step",
    "bottleneck.Encoder.forward", "bottleneck.Encoder.backward",
    "bottleneck.Decoder.forward", "bottleneck.Decoder.backward",
    "bottleneck.vbb_grad", "bottleneck.encode", "bottleneck.decode",
    "bottleneck.embed_text",
    "flow.fm_grad", "flow.prepare_flow_targets", "flow.euler_sample",
    "flow.FlowModel.field",
    "composition.compose_latents",
    "world.rollout", "world.generate_sample", "world.extract_latents",
    "world.dataset_from_dict",
    "serialization.canon_dumps", "serialization.read_json",
    "serialization.save_checkpoint", "serialization.load_checkpoint",
    "cli.reconstruction_mse", "cli.retrieval_scores", "cli.generation_study",
    "metrics.prototype_match_rate", "metrics.diversity",
    "theory.compression_instance", "theory.smoothing_instance",
    "theory.margin_instance",
)

REENCODE = "flow.prepare_flow_targets"


def _vbb_frames(tracer, args, result):
    model, batch = args[0], args[2]
    c = model.compression
    real = sum(item.latents.shape[0] for item in batch)
    padded = sum(-(-item.latents.shape[0] // c) * c for item in batch)
    tracer.add("bottleneck.real_frames", real)
    tracer.add("bottleneck.padded_frames", padded)


def _reencode_mark(tracer, args, result):
    # fm_grad calls so far and draws made, one mark per epoch
    tracer.marks.append((tracer.calls[("flow_step", "flow.fm_grad")], len(result)))


# name -> observer(tracer, args, result), run after a call returns
OBSERVERS = {
    "serialization.canon_dumps": lambda t, a, r: t.add("serialization.canon_dumps.bytes", len(r)),
    "serialization.read_json": lambda t, a, r: t.add("serialization.read_json.bytes",
                                                     os.path.getsize(a[0])),
    "bottleneck.vbb_grad": _vbb_frames,
    REENCODE: _reencode_mark,
}


def _resolve(target):
    """Return ([(owner, attribute), ...], original callable) for one target."""
    parts = target.split(".")
    module = importlib.import_module("behavegen." + parts[0])
    if len(parts) == 3:
        cls = getattr(module, parts[1])
        return [(cls, parts[2])], cls.__dict__[parts[2]]
    original = getattr(module, parts[1])
    owners = [
        (mod, parts[1]) for name, mod in sorted(sys.modules.items())
        if name.startswith("behavegen.") and mod.__dict__.get(parts[1]) is original
    ]
    return owners, original


class Tracer:
    """Aggregating span tracer; ``install`` patches, ``remove`` restores."""

    def __init__(self):
        importlib.import_module("behavegen.cli")  # loads every module that binds a target
        self.phase = "none"
        self.calls = defaultdict(int)      # (phase, name) -> calls
        self.self_s = defaultdict(float)   # (phase, name) -> self seconds
        self.scoped = defaultdict(int)     # name -> calls made inside a re-encode
        self.counts = defaultdict(int)     # (phase, counter) -> total
        self.ops = defaultdict(int)        # phase -> traced operations
        self.marks = []
        self._stack = []
        self._open = defaultdict(int)
        self._resolved = [(t, *_resolve(t)) for t in TARGETS]
        self._patches = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def add(self, counter: str, n: int) -> None:
        self.counts[(self.phase, counter)] += n

    def install(self) -> None:
        for name, owners, original in self._resolved:
            wrapper = self._wrap(name, original)
            for owner, attr in owners:
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, name, fn):
        stack, open_spans = self._stack, self._open
        calls, self_s, scoped = self.calls, self.self_s, self.scoped
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            open_spans[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                open_spans[name] -= 1
                key = (self.phase, name)
                calls[key] += 1
                self_s[key] += dt - child
                if stack:
                    stack[-1] += dt
                if open_spans[REENCODE]:
                    scoped[name] += 1
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_metrics(self) -> dict:
        """Per-operation calls and self milliseconds for every traced span."""
        out = {}
        for (phase, name), n in self.calls.items():
            ops = self.ops[phase]
            if ops:
                out[f"{phase}.{name}.calls"] = n / ops
                out[f"{phase}.{name}.self_ms"] = 1e3 * self.self_s[(phase, name)] / ops
        for (phase, counter), n in self.counts.items():
            if self.ops[phase]:
                out[f"{phase}.{counter}"] = n / self.ops[phase]
        reencodes = self.calls[("flow_step", REENCODE)]
        if reencodes:
            for name, n in self.scoped.items():
                out[f"reencode.{name}.calls"] = n / reencodes
        return out
