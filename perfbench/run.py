"""behavegen benchmark: run workloads, check their outputs, print metrics as JSON.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root.  It imports the package from ``src/``, so
nothing is installed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  For one
workload the metrics are the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0`` and its ``per_layer`` metrics with ``--trace 1``.  With
``--workload all`` the three workloads run one after another in this
process, and the metrics are every named metric of every workload.  The
lines before the JSON print each workload's named metrics with units and
sample counts, and a JSON record of the machine and the run.  The exit code
is 0 only when every output check passed.  See perfbench/README.md for the
workloads and metric definitions.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Per workload, the metrics a run prints, as (name, timed kind, percentile).
# The first four fill the gated slots t1_ms..t4_ms of BENCHMARK.json; the
# rest are printed only.  On a shared host an operation runs in a fast or a
# slow state that alternate in spells of about a second, so the median falls
# between the two and jumps from run to run; the gated centre is the upper
# quartile, which lies in the slow state.  The flow step's tail is p98,
# because its p95 falls on the edge of the re-encode steps (1 in 13).
SLOTS = {
    "train": (("vbb_step_ms_p75", "vbb_step", 75), ("vbb_step_ms_p95", "vbb_step", 95),
              ("flow_step_ms_p75", "flow_step", 75), ("flow_step_ms_p98", "flow_step", 98),
              ("vbb_step_ms_p50", "vbb_step", 50), ("flow_step_ms_p50", "flow_step", 50),
              ("flow_step_ms_p95", "flow_step", 95)),
    "generate": (("single_ms_p75", "single", 75), ("single_ms_p95", "single", 95),
                 ("compose_ms_p75", "compose", 75), ("compose_ms_p95", "compose", 95),
                 ("single_ms_p50", "single", 50), ("single_ms_p99", "single", 99),
                 ("compose_ms_p50", "compose", 50), ("compose_ms_p99", "compose", 99)),
    "corpus_eval": (("gen_data_s_p75", "gen_data", 75), ("eval_s_p75", "eval", 75),
                    ("verify_bounds_s_p75", "verify_bounds", 75), ("cycle_s_p75", "cycle", 75),
                    ("gen_data_s", "gen_data", 50), ("eval_s", "eval", 50),
                    ("verify_bounds_s", "verify_bounds", 50)),
}
GATED = 4


def percentile(values, q: int) -> float:
    """Linear-interpolation percentile, as numpy.percentile computes it."""
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def in_unit(name: str, ms: float):
    """A timing in the unit its name gives: ``_ms`` names in ms, others in s."""
    return (ms, "ms") if "_ms" in name else (ms / 1e3, "s")


def calibration_ms() -> float:
    """A fixed pure-NumPy loop; a drift diagnostic, never used to scale a metric."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((64, 64))
    t0 = time.perf_counter()
    for _ in range(400):
        a = np.tanh(a @ a.T / 64.0)
    return 1e3 * (time.perf_counter() - t0)


def blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_record() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "git_revision": git_revision(),
    }


def timing_slots(workload: str, samples, traced: bool) -> dict:
    """Printed name -> (milliseconds, sample count) for one side of a run."""
    out = {}
    for name, kind, q in SLOTS[workload]:
        values = samples[kind][traced]
        out[name] = (1e3 * percentile(values, q), len(values))
    return out


def load_program():
    """Import behavegen from this checkout's ``src/``; an error message if it cannot."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        from behavegen import cli
        (ROOT / "configs" / "base.json").stat()
    except (ImportError, OSError) as exc:
        return f"cannot load behavegen from {ROOT}: {exc}"
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        return f"behavegen was imported from {cli.__file__}, not from {ROOT / 'src'}"
    return None


def measure(workload: str, seed: int, seconds: float, traced_run: bool) -> dict:
    """Run one workload; its untraced metrics, traced layer metrics and record."""
    from tracer import Tracer
    from workloads import WORKLOADS, Run

    tracer = Tracer() if traced_run else None
    with Run(ROOT, seed, seconds, tracer) as run:
        WORKLOADS[workload](run)

    untraced = timing_slots(workload, run.samples, False)
    setups = run.samples["setup"][False]
    gated = list(untraced)[:GATED]
    result = {"run": run, "named": untraced, "setup_s": statistics.median(setups),
              "setups": len(setups), "gated": {f"t{i + 1}_ms": untraced[name][0]
                                               for i, name in enumerate(gated)},
              "samples": {kind: [len(s[0]), len(s[1])] for kind, s in run.samples.items()}}
    if tracer is not None:
        layer = {**tracer.layer_metrics(), **run.layer}
        traced = timing_slots(workload, run.samples, True)
        for i, name in enumerate(gated):
            layer[f"overhead.t{i + 1}_ms"] = traced[name][0] - untraced[name][0]
        layer["overhead.setup_s"] = (statistics.median(run.samples["setup"][True])
                                     - result["setup_s"])
        result["layer"] = layer
        result["tracing_overhead"] = {name: {"untraced_ms": untraced[name][0],
                                             "traced_ms": traced[name][0],
                                             "n_traced": traced[name][1]}
                                      for name in gated}
    return result


def print_table(workload: str, result: dict) -> None:
    run = result["run"]
    print(f"{workload}")
    for i, (name, (ms, n)) in enumerate(result["named"].items()):
        value, unit = in_unit(name, ms)
        slot = f"t{i + 1}_ms" if i < GATED else ""
        print(f"  {name:<20} {value:12.4f} {unit:<3} (n={n}) {slot}")
    print(f"  {'setup_s':<20} {result['setup_s']:12.4f} s   (n={result['setups']})")
    print(f"  {'ops_failed_ratio':<20} {run.failed / max(run.attempted, 1):12.4f}"
          f"     ({run.failed}/{run.attempted})")
    for note in run.failures:
        print(f"  FAILED {note}")
    for name, value in sorted(result.get("layer", {}).items()):
        print(f"  {name:<58} {value:14.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SLOTS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.environ.pop("BEHAVE_SEED", None)  # the run's seed goes into its configs
    error = load_program()
    if error is None:
        try:
            with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
                spec = json.load(fh)
        except (OSError, ValueError) as exc:
            error = f"cannot read BENCHMARK.json: {exc}"
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import SetupFailed

    names = list(SLOTS) if args.workload == "all" else [args.workload]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(),
              "calibration_ms_start": calibration_ms()}
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    record["calibration_ms_end"] = calibration_ms()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"seed {args.seed}  trace {args.trace}  seconds {args.seconds}")
    for name, result in results.items():
        print_table(name, result)
    print(f"{'peak_rss_mb':<20} {peak_rss_mb:12.1f} MB")

    attempted = sum(r["run"].attempted for r in results.values())
    failed = sum(r["run"].failed for r in results.values())
    record["samples"] = {name: r["samples"] for name, r in results.items()}
    if args.trace:
        record["tracing_overhead"] = {name: r["tracing_overhead"] for name, r in results.items()}

    if args.workload == "all":
        metrics = {"peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        for name, result in results.items():
            for metric, (ms, _) in result["named"].items():
                value, unit = in_unit(metric, ms)
                metrics[f"{name}.{metric}"] = {"value": value, "unit": unit}
            metrics[f"{name}.setup_s"] = {"value": result["setup_s"], "unit": "s"}
            run = result["run"]
            metrics[f"{name}.ops_failed_ratio"] = {
                "value": run.failed / max(run.attempted, 1), "unit": "ratio"}
    else:
        result = results[args.workload]
        if args.trace:
            values, wanted = result["layer"], spec["per_layer"]
        else:
            values = {**result["gated"], "setup_s": result["setup_s"],
                      "peak_rss_mb": peak_rss_mb}
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in wanted}

    print(json.dumps({"record": record}, sort_keys=True))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
