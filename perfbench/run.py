#!/usr/bin/env python3
"""fedspan benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py                       # all workloads, one process each
    python3 perfbench/run.py --workload fed_shipped --seed 7 --seconds 40 --trace 0

A single-workload run prints a readable report and then, as its last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run is repeated under the tracer and the metrics are the per-layer ones.
Details (environment, input shape, tail percentiles) go to
``perfbench/out/``, spans of a traced run beside them. See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOAD_NAMES = ("fed_shipped", "predict_long")

# Set-ups per run; setup_s is the import time plus their median.
SETUP_REPEATS = {"fed_shipped": 5, "predict_long": 3}

# (name, unit) of every end-to-end metric, as listed in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s"),
    ("call_time_ru", "ru"),
    ("train_sent_per_ru", "1/ru"),
    ("predict_sent_per_ru", "1/ru"),
    ("f1_in_domain", "ratio"),
    ("f1_cross_domain", "ratio"),
    ("f1_val", "ratio"),
    ("predict_f1", "ratio"),
    ("upload_bytes_per_round", "bytes"),
    ("peak_rss_mb", "MB"),
]


def pin_blas_threads() -> None:
    """One BLAS thread unless the caller chose otherwise, so that the
    process's CPU time, the benchmark's clock, is the time of the one timed
    caller. A second thread spun without a gain here (README). Takes effect
    only before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def import_fedspan():
    """Import fedspan from this checkout's ``src/``; (modules, seconds)."""
    src = ROOT / "src"
    if not (src / "fedspan" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no fedspan sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.process_time()
    import fedspan
    from fedspan import (
        config,
        corpus,
        decoding,
        encoder,
        federation,
        model,
        prototypes,
        synth,
        tagging,
    )

    seconds = time.process_time() - t0
    if Path(fedspan.__file__).resolve().parent != (src / "fedspan").resolve():
        raise SystemExit(f"benchmark: imported fedspan from {fedspan.__file__}, not {src}")
    fs = types.SimpleNamespace(
        config=config,
        corpus=corpus,
        decoding=decoding,
        encoder=encoder,
        federation=federation,
        model=model,
        prototypes=prototypes,
        synth=synth,
        tagging=tagging,
    )
    return fs, seconds


def _blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it is OpenBLAS."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(np),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _or_none(fn, *args):
    """``fn(*args)``, or None when a failed run left nothing to compute it from."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError, KeyError):
        return None


def run_workload(args) -> int:
    fs, import_s = import_fedspan()

    import bench_metrics as bm
    import bench_trace
    import bench_workloads

    workload = bench_workloads.WORKLOADS[args.workload]
    ops = bench_workloads.Ops()
    details = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
    }

    probe = bench_trace.RoundProbe(fs).install()
    try:
        states, setup_times = [], []
        for _ in range(SETUP_REPEATS[workload.name]):
            t0 = bm.clock()
            states.append(workload.setup(fs, args.seed))
            setup_times.append(bm.clock() - t0)
        state = states[-1]
        ops.add(len(states))
        for other in states[:-1]:
            if workload.fingerprint(other) != workload.fingerprint(state):
                ops.fail("two set-ups from the same seed differ")
        details["input_shape"] = workload.shape(fs, state)
        # predict_long trains in its set-up; its fits count in train_sent_per_ru.
        setup_train_calls, _ = probe.take_calls()
        setup_reference = probe.reference.take()

        result = workload.run(fs, state, args.seconds, probe, ops)
        tracer = None
        if args.trace:
            tracer = bench_trace.Tracer(fs).install()
            try:
                # Half the timed phase: the overhead is a per-pass median,
                # and the whole traced run must stay within the time limit.
                traced_state = workload.setup(fs, args.seed)
                traced = workload.run(fs, traced_state, args.seconds / 2, probe, ops)
            finally:
                tracer.uninstall()
    finally:
        probe.uninstall()

    call_ms = [s * 1e3 for s in result.call_seconds]
    train_calls = setup_train_calls + result.train_calls
    # Each timing is divided by the reference routine's mean time over the
    # same phase of the run: the host's speed swings by up to 1.8x for whole
    # runs, and the routine slows with it (bench_reference.py, README).
    train_reference = (setup_reference if setup_train_calls else []) + (
        result.reference_seconds if result.train_calls else []
    )
    reference_s = _or_none(bm.mean, result.reference_seconds)
    train_sent_per_s = _or_none(bm.pooled_rate, train_calls)
    predict_sent_per_s = _or_none(bm.pooled_rate, result.predict_calls)
    m = result.metrics
    values = {
        "setup_s": import_s + bm.median(setup_times),
        "call_time_ru": _or_none(lambda: bm.mean(result.call_seconds) / reference_s),
        "train_sent_per_ru": _or_none(lambda: train_sent_per_s * bm.mean(train_reference)),
        "predict_sent_per_ru": _or_none(lambda: predict_sent_per_s * reference_s),
        "f1_in_domain": m.get("f1_in_domain"),
        "f1_cross_domain": m.get("f1_cross_domain"),
        "f1_val": m.get("f1_val"),
        "predict_f1": m.get("predict_f1"),
        "upload_bytes_per_round": m.get("upload_bytes_per_round"),
        "peak_rss_mb": peak_rss_mb(),
    }
    details.update(
        {
            "import_s": import_s,
            "setup_runs_s": setup_times,
            "passes": len(result.pass_seconds),
            "pass_seconds": result.pass_seconds,
            "pass_wall_seconds": result.pass_wall_seconds,
            "round_seconds": result.round_seconds,
            "call_ms": {
                "mean": _or_none(bm.mean, call_ms),
                "p50": _or_none(bm.median, call_ms),
                "tail": dict(zip(("value", "percentile", "samples"), bm.tail(call_ms)))
                if call_ms
                else None,
            },
            "train_sent_per_s": train_sent_per_s,
            "predict_sent_per_s": predict_sent_per_s,
            "reference_ms": {
                "mean": reference_s * 1e3 if reference_s else None,
                "train_phase_mean": _or_none(lambda: bm.mean(train_reference) * 1e3),
            },
            "samples": {
                "calls": len(call_ms),
                "train_calls": len(train_calls),
                "predict_calls": len(result.predict_calls),
                "reference_runs": len(result.reference_seconds),
                "train_phase_reference_runs": len(train_reference),
            },
            "call_ms_samples": call_ms,
            "train_calls": train_calls,
            "predict_calls": result.predict_calls,
            "reference_seconds": result.reference_seconds,
        }
    )
    metric_units = END_TO_END
    if tracer is not None:
        if traced.records != result.records:
            ops.fail("traced run's records differ from the untraced run's")
        overhead_s = bm.median(traced.pass_seconds) - bm.median(result.pass_seconds)
        layer_values, layer_notes = bench_trace.layer_metrics(tracer, overhead_s)
        details["end_to_end"] = values
        details["trace"] = {
            "traced_run_s": bm.median(traced.pass_seconds),
            "overhead_s": overhead_s,
            "overhead_share": overhead_s / bm.median(result.pass_seconds),
            **layer_notes,
        }
        spans_path = OUT_DIR / f"{workload.name}-seed{args.seed}.spans.jsonl.gz"
        tracer.write(spans_path)
        details["trace"]["spans_file"] = str(spans_path.relative_to(ROOT))
        values = layer_values
        metric_units = bench_trace.LAYER_METRICS
    details["failed_ops_ratio"] = ops.failed / max(ops.attempted, 1)
    details["failures"] = ops.notes

    missing = [name for name, _ in metric_units if values.get(name) is None]
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in metric_units
        if values.get(name) is not None
    }
    details["metrics"] = metrics
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2) + "\n", encoding="utf-8"
    )

    print(f"workload  {workload.name}: {workload.why}")
    print("input     " + json.dumps(details["input_shape"]))
    print("env       " + json.dumps(details["environment"]))
    for name, entry in metrics.items():
        print(f"  {name:42s} {entry['value']:>14.6g} {entry['unit']}")
    if tracer is None:
        call, ref = details["call_ms"], details["reference_ms"]
        if call["tail"] is not None and ref["mean"] is not None:
            t = call["tail"]
            print(
                f"  call ms: mean {call['mean']:.6g}, p50 {call['p50']:.6g},"
                f" p{t['percentile']} {t['value']:.6g}, of {t['samples']} calls;"
                f" reference routine {ref['mean']:.6g} ms"
            )
    else:
        t = details["trace"]
        print(
            f"  tracing overhead {t['overhead_s']:+.3f} s per pass "
            f"({t['overhead_share']:+.1%}); {t['spans']} spans in {t['spans_file']}"
        )
    print(f"  failed_ops_ratio {details['failed_ops_ratio']:.6g} ({ops.failed}/{ops.attempted})")
    for note in ops.notes:
        print(f"  FAILED: {note}", file=sys.stderr)
    for name in missing:
        print(f"  MISSING: {name}", file=sys.stderr)

    summary = {
        "correct": ops.failed == 0 and not missing,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
        if proc.returncode != 0 or not results[name] or not results[name]["correct"]:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: every workload")
    parser.add_argument("--seed", type=int, default=7, help="corpus seed (default 7, the shipped one)")
    parser.add_argument("--seconds", type=float, default=40.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_blas_threads()
    if args.workload is None:
        return run_all(args)
    try:
        return run_workload(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
