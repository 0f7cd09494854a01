"""Metrics, machine facts and the workload property report of one run."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import numpy as np

import lenctl

from checks import REFERENCE_PATH, REFERENCE_LOSS_KEYS, digest_ids

SRC_DIR = Path(lenctl.__file__).resolve().parent

NOTES = [
    "Per-layer values are per library call (train: per train() call), "
    "averaged over the traced calls; setup.* values cover one traced set-up.",
    "training.prepare_batch_s, optim.adam_step_s, "
    "positions.position_indices_s and control.annotate_s are each expected "
    "to take under 1% of a training step, so a change to one of them alone "
    "should move tokens_per_s on train by less than its noise.",
    "Backward and tape metrics predict no change on evaluate or beam, which "
    "record no tape; decoding metrics predict no change on train, which is "
    "teacher-forced.",
    "process.sys_s and process.minor_faults are the kernel time and page "
    "faults of an untraced call, mostly first touches of freshly allocated "
    "arrays; fewer or reused allocations move them and, on train, "
    "tokens_per_s.",
]


# ---------------------------------------------------------------- machine


def _openblas_threads() -> dict:
    """Thread count and build string reported by the loaded OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                 None)
                if getter is None:
                    continue
                getter.argtypes, getter.restype = [], ctypes.c_int
                config = getattr(lib, f"{prefix}_get_config{suffix}")
                config.argtypes, config.restype = [], ctypes.c_char_p
                return {"threads": getter(),
                        "config": config().decode("ascii", "replace")}
    return {}


def machine_facts(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": blas_threads,
        "blas_runtime": _openblas_threads(),
    }


# ---------------------------------------------------------------- end to end


def end_to_end(run, setups: list[float]) -> dict:
    """Throughputs are total work over total call wall time; over 10 seeds
    this spread less than the median of per-call rates did, because calls
    on equal length mixes still differ in their longest row."""
    wall = sum(o.wall for o in run.outcomes)
    docs = sum(o.docs for o in run.outcomes)
    tokens = sum(o.tokens for o in run.outcomes)
    return {
        "setup_s": statistics.median(setups),
        "docs_per_s": docs / wall if wall else 0.0,
        "tokens_per_s": tokens / wall if wall else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_pct": 100.0 * (run.attempted - run.failed) / run.attempted,
    }


# ---------------------------------------------------------------- per layer


def span_table(tracer) -> dict:
    """Every span that ran: calls, inclusive and self seconds."""
    return {name: {"calls": c, "s": s, "self_s": self_s}
            for name, (c, s, self_s) in sorted(tracer.stats.items()) if c}


def src_lines() -> dict:
    counts = {}
    for path in sorted(SRC_DIR.glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            counts[f"src_lines.{path.stem}"] = sum(1 for _ in fh)
    counts["src_lines.total"] = sum(counts.values())
    return counts


def per_layer(workload, run, tracer) -> dict:
    """Per-layer metrics of the traced calls, named after the spans.

    A metric is present only if its layer ran in this workload (a span was
    entered, a counter counted); ``run.py`` reports an absent declared metric
    as 0, and the benchmark's tests check that every declared metric is
    produced by some workload."""
    traced = run.traced
    n = len(traced) or 1
    out: dict[str, float] = {}
    fwd_total = bwd_total = 0.0
    for name, (calls, incl, self_s) in tracer.stats.items():
        if not calls:
            continue
        if name.startswith("tensor."):
            if name.endswith(".fwd"):
                fwd_total += incl
                out[f"{name[:-4]}.calls"] = calls / n
            elif name.endswith(".bwd"):
                bwd_total += incl
            out[f"{name}_s"] = incl / n
            continue
        out[f"{name}_s"] = incl / n
        out[f"{name}.self_s"] = self_s / n
        out[f"{name}.calls"] = calls / n
    out["tensor.fwd_s"] = fwd_total / n
    out["tensor.bwd_s"] = bwd_total / n
    backward_calls = tracer.calls("tensor.backward")
    if backward_calls:
        out["tensor.tape.records"] = (
            tracer.counters.get("tensor.tape.records", 0.0) / backward_calls)
    for counter, metric, scale in (
            ("tensor.matmul.flop", "tensor.matmul.gflop", 1e-9),
            ("checkpoint.bytes_written", "checkpoint.bytes_written", 1.0)):
        if counter in tracer.counters:
            out[metric] = tracer.counters[counter] * scale / n

    positions = sum(b * t for o in traced for b, t in o.capture["decodes"])
    if positions:
        out["model.decoder_forward.positions"] = positions / n
    if any(o.lengths for o in traced):
        out["decoding.step_cap_rows"] = sum(o.rows_cap for o in traced) / n
        if positions:
            out["decoding.useful_position_ratio"] = (
                sum(o.tokens for o in traced) / positions)

    wall = sum(o.wall for o in traced)
    root = workload.root_span
    inside = tracer.seconds(root) - tracer.self_seconds(root)
    out["trace.coverage"] = inside / wall if wall else 0.0
    if tracer.step_s:
        out["trace.step_tensor_coverage"] = (tracer.step_tensor_s
                                             / tracer.step_s)
    if run.overheads:
        out["trace.overhead_s"] = statistics.fmean(run.overheads)
    # Process-level, so taken from the untraced calls.
    untraced = run.outcomes
    m = len(untraced) or 1
    out["process.sys_s"] = sum(o.sys_s for o in untraced) / m
    out["process.minor_faults"] = sum(o.minor_faults for o in untraced) / m
    out.update(src_lines())
    return out


def setup_layers(setup_spans: dict, traced_setup_s: float) -> dict:
    out = {f"setup.{name}_s": row["s"] for name, row in setup_spans.items()
           if not name.startswith("tensor.")}
    out["setup.traced_s"] = traced_setup_s
    return out


# ---------------------------------------------------------------- properties


def distribution(values) -> dict:
    values = sorted(values)
    if not values:
        return {"n": 0}
    quart = (statistics.quantiles(values, n=4) if len(values) > 1
             else [values[0]] * 3)
    return {"n": len(values), "min": values[0], "p25": quart[0],
            "median": quart[1], "p75": quart[2], "max": values[-1],
            "mean": statistics.fmean(values)}


def properties(workload, run) -> dict:
    """Input and output properties a later claim may need to name."""
    outs = run.outcomes
    props = {"workload": workload.name, "calls": len(outs),
             "call_wall_s": distribution([o.wall for o in outs])}
    batches = [shape for o in outs for shape in o.capture["batches"]]
    if batches:
        props["batch_shapes_BST"] = {
            "batches": len(batches),
            "B": distribution([b for b, _, _ in batches]),
            "S": distribution([s for _, s, _ in batches]),
            "T": distribution([t for _, _, t in batches])}
    encodes = [shape for o in outs for shape in o.capture["encodes"]]
    decodes = [shape for o in outs for shape in o.capture["decodes"]]
    if decodes and not batches:
        props["batch_shapes_BST"] = {
            "encoder_calls": len(encodes),
            "B": distribution([b for b, _ in encodes]),
            "S": distribution([s for _, s in encodes]),
            "decoder_calls": len(decodes),
            "decoder_B": distribution([b for b, _ in decodes]),
            "decoder_T": distribution([t for _, t in decodes])}
    lengths = [n for o in outs for n in o.lengths]
    if lengths:
        rows = len(lengths)
        capped = sum(o.rows_cap for o in outs)
        props["rows"] = rows
        props["rows_stopped_at_eos_share"] = (rows - capped) / rows
        props["rows_stopped_at_cap_share"] = capped / rows
        props["generated_lengths"] = distribution(lengths)
    inputs = workload.input_properties(len(outs))
    if "target_tokens" in inputs:
        inputs["target_tokens"] = {k: distribution(v) for k, v
                                   in inputs["target_tokens"].items()}
    props.update(inputs)
    return props


# ---------------------------------------------------------------- references


def reference_of(record: dict):
    if "ids" in record:
        return digest_ids(record["ids"])
    ref = {"scheme": record["scheme"]}
    ref.update({key: record[key] for key in REFERENCE_LOSS_KEYS})
    return ref


def record_references(workload: str, size: str, seed: int,
                      records: list[dict]) -> None:
    refs = (json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
            if REFERENCE_PATH.exists() else {})
    refs.setdefault(f"{workload}@{size}", {})[str(seed)] = [
        reference_of(r) for r in records]
    REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    print(f"perfbench: recorded {len(records)} references for {workload} "
          f"seed {seed}", file=sys.stderr)
