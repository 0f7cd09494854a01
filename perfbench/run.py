"""lenctl benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload {train,evaluate,beam} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}] [--record]

Run from the root of a source checkout; ``lenctl`` is imported from its
``src`` directory.  The run sets up the workload ``SETUP_REPEATS`` times
(reporting the median as ``setup_s``), then issues library calls back to
back until ``--seconds`` have passed, checking every call's outputs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each call
twice, untraced and then traced, and reports the per-layer metrics; the
difference between the two walls is ``trace.overhead_s``.  Both modes print
machine facts and the workload's input properties as JSON lines, and end
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--record`` ignores ``--seconds``: it makes one call per distinct input
chunk (``distinct_calls()`` of the workload) and writes their outputs as the
seed's reference into ``reference.json``; later runs of that seed must
reproduce them, call ``i`` matching entry ``i % distinct_calls()``.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread (the machine has 2 cores; one
# thread keeps runs steady and matmuls at desk-scale sizes gain nothing from
# a second).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7


def import_lenctl() -> None:
    """Import ``lenctl`` from this checkout's sources, or exit non-zero."""
    if not (SRC / "lenctl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lenctl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import lenctl
    if Path(lenctl.__file__).resolve().parent != SRC / "lenctl":
        sys.exit(f"perfbench: imported lenctl from {lenctl.__file__}, "
                 f"not from {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="lenctl benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("train", "evaluate", "beam"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_lenctl()
    import report
    import spans
    from checks import load_references, references_for
    from workloads import WORKLOADS, clean

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_dir = WORK / f"run-{os.getpid()}"
    capture = spans.Capture()
    capture.install()
    try:
        # Each set-up starts from a fresh workload and a collected heap, so
        # none of them pays for freeing or scanning its predecessor's state.
        setups = []
        for _ in range(SETUP_REPEATS):
            workload = None
            gc.collect()
            workload = WORKLOADS[args.workload](args.size, work_dir)
            t0 = perf_counter()
            workload.setup(args.seed)
            setups.append(perf_counter() - t0)
        emit({"machine": report.machine_facts(BLAS_THREADS)})

        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            t0 = perf_counter()
            workload.setup(args.seed)
            traced_setup_s = perf_counter() - t0
            tracer.restore()
            setup_spans = report.span_table(tracer)
            tracer.reset()

        distinct = workload.distinct_calls()
        seed_refs = (None if args.record else
                     references_for(load_references(), args.workload,
                                    args.size, args.seed, distinct))
        run = Run()
        deadline = perf_counter() + args.seconds
        index = 0
        while (run.calls < distinct if args.record else
               index == 0 or perf_counter() < deadline):
            for call in workload.calls(index):
                number = run.calls
                ref = seed_refs[number % distinct] if seed_refs else None
                outcome = run.call(workload, capture, call, ref, number)
                if tracer is None:
                    continue
                tracer.install()
                try:
                    traced = run.call(workload, capture, call, ref, number,
                                      traced=True)
                finally:
                    tracer.restore()
                if outcome is not None and traced is not None:
                    if traced.record != outcome.record:
                        run.fail(f"call {number}: traced outputs differ "
                                 f"from untraced outputs")
                    run.overheads.append(traced.wall - outcome.wall)
            index += 1

        emit({"properties": report.properties(workload, run)})
        if args.record:
            if run.failed or len(run.outcomes) != distinct:
                sys.exit("perfbench: not recording a run with failed calls")
            report.record_references(args.workload, args.size, args.seed,
                                     [o.record for o in run.outcomes])
        if tracer is None:
            metrics = report.end_to_end(run, setups)
        else:
            layers = report.per_layer(workload, run, tracer)
            layers.update(report.setup_layers(setup_spans, traced_setup_s))
            emit({"trace": layers, "setup_spans": setup_spans,
                  "notes": report.NOTES})
            metrics = layers
        wanted = declared["per_layer" if args.trace else "end_to_end"]
        # A declared per-layer metric whose layer this workload does not run
        # reads 0; the benchmark's tests check some workload produces each.
        emit({"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                      "unit": m["unit"]} for m in wanted}})
        return 0
    finally:
        capture.restore()
        clean(work_dir)


class Run:
    """Outcomes of the measured calls, and the failure count.

    Only calls that returned count toward throughput; every call, traced or
    not, counts as attempted.
    """

    def __init__(self):
        self.calls = 0              # untraced calls made
        self.attempted = 0
        self.failed = 0
        self.outcomes = []          # untraced calls that returned
        self.traced = []            # traced calls that returned
        self.overheads: list[float] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    def call(self, workload, capture, call, ref, number: int,
             traced: bool = False):
        """Time one library call and check its outputs.  An exception or a
        failed check counts the call as failed."""
        self.attempted += 1
        if not traced:
            self.calls += 1
        cap = capture.begin()
        try:
            usage0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = perf_counter()
            result = call.run()
            wall = perf_counter() - t0
            usage1 = resource.getrusage(resource.RUSAGE_SELF)
            outcome = call.finish(result, cap)
            problems = workload.check(outcome.record, ref)
        except Exception:  # a failed library call is a measured outcome
            self.fail(f"call {number} raised:\n{traceback.format_exc()}")
            return None
        outcome.wall = wall
        outcome.sys_s = usage1.ru_stime - usage0.ru_stime
        outcome.minor_faults = usage1.ru_minflt - usage0.ru_minflt
        outcome.capture = cap
        if problems:
            self.fail(f"call {number}: " + "; ".join(problems))
        if traced:
            self.traced.append(outcome)
        else:
            self.outcomes.append(outcome)
        return outcome


if __name__ == "__main__":
    sys.exit(main())
