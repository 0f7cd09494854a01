"""Outside-in instrumentation of the ``lenctl`` package.

Nothing here edits program code.  Functions are replaced, for the duration of
a run, in every ``lenctl`` module namespace that binds them, so a call made
through ``from .model import decoder_forward`` is seen as well as one made
through ``T.matmul``.

Two layers of wrapping exist:

* :class:`Capture` is always installed.  It records the few values the output
  checks and the workload property report need (decoded token ids, batch
  shapes), once per call, so its cost is independent of how many primitives a
  call runs.
* :class:`Tracer` is installed only for ``--trace 1``.  It wraps every public
  function of every ``lenctl`` module, found by enumeration rather than from
  a list, so a primitive added later (say ``tensor.attention``) is timed
  without editing the benchmark.  It also wraps each backward closure a
  primitive records on a ``Tape``, which attributes backward time to the
  primitive that recorded it.

Spans are aggregated in memory per name (calls, inclusive seconds, self
seconds); a span's self time is its duration minus the time of the spans it
directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
from time import perf_counter

import numpy as np

import lenctl
from lenctl import tensor as _tensor


def lenctl_modules() -> list:
    """Every module of the ``lenctl`` package, the package itself first."""
    mods = [lenctl]
    for info in pkgutil.iter_modules(lenctl.__path__):
        mods.append(importlib.import_module(f"lenctl.{info.name}"))
    return mods


def short_name(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Patcher:
    """Replace functions in every ``lenctl`` namespace that binds them, and
    put the originals back on :meth:`restore`."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.modules = lenctl_modules()

    def replace(self, original, wrapper) -> None:
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def replace_attr(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _bound(mod_name: str, func_name: str):
    return getattr(importlib.import_module(mod_name), func_name)


class Capture:
    """Per-call facts the checks and the property report need.

    ``begin()`` starts a fresh record for the next library call; the
    record lists decoded id sequences, training batch shapes ``(B, S, T)``,
    encoder shapes ``(B, S)`` and decoder-forward shapes ``(B, T)``.
    """

    def __init__(self):
        self._patcher = Patcher()
        self.record: dict = {}
        self.begin()

    def begin(self) -> dict:
        self.record = {"ids": [], "batches": [], "encodes": [], "decodes": []}
        return self.record

    def install(self) -> None:
        rec = self

        def hook(mod_name, func_name, note):
            original = _bound(mod_name, func_name)

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                note(rec.record, args, kwargs, out)
                return out
            self._patcher.replace(original, wrapper)

        def note_ids(r, args, kwargs, out):
            r["ids"].append([int(t) for t in args[0]])

        def note_batch(r, args, kwargs, out):
            r["batches"].append((*out.src.shape, out.tgt_in.shape[1]))

        def note_encode(r, args, kwargs, out):
            r["encodes"].append(tuple(out.states.data.shape[:2]))

        def note_decode(r, args, kwargs, out):
            r["decodes"].append(tuple(out.data.shape[:2]))

        hook("lenctl.text", "detokenize", note_ids)
        hook("lenctl.training", "prepare_batch", note_batch)
        hook("lenctl.model", "encode", note_encode)
        hook("lenctl.model", "decoder_forward", note_decode)

    def restore(self) -> None:
        self._patcher.restore()


def _matmul_flops(args, kwargs) -> float:
    a, b = args[0].data.shape, args[1].data.shape
    batch = 1
    for extent in np.broadcast_shapes(a[:-2], b[:-2]):
        batch *= extent
    return 2.0 * batch * a[-2] * a[-1] * b[-1]


class Tracer:
    """Timing spans around every public ``lenctl`` function.

    ``stats`` maps a span name to ``[calls, inclusive_s, self_s]``.  Names
    are ``<module>.<function>``; tensor primitives are ``tensor.<op>.fwd``
    and their backward closures ``tensor.<op>.bwd``; ``Tape.backward`` is
    ``tensor.backward``.  ``counters`` holds counts computed from arguments:
    matmul FLOPs, tape records, checkpoint bytes written.
    """

    def __init__(self):
        self._patcher = Patcher()
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[float] = []     # child seconds of each open span
        self._tensor_depth = 0            # open tensor spans
        self._current_op: list[str] = []  # open tensor primitives
        # Training-step accounting: seconds in outermost tensor spans, and
        # the step window from a training batch's preparation to its update.
        self.tensor_top_s = 0.0
        self._step_start: tuple[float, float] | None = None
        self.step_s = 0.0
        self.step_tensor_s = 0.0

    def reset(self) -> None:
        # Wrappers hold their stats lists, so zero them in place.
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.counters.clear()
        self.tensor_top_s = self.step_s = self.step_tensor_s = 0.0
        self._step_start = None

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _timed(self, fn, name: str, *, tensor: bool = False,
               op: str | None = None, before=None, after=None,
               keep_metadata: bool = True):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            outermost_tensor = tensor and tracer._tensor_depth == 0
            if tensor:
                tracer._tensor_depth += 1
            if op is not None:
                tracer._current_op.append(op)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                if op is not None:
                    tracer._current_op.pop()
                if tensor:
                    tracer._tensor_depth -= 1
                    if outermost_tensor:
                        tracer.tensor_top_s += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
            if after is not None:
                after(args, kwargs, out)
            return out
        # Closures recorded on a tape are wrapped once per record, so they
        # skip the metadata copy that functions need for later enumeration.
        return functools.wraps(fn)(wrapper) if keep_metadata else wrapper

    def install(self) -> None:
        tensor_mod = _tensor.__name__
        for mod in self._patcher.modules:
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                before = after = None
                if mod.__name__ == tensor_mod:
                    name = f"tensor.{attr}.fwd"
                    if attr == "matmul":
                        before = self._note_matmul
                    wrapper = self._timed(fn, name, tensor=True, op=attr,
                                          before=before)
                else:
                    name = f"{short_name(mod.__name__)}.{attr}"
                    if attr == "save_tensors":
                        after = self._note_saved
                    elif attr == "prepare_batch":
                        before = self._note_step_start
                    elif attr == "adam_step":
                        after = self._note_step_end
                    wrapper = self._timed(fn, name, before=before, after=after)
                self._patcher.replace(fn, wrapper)

        tape_cls = _tensor.Tape
        tracer = self
        original_record = tape_cls.record

        def record(tape, backward_fn):
            label = tracer._current_op[-1] if tracer._current_op else "other"
            tracer._count("tensor.tape.records", 1)
            original_record(tape, tracer._timed(
                backward_fn, f"tensor.{label}.bwd", tensor=True,
                keep_metadata=False))
        self._patcher.replace_attr(tape_cls, "record", record)
        self._patcher.replace_attr(
            tape_cls, "backward",
            self._timed(tape_cls.backward, "tensor.backward", tensor=True))

    def restore(self) -> None:
        self._patcher.restore()

    def _note_matmul(self, args, kwargs) -> None:
        self._count("tensor.matmul.flop", _matmul_flops(args, kwargs))

    def _note_saved(self, args, kwargs, out) -> None:
        self._count("checkpoint.bytes_written", os.path.getsize(args[0]))

    def _note_step_start(self, args, kwargs) -> None:
        self._step_start = (perf_counter(), self.tensor_top_s)

    def _note_step_end(self, args, kwargs, out) -> None:
        if self._step_start is None:
            return
        t0, tensor0 = self._step_start
        self.step_s += perf_counter() - t0
        self.step_tensor_s += self.tensor_top_s - tensor0
        self._step_start = None

    def seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]
