"""The benchmark's three workloads.

Each workload is one closed-loop client in one process: it issues ``lenctl``
library calls back to back on inputs generated with ``lenctl.synth`` from the
workload seed.  Call ``i`` of a run always uses input chunk ``i`` of the
seed's pool, wrapping round at its end, so a seed fixes every call's inputs
and outputs, and call ``i`` repeats call ``i % distinct_calls()``.

* ``train``: ``training.train`` for a short run of ``sentenum`` (lam 0) and
  then ``repilot`` (lam 0.1, length head, countdown noise) on the same chunk.
  It is the only workload that builds a tape and runs backward and Adam.
* ``evaluate``: ``evaluation.evaluate``, greedy, gold-conditioned, on the
  committed ``sentenum`` checkpoint at the model's default step cap.  Batched
  decoding re-runs the decoder over the whole prefix every step, so large
  matmuls and row-steps spent on finished rows dominate.
* ``beam``: ``decoding.generate_many`` in beam mode (width 3, 3-gram
  blocking, predicted lengths) on the committed ``repilot`` checkpoint, the
  path ``lenctl generate --mode beam --predict-length`` takes.  It decodes
  one hypothesis at a time at batch 1, so Python overhead rather than BLAS
  bounds it, and it uses the length head and countdown positions.

Module attributes are looked up at call time (``training.train``, not a
name imported once), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lenctl import control, decoding, evaluation, model, synth, text, training
from lenctl.positions import SCHEME_FORWARD, SCHEME_REVERSE

from checks import check_decode, check_train

HERE = Path(__file__).resolve().parent
CKPT_DIR = HERE / "checkpoints"

VOCAB_MAX = 4096
BATCH_SIZE = 32
LEARNING_RATE = 1e-3
RUN_SEED = 0
BEAM_WIDTH = 3
NGRAM_BLOCK = 3
# Beam search keeps expanding live hypotheses after its best one has
# finished, so a few documents with short summaries run to the step cap.
# At the default cap (128) their count per run set the run's cost and
# docs_per_s spread 20% across seeds; at 64 it spreads under 10%, no output
# of seeds 1-10 reaches the cap, and the overrun still costs up to 64 steps.
BEAM_MAX_STEPS = 64

# Per size: input pool and chunk per call.  "full" is the benchmark;
# "tiny" exists so the benchmark's own tests can run every workload fast.
SIZES = {
    "full": {"train_pool": 1024, "train_chunk": 64, "train_epochs": 2,
             "dev": 32, "evaluate_pool": 512, "evaluate_chunk": 16,
             "beam_pool": 256, "beam_chunk": 8},
    "tiny": {"train_pool": 8, "train_chunk": 4, "train_epochs": 1,
             "dev": 2, "evaluate_pool": 4, "evaluate_chunk": 2,
             "beam_pool": 2, "beam_chunk": 1},
}

# (control scheme, unit, joint-loss weight lam) of the two training runs
TRAIN_RUNS = (("sentenum", "sentences", 0.0), ("repilot", "tokens", 0.1))


def corpus_seed(seed: int, role: int) -> int:
    """A corpus seed per (workload seed, role), independent across roles."""
    return int(np.random.SeedSequence([seed, role]).generate_state(1)[0])


def synth_corpus(size: int, seed: int, role: int):
    return synth.generate_synthetic_corpus(synth.SynthSpec(size=size),
                                           corpus_seed(seed, role))


def length_mix(size: int) -> list[int]:
    """Summary sentence counts for ``size`` documents, in the proportions of
    the synthetic corpus's default length weights and in a fixed order."""
    weights = np.asarray(synth.DEFAULT_LENGTH_WEIGHTS)
    raw = weights * size
    counts = np.floor(raw).astype(int)
    short = size - int(counts.sum())
    counts[np.argsort(counts - raw, kind="stable")[:short]] += 1
    mix = np.repeat(np.arange(1, len(weights) + 1), counts)
    return np.random.default_rng(0).permutation(mix).tolist()


def stratify(pool: list, block: int) -> list:
    """Reorder ``pool`` so each block of ``block`` examples (one call's
    input) has the same summary-length mix in the same order, whatever the
    seed.

    Cost grows with target length, and a batch pads to (or, decoding
    greedily, runs until) its longest row, so an unstratified draw makes
    some calls, and some seeds, much dearer than others.  A sentence count
    whose examples run out reuses them from the start.
    """
    by_count: dict[int, list] = {}
    for ex in pool:
        by_count.setdefault(ex.gold_sents, []).append(ex)
    taken = dict.fromkeys(by_count, 0)
    out = []
    mix = length_mix(block)
    for _ in range(max(1, len(pool) // block)):
        for k in mix:
            bucket = by_count.get(k, pool)
            out.append(bucket[taken.get(k, 0) % len(bucket)])
            taken[k] = taken.get(k, 0) + 1
    return out


def chunk_of(pool: list, index: int, size: int) -> list:
    start = (index * size) % len(pool)
    return pool[start:start + size]


def verify_checkpoints() -> None:
    """Refuse checkpoints whose bytes differ from ``SHA256SUMS``."""
    for line in (CKPT_DIR / "SHA256SUMS").read_text().splitlines():
        want, name = line.split()
        got = hashlib.sha256((CKPT_DIR / name).read_bytes()).hexdigest()
        if got != want:
            raise RuntimeError(f"checkpoint {name} does not match SHA256SUMS")


def position_scheme_for(scheme_name: str) -> str:
    """Derived the way ``lenctl train`` derives it."""
    return SCHEME_REVERSE if scheme_name == "repilot" else SCHEME_FORWARD


@dataclass
class Call:
    """One library call: a thunk to time, then what to make of its result."""

    run: object                 # () -> result
    finish: object              # (result, capture record) -> Outcome


@dataclass
class Outcome:
    docs: int
    tokens: int
    record: dict
    rows_cap: int = 0           # decoded rows that stopped at the step cap
    lengths: list[int] = field(default_factory=list)
    wall: float = 0.0           # seconds in the library call
    sys_s: float = 0.0          # kernel CPU seconds in the library call
    minor_faults: int = 0       # page faults the library call took
    capture: dict = field(default_factory=dict)


def _src_cut(examples, max_src: int) -> int:
    return sum(len(text.word_split(ex.document.text)) > max_src
               for ex in examples)


def _tgt_lengths(examples, scheme) -> list[int]:
    return [len(text.word_split(control.annotate(ex, scheme)))
            for ex in examples]


class TrainWorkload:
    name = "train"
    root_span = "training.train"

    def __init__(self, size: str, work_dir: Path):
        self.sz = SIZES[size]
        self.work_dir = work_dir

    def setup(self, seed: int) -> None:
        sz = self.sz
        self.pool = stratify(synth_corpus(sz["train_pool"], seed, 0),
                             sz["train_chunk"])
        self.dev = synth_corpus(sz["dev"], seed, 1)
        self.vocab = text.build_vocab(
            [ex.document.text for ex in self.pool]
            + [ex.summary.text for ex in self.pool], VOCAB_MAX)
        self.runs = []
        for name, unit, lam in TRAIN_RUNS:
            scheme = control.ControlScheme(name, unit=unit)
            mcfg = model.ModelConfig(vocab_size=len(self.vocab),
                                     length_head=lam > 0.0,
                                     position_scheme=position_scheme_for(name))
            tcfg = training.TrainConfig(
                epochs=sz["train_epochs"], batch_size=BATCH_SIZE,
                learning_rate=LEARNING_RATE, lam=lam, scheme=scheme,
                patience=sz["train_epochs"], seed=RUN_SEED)
            # Target slots per example: the annotated target, cut to
            # max_tgt_len - 1 tokens as prepare_batch cuts it, plus EOS.
            slots = [min(n, mcfg.max_tgt_len - 1) + 1
                     for n in _tgt_lengths(self.pool, scheme)]
            self.runs.append((name, mcfg, tcfg, slots))
        self.max_src = self.runs[0][1].max_src_len
        self.max_tgt = self.runs[0][1].max_tgt_len
        for name, mcfg, tcfg, _ in self.runs:   # warm-up: one tiny run each
            warm = training.TrainConfig(
                epochs=1, batch_size=2, learning_rate=LEARNING_RATE,
                lam=tcfg.lam, scheme=tcfg.scheme, patience=1, seed=RUN_SEED)
            training.train(self.pool[:2], self.dev[:2], self.vocab, mcfg,
                           warm, self.work_dir / f"warm-{name}")

    def distinct_calls(self) -> int:
        """Calls before the inputs repeat: both runs on every chunk."""
        return (max(1, self.sz["train_pool"] // self.sz["train_chunk"])
                * len(TRAIN_RUNS))

    def calls(self, index: int) -> list[Call]:
        size = self.sz["train_chunk"]
        chunk = chunk_of(self.pool, index, size)
        start = (index * size) % len(self.pool)
        out = []
        for name, mcfg, tcfg, slots in self.runs:
            chunk_slots = sum(slots[start:start + size])

            def run(name=name, mcfg=mcfg, tcfg=tcfg):
                return training.train(chunk, self.dev, self.vocab, mcfg, tcfg,
                                      self.work_dir / name)

            def finish(result, cap, name=name, chunk_slots=chunk_slots):
                epochs = len(result.metrics)
                record = {"scheme": name}
                for key in ("train_ce", "train_len_loss", "dev_ce",
                            "dev_len_diff"):
                    record[key] = [getattr(m, key) for m in result.metrics]
                return Outcome(docs=len(chunk) * epochs,
                               tokens=chunk_slots * epochs, record=record)
            out.append(Call(run, finish))
        return out

    def check(self, record: dict, ref) -> list[str]:
        return check_train(record, ref)

    def input_properties(self, calls_run: int) -> dict:
        size = self.sz["train_chunk"]
        used = [ex for i in range(max(1, calls_run // len(self.runs)))
                for ex in chunk_of(self.pool, i, size)]
        props = {"sources_cut": _src_cut(used, self.max_src),
                 "targets_cut": {}, "target_tokens": {}}
        for name, _, tcfg, _ in self.runs:
            lengths = _tgt_lengths(used, tcfg.scheme)
            props["targets_cut"][name] = sum(n > self.max_tgt - 1
                                             for n in lengths)
            props["target_tokens"][name] = lengths
        return props


class DecodeWorkload:
    """Shared shape of the two decode workloads."""

    name = ""
    checkpoint = ""
    pool_role = 0
    step_cap = 0        # 0: the model's default, its max_tgt_len

    def __init__(self, size: str, work_dir: Path):
        self.sz = SIZES[size]
        self.chunk = self.sz[f"{self.name}_chunk"]

    def gen_config(self, max_steps: int) -> decoding.GenConfig:
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        verify_checkpoints()
        self.params, self.vocab, rec = model.load_model(
            CKPT_DIR / f"{self.checkpoint}.ckpt")
        self.scheme = control.scheme_from_record(rec)
        self.pool = stratify(
            synth_corpus(self.sz[f"{self.name}_pool"], seed, self.pool_role),
            self.chunk)
        self.gen = self.gen_config(self.step_cap)
        self.max_steps = self.step_cap or self.params.config.max_tgt_len
        self.decode(self.pool[:1], self.gen_config(max_steps=2))  # warm-up

    def decode(self, examples, gen):
        raise NotImplementedError

    def distinct_calls(self) -> int:
        """Calls before the inputs repeat: one per chunk of the pool."""
        return max(1, self.sz[f"{self.name}_pool"] // self.chunk)

    def calls(self, index: int) -> list[Call]:
        chunk = chunk_of(self.pool, index, self.chunk)

        def run():
            return self.decode(chunk, self.gen)

        def finish(result, cap):
            ids = cap["ids"]
            capped = [len(seq) >= self.max_steps for seq in ids]
            record = {"ids": ids, "docs": len(chunk),
                      "max_steps": self.max_steps,
                      "ngram_block": self.gen.ngram_block,
                      "report": self.report_of(result)}
            # Tokens the decoder had to emit: each sequence plus its EOS.
            tokens = sum(len(seq) + (not c) for seq, c in zip(ids, capped))
            return Outcome(docs=len(chunk), tokens=tokens, record=record,
                           rows_cap=sum(capped),
                           lengths=[len(seq) for seq in ids])
        return [Call(run, finish)]

    def report_of(self, result):
        return None

    def check(self, record: dict, ref) -> list[str]:
        return check_decode(record, ref)

    def input_properties(self, calls_run: int) -> dict:
        used = [ex for i in range(max(1, calls_run))
                for ex in chunk_of(self.pool, i, self.chunk)]
        cfg = self.params.config
        refs = _tgt_lengths(used, self.scheme)
        return {"sources_cut": _src_cut(used, cfg.max_src_len),
                "targets_cut": {self.scheme.name: sum(
                    n > cfg.max_tgt_len - 1 for n in refs)}}


class EvaluateWorkload(DecodeWorkload):
    name = "evaluate"
    checkpoint = "sentenum"
    root_span = "evaluation.evaluate"
    pool_role = 2

    def gen_config(self, max_steps: int) -> decoding.GenConfig:
        return decoding.GenConfig(mode="greedy", max_steps=max_steps)

    def decode(self, examples, gen):
        return evaluation.evaluate(self.params, examples, self.scheme, gen,
                                   self.vocab)

    def report_of(self, result):
        report = result[0]
        return {key: getattr(report, key) for key in
                ("acc", "pct_over", "pct_under", "rouge1_f", "rouge2_f")}


class BeamWorkload(DecodeWorkload):
    name = "beam"
    checkpoint = "repilot"
    root_span = "decoding.generate_many"
    pool_role = 3
    step_cap = BEAM_MAX_STEPS

    def gen_config(self, max_steps: int) -> decoding.GenConfig:
        return decoding.GenConfig(mode="beam", beam_width=BEAM_WIDTH,
                                  ngram_block=NGRAM_BLOCK,
                                  length_source="predicted",
                                  max_steps=max_steps)

    def decode(self, examples, gen):
        return decoding.generate_many(
            self.params, [ex.document.text for ex in examples], self.scheme,
            gen, self.vocab)


WORKLOADS = {cls.name: cls for cls in
             (TrainWorkload, EvaluateWorkload, BeamWorkload)}


def clean(work_dir: Path) -> None:
    shutil.rmtree(work_dir, ignore_errors=True)
