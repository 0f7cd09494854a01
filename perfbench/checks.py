"""Output checks for the benchmark's library calls.

Every call's outputs are checked; each check returns a list of problems, and
a call with any problem (or one that raised) counts as a failed operation.

* Invariants hold on every seed: losses are finite, no decoded sequence is
  longer than the step cap, ``pct_over + pct_under + 100*acc == 100.0``
  exactly, and beam outputs repeat no blocked n-gram.
* References hold where ``reference.json`` records the seed: a SHA-256 of
  every decoded token sequence (``evaluate`` and ``beam``), and the
  per-epoch ``train_ce`` and ``dev_ce`` to a relative 1e-10 (``train``).
  A recorded seed holds one reference per distinct call, so every call of a
  run is checked however many calls the run makes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
LOSS_RTOL = 1e-10
LOSS_KEYS = ("train_ce", "train_len_loss", "dev_ce", "dev_len_diff")
REFERENCE_LOSS_KEYS = ("train_ce", "dev_ce")


def digest_ids(sequences: list[list[int]]) -> str:
    """SHA-256 of the decoded id sequences, in call order."""
    blob = json.dumps(sequences, separators=(",", ":")).encode("ascii")
    return hashlib.sha256(blob).hexdigest()


def load_references(path: Path = REFERENCE_PATH) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def references_for(refs: dict, workload: str, size: str, seed: int,
                   distinct_calls: int) -> list | None:
    """The recorded references of this seed, one per distinct call, or None
    if the seed is not recorded.  Call ``i`` is checked against entry
    ``i % distinct_calls``."""
    calls = refs.get(f"{workload}@{size}", {}).get(str(seed))
    if calls is not None and len(calls) != distinct_calls:
        raise ValueError(f"reference.json holds {len(calls)} calls for "
                         f"{workload}@{size} seed {seed}, but its inputs "
                         f"repeat after {distinct_calls}; record it again")
    return calls


def check_train(record: dict, ref: dict | None) -> list[str]:
    """``record`` holds the per-epoch losses of one ``train()`` call."""
    problems = []
    for key in LOSS_KEYS:
        for epoch, value in enumerate(record[key]):
            if value is not None and not math.isfinite(value):
                problems.append(f"{key}[{epoch}] is not finite: {value}")
    if ref is None:
        return problems
    if record["scheme"] != ref["scheme"]:
        problems.append(f"scheme {record['scheme']} != reference "
                        f"{ref['scheme']}")
    for key in REFERENCE_LOSS_KEYS:
        got, want = record[key], ref[key]
        if len(got) != len(want):
            problems.append(f"{key}: {len(got)} epochs, reference has "
                            f"{len(want)}")
            continue
        for epoch, (g, w) in enumerate(zip(got, want)):
            if g is None or w is None:
                if g is not w:
                    problems.append(f"{key}[{epoch}] = {g}, reference {w}")
            elif not abs(g - w) <= LOSS_RTOL * abs(w):
                problems.append(f"{key}[{epoch}] = {g!r} differs from "
                                f"reference {w!r}")
    return problems


def repeated_ngram(ids: list[int], n: int) -> tuple[int, ...] | None:
    seen = set()
    for i in range(len(ids) - n + 1):
        gram = tuple(ids[i:i + n])
        if gram in seen:
            return gram
        seen.add(gram)
    return None


def check_decode(record: dict, ref: str | None) -> list[str]:
    """``record`` holds one decode call's id sequences and, for
    ``evaluate``, its report."""
    problems = []
    ids = record["ids"]
    if len(ids) != record["docs"]:
        problems.append(f"{len(ids)} decoded sequences for "
                        f"{record['docs']} documents")
    cap = record["max_steps"]
    for row, seq in enumerate(ids):
        if len(seq) > cap:
            problems.append(f"row {row}: {len(seq)} tokens exceed the step "
                            f"cap {cap}")
        n = record.get("ngram_block")
        if n is not None:
            gram = repeated_ngram(seq, n)
            if gram is not None:
                problems.append(f"row {row}: blocked {n}-gram {gram} repeats")
    report = record.get("report")
    if report is not None:
        total = report["pct_over"] + report["pct_under"] + 100.0 * report["acc"]
        if total != 100.0:
            problems.append(f"pct_over + pct_under + 100*acc = {total!r}, "
                            f"not 100.0")
        for key in ("rouge1_f", "rouge2_f"):
            if not 0.0 <= report[key] <= 1.0:
                problems.append(f"{key} = {report[key]} outside [0, 1]")
    if ref is not None and digest_ids(ids) != ref:
        problems.append("decoded token digest differs from the reference")
    return problems
