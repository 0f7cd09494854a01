"""Train the two decode checkpoints the benchmark's decode workloads load.

    python3 perfbench/prepare.py

The checkpoints are committed under ``perfbench/checkpoints`` together with
``SHA256SUMS``, so decode digests stay fixed when a later change alters
training arithmetic (summation order, fused primitives).  Re-run this script
only on purpose; it rewrites the files and their sums.

The protocol follows the acceptance zoo (corpus sizes and seeds, vocabulary
cap, batch, learning rate, run seed, default ``ModelConfig``) with fewer
epochs.  Unlike the zoo fixture, the decoder position scheme is derived from
the control scheme the way ``lenctl train`` derives it: ``repilot`` trains
with countdown (``reverse``) positions, every other scheme with ``forward``.
Training is single-threaded BLAS and bitwise reproducible.  The script
always trains both checkpoints and rewrites ``SHA256SUMS``.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from lenctl.control import ControlScheme  # noqa: E402
from lenctl.model import ModelConfig  # noqa: E402
from lenctl.synth import SynthSpec, generate_synthetic_corpus  # noqa: E402
from lenctl.text import build_vocab  # noqa: E402
from lenctl.training import TrainConfig, train  # noqa: E402
from workloads import position_scheme_for  # noqa: E402

CKPT_DIR = HERE / "checkpoints"
SUMS = CKPT_DIR / "SHA256SUMS"

TRAIN_SIZE, DEV_SIZE = 5000, 200
TRAIN_SEED, DEV_SEED = 101, 102
VOCAB_MAX = 4096
EPOCHS = 4
BATCH_SIZE = 32
LEARNING_RATE = 1e-3
RUN_SEED = 0

# scheme -> (unit, joint-loss weight lam)
SCHEMES = {"sentenum": ("sentences", 0.0), "repilot": ("tokens", 0.1)}


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def checkpoint_files(name: str) -> list[Path]:
    ckpt = CKPT_DIR / f"{name}.ckpt"
    return [ckpt, Path(str(ckpt) + ".json")]


def prepare(name: str) -> None:
    unit, lam = SCHEMES[name]
    train_set = generate_synthetic_corpus(SynthSpec(size=TRAIN_SIZE),
                                          seed=TRAIN_SEED)
    dev_set = generate_synthetic_corpus(SynthSpec(size=DEV_SIZE), seed=DEV_SEED)
    vocab = build_vocab([ex.document.text for ex in train_set]
                        + [ex.summary.text for ex in train_set], VOCAB_MAX)
    model_config = ModelConfig(vocab_size=len(vocab), length_head=lam > 0.0,
                               position_scheme=position_scheme_for(name))
    train_config = TrainConfig(epochs=EPOCHS, batch_size=BATCH_SIZE,
                               learning_rate=LEARNING_RATE, lam=lam,
                               scheme=ControlScheme(name, unit=unit),
                               patience=EPOCHS, seed=RUN_SEED)
    CKPT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=CKPT_DIR) as work:
        result = train(train_set, dev_set, vocab, model_config, train_config,
                       work)
        for row in result.metrics:
            print(f"{name} epoch {row.epoch}: train_ce {row.train_ce} "
                  f"dev_ce {row.dev_ce} dev_len_diff {row.dev_len_diff}")
        src = result.best_path
        for dst in checkpoint_files(name):
            suffix = dst.name[len(f"{name}.ckpt"):]
            shutil.copyfile(str(src) + suffix, dst)


def write_sums() -> None:
    lines = [f"{sha256_of(p)}  {p.name}\n"
             for name in SCHEMES for p in checkpoint_files(name)]
    SUMS.write_text("".join(lines), encoding="utf-8")


def main() -> int:
    for name in sorted(SCHEMES):
        prepare(name)
    write_sums()
    return 0


if __name__ == "__main__":
    sys.exit(main())
