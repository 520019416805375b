"""Minor page faults and CPU time of one library ``train()`` run.

Trains a tagger on seeded synthetic posts (by default 1000 posts, 2 epochs,
batch 16, H = 128, the synthetic 25-dimensional vectors) and prints one JSON
line: ``ru_minflt`` and user and system CPU seconds of this process around
the call, its wall seconds, the sha256 of the checkpoint it would save, and
the sha256 of the prediction file of the trained model on 49 held-out
posts, tagged by ``predict_spans`` in three packed passes and then a lone
post's pass.  BLAS is pinned to one thread before numpy loads.  Run it from
the repository root:

    PYTHONPATH=src python tests/fault_probe.py [--hidden 128] [--posts 1000] [--max-len 128]

A training step that allocates and frees megabytes each step shows here as
tens of thousands of faults: glibc returns the freed top of the heap to the
kernel and the next step faults it in again.  The figure depends on the C
library, so it is a measurement, not a test.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import io
import json
import resource
import time

from toxicspans.checkpoint import serialize_checkpoint
from toxicspans.dataio import PostPrediction, write_predictions
from toxicspans.embeddings import load_embeddings
from toxicspans.model import INFER_BATCH, predict_spans
from toxicspans.span_codec import BridgePolicy
from toxicspans.synthetic import generate_posts, write_embedding_file
from toxicspans.training import TrainConfig, build_examples, train


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hidden", type=int, default=128)
    parser.add_argument("--posts", type=int, default=1000)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--batch", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--finetune", action="store_true")
    parser.add_argument("--max-len", type=int, default=128, help="tokens encoded per post")
    args = parser.parse_args()

    sink = io.BytesIO()
    write_embedding_file(sink, dim=25, seed=7)
    sink.seek(0)
    table = load_embeddings(sink, 25)
    examples = build_examples(generate_posts(args.posts, seed=args.seed), table, args.max_len)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch, seed=args.seed, learning_rate=3e-3,
                      hidden_size=args.hidden, early_stop_patience=args.epochs,
                      max_len=args.max_len, finetune_embeddings=args.finetune)

    before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    params, _ = train(examples, cfg, table)
    wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)

    held_out = build_examples(generate_posts(4 * INFER_BATCH, seed=args.seed + 1), table, args.max_len)
    held_out = [ex for ex in held_out if ex.encoded.effective_len][: 3 * INFER_BATCH + 1]
    policy = BridgePolicy(bridge_gaps=True, max_gap=cfg.bridge_gap)
    spans = predict_spans(params, [ex.encoded for ex in held_out], policy)
    predictions = io.BytesIO()
    write_predictions([PostPrediction(ex.post_id, s) for ex, s in zip(held_out, spans)], predictions)
    print(json.dumps({
        "hidden": args.hidden,
        "posts": args.posts,
        "minflt": after.ru_minflt - before.ru_minflt,
        "user_s": round(after.ru_utime - before.ru_utime, 3),
        "sys_s": round(after.ru_stime - before.ru_stime, 3),
        "wall_s": round(wall, 3),
        "checkpoint_sha256": hashlib.sha256(serialize_checkpoint(params, cfg, table)).hexdigest(),
        "predictions_sha256": hashlib.sha256(predictions.getvalue()).hexdigest(),
    }))


if __name__ == "__main__":
    main()
