"""Seeded benchmark inputs and the benchmark's own reference scoring.

Inputs are built only with ``toxicspans.synthetic`` and written to files;
the program under test reads nothing else.  The reference F1 and the
prediction-file parser below are deliberately independent of the package,
so that the benchmark can check the package's own metric and writer.
"""

from __future__ import annotations

import re
import statistics
from pathlib import Path

import numpy as np

from toxicspans.dataio import CharSpanSet, LabeledPost
from toxicspans.synthetic import generate_posts, write_corpus_csv, write_embedding_file

EMBEDDING_DIM = 25
EMBEDDING_SEED = 7
# The README walkthrough corpus: the fixed training set of the H=32 model
# that predict-long and cli-pipeline use.
README_TRAIN_POSTS = 500
README_TRAIN_SEED = 11

_PRED_LINE = re.compile(r"(-?\d+)\t\[((?:-?\d+(?:, -?\d+)*)?)\]")
_TOKEN = re.compile(r"\w+|[^\w\s]")


def sub_seed(seed: int, *tags: int) -> int:
    """A generator seed derived from the workload seed and fixed tags."""
    return int(np.random.SeedSequence([seed % 2**32, *tags]).generate_state(1)[0])


def write_vectors(path: Path) -> Path:
    with open(path, "wb") as sink:
        write_embedding_file(sink, dim=EMBEDDING_DIM, seed=EMBEDDING_SEED)
    return path


def write_csv(path: Path, posts: list[LabeledPost]) -> Path:
    with open(path, "wb") as sink:
        write_corpus_csv(posts, sink)
    return path


def readme_train_posts() -> list[LabeledPost]:
    return generate_posts(README_TRAIN_POSTS, seed=README_TRAIN_SEED)


def long_posts(count: int, seed: int, clean_share: float = 0.2) -> list[LabeledPost]:
    """Posts made by joining 4-16 generated posts with single spaces.

    Gold offsets are shifted with the text.  About ``clean_share`` of the
    posts are joined only from clean (empty-gold) posts.
    """
    rng = np.random.default_rng(sub_seed(seed, 2))
    pool = generate_posts(count * 10, seed=sub_seed(seed, 3))
    clean = [post for post in pool if not post.gold]
    out = []
    for post_id in range(count):
        source = clean if rng.random() < clean_share else pool
        parts = [source[int(rng.integers(len(source)))] for _ in range(int(rng.integers(4, 17)))]
        pieces, gold, offset = [], [], 0
        for part in parts:
            pieces.append(part.text)
            gold.extend(i + offset for i in part.gold)
            offset += len(part.text) + 1
        out.append(LabeledPost(id=post_id, text=" ".join(pieces), gold=CharSpanSet(tuple(gold))))
    return out


def read_prediction_file(path: Path) -> dict[int, frozenset[int]]:
    """Parse ``<id>\\t[<i>, ...]`` lines without the package's reader."""
    preds = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        match = _PRED_LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"malformed prediction line {line!r}")
        body = match.group(2)
        preds[int(match.group(1))] = frozenset(int(i) for i in body.split(", ")) if body else frozenset()
    return preds


def char_f1(pred: frozenset[int], gold: frozenset[int]) -> float:
    """Character F1 of one post; both empty scores 1, one empty scores 0."""
    if not pred and not gold:
        return 1.0
    overlap = len(pred & gold)
    if overlap == 0:
        return 0.0
    return 2.0 * overlap / (len(pred) + len(gold))


def mean_char_f1(preds: dict[int, frozenset[int]], posts: list[LabeledPost]) -> float:
    if sorted(preds) != [post.id for post in posts]:
        raise ValueError("predictions do not cover exactly the gold posts")
    return statistics.fmean(char_f1(preds[post.id], frozenset(post.gold.indexes)) for post in posts)


def input_properties(posts: list[LabeledPost], vocab: set[str], max_len: int, batch: int) -> dict:
    """Length, cleanliness and vocabulary facts later claims can cite.

    Token counts use a plain word/punctuation split, which matches the
    package's tokenizer on the synthetic text.
    """
    lengths = []
    unknown = 0
    for post in posts:
        words = _TOKEN.findall(post.text)
        lengths.append(len(words))
        unknown += sum(1 for word in words if word.lower() not in vocab)
    order = sorted(lengths)
    batches = [lengths[lo : lo + batch] for lo in range(0, len(lengths), batch)]
    return {
        "posts": len(posts),
        "tokens_per_post_p50": statistics.median(order),
        "tokens_per_post_p90": order[min(len(order) - 1, int(0.9 * len(order)))],
        "tokens_per_post_max": order[-1],
        "share_over_max_len": sum(n > max_len for n in lengths) / len(lengths),
        "clean_share": sum(not post.gold for post in posts) / len(posts),
        "unk_rate": unknown / max(1, sum(lengths)),
        "posts_per_batch": statistics.fmean(len(b) for b in batches),
        "tokens_per_batch": statistics.fmean(sum(b) for b in batches),
    }
