"""Seeded synthetic corpus for end-to-end checks: carrier sentences with
words from a small toxic lexicon spliced in.

Each toxic insertion is one or two consecutive lexicon words and its gold
span covers the whole insertion including the internal space, mirroring how
contiguous multi-word phrases are annotated.  A share of posts carries no
toxic words at all.  The matching embedding file assigns every vocabulary
word an independent seeded Gaussian vector, so the task is pure word
memorization and a correct tagger can solve it almost perfectly.
"""

from __future__ import annotations

import csv
from typing import IO

import numpy as np

from .dataio import CharSpanSet, LabeledPost, format_span_literal, text_writer

TOXIC_LEXICON = (
    "blorfing", "snarptic", "grumbling", "vexatious", "crudnick",
    "fopdoodle", "sludgery", "rancidly", "mudgeon", "skunkish",
    "drattish", "gobline", "smearful", "rotgut", "pestery",
    "gunkster", "vilewort", "scuzzle", "brackish", "snidely",
)

CARRIER_WORDS = (
    "the", "a", "we", "they", "people", "report", "city", "council",
    "garden", "window", "coffee", "morning", "train", "paper", "quiet",
    "river", "bright", "yellow", "stone", "market", "letter", "winter",
    "summer", "reading", "walking", "other", "small", "large", "near",
    "under", "over", "again", "often", "never", "always", "maybe",
    "house", "road", "field", "cloud", "light", "sound", "voice",
    "table", "chair", "plant", "water", "glass", "metal", "wood",
    "green", "early", "later", "today", "north", "south", "east",
)


def generate_posts(
    n_posts: int,
    seed: int,
    toxic_fraction: float = 0.8,
) -> list[LabeledPost]:
    """Generate labeled posts; about ``1 - toxic_fraction`` have empty gold."""
    rng = np.random.default_rng(seed)
    posts = []
    for post_id in range(n_posts):
        n_words = int(rng.integers(5, 13))
        items: list[tuple[str, ...]] = [
            (CARRIER_WORDS[int(rng.integers(len(CARRIER_WORDS)))],)
            for _ in range(n_words)
        ]
        toxic_slots: set[int] = set()
        if rng.random() < toxic_fraction:
            for _ in range(int(rng.integers(1, 3))):
                size = int(rng.integers(1, 3))
                phrase = tuple(
                    TOXIC_LEXICON[int(rng.integers(len(TOXIC_LEXICON)))]
                    for _ in range(size)
                )
                # Keep insertions non-adjacent so gold spans stay unambiguous
                # (adjacent toxic phrases would merge under gap bridging).
                for _attempt in range(10):
                    slot = int(rng.integers(0, len(items) + 1))
                    shifted = {s + 1 if s >= slot else s for s in toxic_slots}
                    if slot - 1 not in shifted and slot + 1 not in shifted:
                        items.insert(slot, phrase)
                        toxic_slots = shifted | {slot}
                        break
        # Join everything with single spaces, recording gold character spans
        # over the toxic phrases (internal phrase spaces included).
        spans: set[int] = set()
        pieces: list[str] = []
        pos = 0
        for index, item in enumerate(items):
            if pieces:
                pos += 1  # the joining space
            piece = " ".join(item)
            if index in toxic_slots:
                spans.update(range(pos, pos + len(piece)))
            pieces.append(piece)
            pos += len(piece)
        text = " ".join(pieces)
        posts.append(LabeledPost(id=post_id, text=text, gold=CharSpanSet(tuple(spans))))
    return posts


def write_corpus_csv(posts: list[LabeledPost], sink: IO) -> None:
    """Write posts in the dataset CSV format (columns ``spans``, ``text``)."""
    with text_writer(sink) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["spans", "text"])
        for post in posts:
            writer.writerow([format_span_literal(post.gold), post.text])


def write_embedding_file(sink: IO, dim: int = 25, seed: int = 7) -> None:
    """Seeded Gaussian vectors for the full synthetic vocabulary."""
    rng = np.random.default_rng(seed)
    with text_writer(sink) as out:
        for word in sorted(set(TOXIC_LEXICON) | set(CARRIER_WORDS)):
            vec = rng.normal(size=dim)
            out.write(word + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")
