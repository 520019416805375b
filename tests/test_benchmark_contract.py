"""The benchmark's tracer (``perfbench/tracer.py``) against the package: every
function it times or counts still exists, and its encoding and step
counters equal counts made here, independently, over the same calls.

The tracer is imported as it is, never edited; it wraps the package's
functions while a tiny training, prediction and encoding run, and is
removed again before the test ends.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_table
import toxicspans.embeddings
import toxicspans.model
import toxicspans.training
from toxicspans.dataio import CharSpanSet, LabeledPost
from toxicspans.tokenizer import tokenize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MAX_LEN = 6
WORDS = ["you", "are", "a", "loser", "nice", "day", "the", "cat"]


@pytest.fixture
def tracer_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def corpus(rng, n):
    """Posts of 1-9 words, some past MAX_LEN and some with unknown words;
    the gold span is every "loser"."""
    posts = []
    for k in range(n):
        picks = rng.integers(0, len(WORDS) + 2, size=rng.integers(1, 10))
        text = " ".join(WORDS[i] if i < len(WORDS) else f"zz{i}" for i in picks)
        gold = [i for tok in tokenize(text) if tok.lower == "loser" for i in range(tok.start, tok.end)]
        posts.append(LabeledPost(id=k, text=text, gold=CharSpanSet(tuple(gold))))
    return posts


def test_tracer_counts_match_independent_counts(tracer_module):
    rng = np.random.default_rng(0)
    table = make_table(WORDS, dim=4, seed=1)
    posts = corpus(rng, 24)
    texts = [post.text for post in corpus(rng, 5)]
    cfg = toxicspans.training.TrainConfig(epochs=2, batch_size=5, hidden_size=3, max_len=MAX_LEN, seed=2)

    tracer = tracer_module.Tracer()
    tracer.install()
    # Each counted kernel's packed rows, N = sum(lengths), recorded from its
    # layout, its labels or its result, through a spy that calls the traced
    # function; the spies are removed before the tracer restores the
    # originals.
    steps = {"lstm": 0, "crf": 0}

    def spy(module, name, count):
        traced = getattr(module, name)

        def call(*args, **kwargs):
            result = traced(*args, **kwargs)
            steps[count[0]] += count[1](args, result)
            return result

        setattr(module, name, call)
        return module, name, traced

    spies = [
        spy(toxicspans.model, "lstm_forward", ("lstm", lambda args, _: args[2].N)),
        spy(toxicspans.model, "crf_nll_grad", ("crf", lambda args, _: sum(map(len, args[2])))),
        spy(toxicspans.model, "viterbi_decode", ("crf", lambda _, path: len(path))),
    ]
    try:
        examples = toxicspans.training.build_examples(posts, table, MAX_LEN)
        params, history = toxicspans.training.train(examples, cfg, table)
        for text in texts:
            toxicspans.model.predict(params, text, MAX_LEN)
        direct = toxicspans.embeddings.encode_post(tokenize("zz1 " * 9), table, MAX_LEN)
    finally:
        for module, name, traced in spies:
            setattr(module, name, traced)
        tracer.uninstall()
    metrics, absent = tracer.metrics()

    assert absent == []
    encoded = [ex.encoded for ex in examples]
    encoded += [toxicspans.embeddings.encode_post(tokenize(text), table, MAX_LEN) for text in texts]
    encoded.append(direct)
    kept = [len(post.indices) for post in encoded]
    assert metrics["embeddings.pad_share"] == sum(MAX_LEN - n for n in kept) / (MAX_LEN * len(encoded))
    assert metrics["embeddings.unk_rate"] == (
        sum(int(np.sum(post.indices == table.unk_index)) for post in encoded) / sum(kept)
    )
    truncated = sum(post.true_len > MAX_LEN for post in encoded)
    assert metrics["embeddings.truncated_share"] == truncated / len(encoded)
    assert 0 < metrics["embeddings.pad_share"] < 1 and 0 < metrics["embeddings.unk_rate"] < 1
    assert 0 < metrics["embeddings.truncated_share"] < 1

    assert metrics["training.epochs"] == len(history) == 2
    assert steps["lstm"] > 0 and steps["crf"] > 0
    assert metrics["lstm.steps"] == steps["lstm"]
    assert metrics["crf.positions"] == steps["crf"]
