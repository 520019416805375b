"""The arena: buffers reused from call to call must give the bits of fresh
arrays, and a warm training step must allocate almost nothing."""

import io
import tracemalloc

import numpy as np
import pytest

from conftest import PoisonedArena, poison_arenas
import toxicspans.model
from toxicspans.arena import Arena
from toxicspans.embeddings import encode_post, load_embeddings
from toxicspans.model import INFER_BATCH, _emissions, init_params, nll_and_gradients, predict_spans
from toxicspans.span_codec import BridgePolicy
from toxicspans.synthetic import generate_posts, write_embedding_file
from toxicspans.tokenizer import tokenize
from toxicspans.training import AdamState, TrainConfig, adam_step, build_examples, clip_gradients, train


def synthetic_examples(n_posts, dim=16, seed=5):
    buf = io.BytesIO()
    write_embedding_file(buf, dim=dim, seed=7)
    table = load_embeddings(io.BytesIO(buf.getvalue()), expected_dim=dim)
    return table, build_examples(generate_posts(n_posts, seed=seed), table, max_len=32)


class TestArena:
    def test_a_role_is_a_prefix_of_one_buffer_that_grows_only_when_asked_for_more(self):
        arena = Arena()
        big = arena.take("r", (3, 5))
        small = arena.take("r", (2, 3))
        assert big.shape == (3, 5) and small.shape == (2, 3)
        assert big.flags.c_contiguous and small.flags.c_contiguous
        assert small.ctypes.data == big.ctypes.data  # the same buffer, from its start
        assert not np.shares_memory(arena.take("other", (2, 3)), big)
        grown = arena.take("r", (40,))
        assert not np.shares_memory(grown, big)
        assert arena.take("r", (4, 10)).ctypes.data == grown.ctypes.data

    def test_a_scratch_slot_is_one_buffer_for_every_call(self):
        arena = Arena()
        a, b = arena.scratch(0, (4,)), arena.scratch(1, (4,))
        assert not np.shares_memory(a, b)
        assert arena.scratch(0, (2, 2)).ctypes.data == a.ctypes.data
        assert arena.scratch(1, (3,)).ctypes.data == b.ctypes.data
        assert not np.shares_memory(arena.take("named", (4,)), a)


class TestPoisonedArena:
    """The scratch rule as a check: under :class:`PoisonedArena`, which
    fills a buffer with NaN whenever it hands out a view of it, training
    and tagging give the real arena's bits."""

    def test_a_view_held_across_a_retake_of_its_slot_reads_nan(self):
        arena = PoisonedArena()
        held, other = arena.scratch(0, (2, 3)), arena.scratch(1, (3,))
        assert np.isnan(held).all()
        held.fill(1.0)
        other.fill(2.0)
        arena.scratch(0, (4,))  # a smaller view still poisons the whole buffer
        assert np.isnan(held).all()
        assert np.all(other == 2.0)

    @pytest.mark.parametrize(
        "finetune, batch_size", [(False, 8), (True, 8), (False, 1)], ids=["frozen", "finetuned", "batch1"]
    )
    def test_train_gives_the_real_arenas_bits(self, finetune, batch_size, monkeypatch):
        table, examples = synthetic_examples(132)
        cfg = TrainConfig(epochs=2, batch_size=batch_size, seed=4, learning_rate=3e-3, hidden_size=8,
                          early_stop_patience=2, dev_fraction=0.25, finetune_embeddings=finetune)
        params, history = train(examples, cfg, table)
        poison_arenas(monkeypatch)
        poisoned_params, poisoned_history = train(examples, cfg, table)
        assert np.array_equal(poisoned_params.vector, params.vector)
        assert poisoned_history == history

    def test_predict_spans_gives_the_real_arenas_bits(self, monkeypatch):
        """Two packed passes, then a lone post's pass."""
        table, _ = synthetic_examples(1)
        params = init_params(table, 8, np.random.default_rng(3))
        params.emit.W_out *= 8.0
        toks = [tokenize(post.text) for post in generate_posts(2 * INFER_BATCH + 1, seed=9)]
        posts = [encode_post(t, table, 32) for t in toks]
        assert all(post.effective_len for post in posts)
        decode = toxicspans.model.viterbi_decode

        def tag():
            seen = []

            def recording_decode(em, crf):
                seen.append(em.copy())
                return decode(em, crf)

            monkeypatch.setattr(toxicspans.model, "viterbi_decode", recording_decode)
            return predict_spans(params, posts, BridgePolicy()), seen

        spans, emissions = tag()
        assert any(spans)
        poison_arenas(monkeypatch)
        poisoned_spans, poisoned_emissions = tag()
        assert poisoned_spans == spans
        assert len(emissions) == len(posts)
        assert all(np.array_equal(got, want) for got, want in zip(poisoned_emissions, emissions))


def batch_of(examples, count, longest):
    """``count`` examples, the longest (or the shortest) with tokens first."""
    ranked = sorted((ex for ex in examples if ex.encoded.effective_len), key=lambda ex: ex.encoded.effective_len)
    picked = ranked[-count:] if longest else ranked[:count]
    return [ex.encoded for ex in picked], [ex.labels[: ex.encoded.effective_len] for ex in picked]


def gradient_bits(nll, grads):
    """Copies of what a call returned, so that a later call cannot change them."""
    return nll, grads.vector.copy(), grads.embedding.matrix.copy() if grads.finetuned else None


class TestStaleRows:
    """A long batch, then a shorter one, through one arena: the second must
    read nothing the first left behind."""

    @pytest.mark.parametrize("finetune", [False, True], ids=["frozen", "finetuned"])
    @pytest.mark.parametrize("long_b, short_b", [(6, 3), (1, 1), (5, 1), (1, 2)])
    def test_a_shorter_batch_after_a_longer_one_gives_the_bits_of_a_fresh_arena(self, long_b, short_b, finetune):
        table, examples = synthetic_examples(60)
        params = init_params(table, 6, np.random.default_rng(1), finetune_embeddings=finetune)
        long, short = batch_of(examples, long_b, True), batch_of(examples, short_b, False)
        assert sum(len(labels) for labels in long[1]) > sum(len(labels) for labels in short[1])

        arena = Arena()
        first = gradient_bits(*nll_and_gradients(*long, params, arena))
        second = gradient_bits(*nll_and_gradients(*short, params, arena))
        for got, batch in ((first, long), (second, short)):
            fresh = gradient_bits(*nll_and_gradients(*batch, params))
            assert got[0] == fresh[0]
            assert np.array_equal(got[1], fresh[1])
            assert np.array_equal(got[2], fresh[2]) if finetune else got[2] is None

    def test_gradients_live_in_the_arena_until_its_next_use(self):
        table, examples = synthetic_examples(30)
        params = init_params(table, 4, np.random.default_rng(2))
        arena = Arena()
        _, grads = nll_and_gradients(*batch_of(examples, 4, True), params, arena)
        before = grads.vector.copy()
        nll_and_gradients(*batch_of(examples, 2, False), params, arena)
        assert not np.array_equal(grads.vector, before)  # overwritten, as documented


def test_predict_spans_passes_give_the_bits_of_fresh_passes(monkeypatch):
    """The passes share one arena; each must give the emissions of a pass
    of its own, bit for bit."""
    table, _ = synthetic_examples(1)
    rng = np.random.default_rng(3)
    params = init_params(table, 8, rng)
    params.emit.W_out *= 8.0
    texts = [text.text for text in generate_posts(2 * INFER_BATCH + 1, seed=9)]
    toks = [tokenize(text) for text in texts]
    posts = [encode_post(t, table, 32) for t in toks]
    seen = []
    decode = toxicspans.model.viterbi_decode

    def recording_decode(em, crf):
        seen.append(em.copy())
        return decode(em, crf)

    monkeypatch.setattr(toxicspans.model, "viterbi_decode", recording_decode)
    predict_spans(params, posts, BridgePolicy())
    monkeypatch.undo()

    order = sorted(range(len(posts)), key=lambda k: -posts[k].effective_len)
    expected = []
    for lo in range(0, len(order), INFER_BATCH):
        picked = [posts[k] for k in order[lo : lo + INFER_BATCH]]
        emissions, steps, _ = _emissions(picked, params)
        by_post, start = steps.unpack(emissions), 0
        for post in picked:
            expected.append(by_post[start : start + post.effective_len])
            start += post.effective_len
    assert len(seen) == len(expected) == len(posts)
    assert all(np.array_equal(got, want) for got, want in zip(seen, expected))


class RecordingArena(Arena):
    """An arena that records every role it hands out."""

    def __init__(self) -> None:
        super().__init__()
        self.roles: set[str] = set()

    def take(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        self.roles.add(role)
        return super().take(role, shape)


BACKWARD_ONLY_ROLES = {"lstm.cell", "lstm.tanh_cell"}


@pytest.mark.parametrize("n_posts", [1, INFER_BATCH + 3], ids=["one-post", "windows"])
def test_only_a_training_pass_takes_the_backward_cache(n_posts):
    """Tagging runs no backward pass, so it takes none of the roles that
    only ``lstm_backward`` reads; a training pass still takes them."""
    table, examples = synthetic_examples(n_posts)
    params = init_params(table, 8, np.random.default_rng(3))
    posts = [ex.encoded for ex in examples]
    tagging = RecordingArena()
    predict_spans(params, posts, BridgePolicy(), tagging)
    assert "lstm.hidden" in tagging.roles and not tagging.roles & BACKWARD_ONLY_ROLES
    training = RecordingArena()
    nll_and_gradients(posts, [ex.labels[: ex.encoded.effective_len] for ex in examples], params, training)
    assert training.roles >= BACKWARD_ONLY_ROLES


# Traced peak of a warm step (nll_and_gradients, clip, Adam) at H = 128 and
# B = 16 (N = 173 rows), over the traced memory before it.  Measured with
# numpy 2.4, frozen and fine-tuned alike: 0.29 MB with a warm arena,
# against 8.3 MB for the same step with a fresh arena per call (7.6 MB
# before the arena existed).  What is left is the time loops' per-step
# temporaries and the CRF's small arrays.
WARM_STEP_PEAK_BYTES = 512 * 1024


@pytest.mark.parametrize("finetune", [False, True], ids=["frozen", "tuned"])
def test_a_warm_training_step_allocates_almost_nothing(finetune):
    table, examples = synthetic_examples(16, dim=25, seed=0)
    params = init_params(table, 128, np.random.default_rng(0), finetune_embeddings=finetune)
    state = AdamState(1e-3, np.zeros_like(params.vector), np.zeros_like(params.vector))
    batch = ([ex.encoded for ex in examples], [ex.labels[: ex.encoded.effective_len] for ex in examples])
    assert sum(map(len, batch[1])) == 173

    def step(arena):
        _, grads = nll_and_gradients(*batch, params, arena)
        grads.vector *= 1.0 / len(examples)
        clip_gradients(grads, 5.0, arena)
        adam_step(params.vector, grads.vector, state, arena)

    def traced_peak(arena):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step(arena)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    arena = Arena()
    step(arena)  # warm-up: the arena's buffers grow to the batch
    warm = traced_peak(arena)
    fresh = traced_peak(None)
    assert warm < WARM_STEP_PEAK_BYTES
    assert warm < fresh / 10
