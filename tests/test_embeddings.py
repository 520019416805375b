import csv
import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_table
from toxicspans.embeddings import encode_post, load_embeddings, mean_pooled
from toxicspans.errors import DataFormatError, ValidationError
from toxicspans.tokenizer import tokenize


def vector_file(entries, dim):
    rng = np.random.default_rng(42)
    lines = []
    stored = {}
    for word in entries:
        vec = rng.normal(size=dim)
        stored[word] = vec
        lines.append(word + " " + " ".join(f"{v:.8f}" for v in vec))
    return io.BytesIO(("\n".join(lines) + "\n").encode("utf-8")), stored


class TestLoadEmbeddings:
    def test_three_words_dim_25_gives_five_rows(self):
        source, _ = vector_file(["alpha", "beta", "gamma"], dim=25)
        table = load_embeddings(source, expected_dim=25)
        assert table.matrix.shape == (5, 25)
        assert table.unk_index == 3 and table.pad_index == 4
        assert table.vocab == {"alpha": 0, "beta": 1, "gamma": 2}

    def test_unk_row_is_componentwise_mean(self):
        source, stored = vector_file(["a", "b", "c", "d"], dim=6)
        table = load_embeddings(source, expected_dim=6)
        # recompute the mean independently from the raw vectors
        expected = np.mean(
            [stored["a"], stored["b"], stored["c"], stored["d"]], axis=0
        )
        np.testing.assert_allclose(table.matrix[table.unk_index], expected, atol=1e-7)

    def test_pad_row_is_zero(self):
        source, _ = vector_file(["a", "b"], dim=3)
        table = load_embeddings(source, expected_dim=3)
        assert np.all(table.matrix[table.pad_index] == 0.0)

    def test_dimension_mismatch_names_line(self):
        raw = b"good 1.0 2.0 3.0\nbad 1.0 2.0\n"
        with pytest.raises(DataFormatError, match="line 2"):
            load_embeddings(io.BytesIO(raw), expected_dim=3)

    def test_non_numeric_component_names_line(self):
        raw = b"word 1.0 oops 3.0\n"
        with pytest.raises(DataFormatError, match="line 1"):
            load_embeddings(io.BytesIO(raw), expected_dim=3)

    def test_empty_file_rejected(self):
        with pytest.raises(DataFormatError, match="no vectors"):
            load_embeddings(io.BytesIO(b""), expected_dim=3)

    def test_duplicate_word_keeps_first(self):
        raw = b"dup 1.0 1.0\nother 2.0 2.0\ndup 9.0 9.0\n"
        table = load_embeddings(io.BytesIO(raw), expected_dim=2)
        assert table.matrix.shape == (4, 2)
        np.testing.assert_array_equal(table.matrix[table.vocab["dup"]], [1.0, 1.0])

    def test_fingerprint_changes_with_vocab(self):
        t1 = load_embeddings(io.BytesIO(b"a 1.0\nb 2.0\n"), expected_dim=1)
        t2 = load_embeddings(io.BytesIO(b"a 1.0\nc 2.0\n"), expected_dim=1)
        t3 = load_embeddings(io.BytesIO(b"a 9.0\nb 5.0\n"), expected_dim=1)
        assert t1.fingerprint() != t2.fingerprint()
        assert t1.fingerprint() == t3.fingerprint()  # values don't enter the hash


class TestEncodePost:
    def test_known_tokens_padded_to_max_len(self):
        table = make_table(["the", "cat", "sat", "on", "mat"])
        toks = tokenize("the cat sat on mat")
        post = encode_post(toks, table, max_len=128)
        assert post.indices.shape == (5,)
        assert list(post.indices) == [0, 1, 2, 3, 4]
        assert post.mask.shape == (128,) and not post.mask[5:].any()
        assert post.mask.sum() == 5
        assert post.true_len == 5

    def test_unknown_token_maps_to_unk(self):
        table = make_table(["the"])
        post = encode_post(tokenize("the zorblatt"), table, max_len=8)
        assert post.indices[0] == table.vocab["the"]
        assert post.indices[1] == table.unk_index

    def test_lookup_uses_lowercased_surface(self):
        table = make_table(["potus"])
        post = encode_post(tokenize("POTUS"), table, max_len=4)
        assert post.indices[0] == table.vocab["potus"]

    def test_truncation_records_true_length(self):
        table = make_table(["w"])
        toks = tokenize(" ".join(["w"] * 200))
        post = encode_post(toks, table, max_len=128)
        assert post.tokens is toks
        assert post.true_len == len(post.tokens) == 200
        assert post.mask.sum() == 128
        assert post.effective_len == 128

    def test_max_len_must_be_positive(self):
        table = make_table(["w"])
        with pytest.raises(ValidationError):
            encode_post(tokenize("w"), table, max_len=0)

    def test_max_len_beyond_csv_field_limit_rejected(self):
        table = make_table(["w"])
        limit = csv.field_size_limit()
        assert encode_post(tokenize("w"), table, max_len=limit).effective_len == 1
        with pytest.raises(ValidationError, match="max_len"):
            encode_post(tokenize("w"), table, max_len=limit + 1)

    @given(st.integers(0, 40), st.integers(1, 30))
    def test_mask_sums_to_min_of_lengths(self, n_tokens, max_len):
        table = make_table(["w"])
        toks = tokenize(" ".join(["w"] * n_tokens))
        post = encode_post(toks, table, max_len=max_len)
        assert post.mask.sum() == min(n_tokens, max_len)
        assert np.all(post.mask[: len(post.indices)] == 1) and not post.mask.flags.writeable

    def test_deterministic(self):
        table = make_table(["a", "b"])
        toks = tokenize("a b mystery")
        p1 = encode_post(toks, table, max_len=16)
        p2 = encode_post(toks, table, max_len=16)
        np.testing.assert_array_equal(p1.indices, p2.indices)
        np.testing.assert_array_equal(p1.mask, p2.mask)


class TestMeanPooled:
    def test_empty_post_pools_to_zero(self):
        table = make_table(["w"], dim=3)
        post = encode_post(tokenize(""), table, max_len=4)
        np.testing.assert_array_equal(mean_pooled(post, table), np.zeros(3))

    def test_mean_over_unpadded_rows_only(self):
        table = make_table(["a", "b"], dim=3)
        post = encode_post(tokenize("a b"), table, max_len=8)
        expected = (table.matrix[0] + table.matrix[1]) / 2.0
        np.testing.assert_allclose(mean_pooled(post, table), expected)

    def test_bitwise_the_mean_of_the_rows(self):
        rng = np.random.default_rng(18)
        words = [f"w{k}" for k in range(300)]
        table = make_table(words, dim=25, seed=5)
        for n in range(1, 201):
            post = encode_post(tokenize(" ".join(rng.choice(words + ["unseen"], size=n))), table, max_len=n)
            want = table.matrix[post.indices].mean(axis=0)
            np.testing.assert_array_equal(mean_pooled(post, table).view(np.uint64), want.view(np.uint64))
