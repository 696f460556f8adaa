import numpy as np
import pytest

from helpers import (
    augment_pair_reference,
    embed_sentence_reference,
    match_indices_reference,
    random_library,
)
from maxcosine.data import SentencePair
from maxcosine.embeddings import EmbeddingLibrary, cosine, embed_sentence
from maxcosine.matching import EmptySentenceError, index_pairs, match_indices, match_word
from maxcosine.model import ModelConfig, augment_pair
from maxcosine.numerics import make_rng


def naive_match(query, candidates):
    """Independent brute-force argmax-of-cosine oracle."""
    best, best_sim = 0, float("-inf")
    for i, cand in enumerate(candidates):
        sim = cosine(np.asarray(query, float), np.asarray(cand, float))
        if sim > best_sim:
            best, best_sim = i, sim
    return best


def matched(conditioned, conditioning, lib):
    """Matched indices of conditioned|conditioning at the default OOV window."""
    own, cand = embed_sentence(lib, conditioned), embed_sentence(lib, conditioning)
    return match_indices(own, cand).tolist()


def match_one(query, rows):
    return int(match_indices(np.asarray(query, float)[None], np.asarray(rows, float))[0])


class TestMatchWord:
    def test_basic(self):
        assert match_word(np.array([0.9, 0.1]), [np.array([1.0, 0.0]), np.array([0.0, 1.0])]) == 0

    def test_tie_break_smallest_index(self):
        cands = [np.array([1.0, 1.0]), np.array([1.0, 1.0])]
        assert match_word(np.array([0.3, 0.3]), cands) == 0

    def test_scale_invariance_of_query(self):
        cands = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert match_word(np.array([9.0, 1.0]), cands) == match_word(
            np.array([0.9, 0.1]), cands
        )

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            match_word(np.array([1.0]), [])


class TestMatchFast:
    """match_indices, one query row at a time, against match_word's rules."""

    def test_agrees_with_match_word_on_random_instances(self):
        rng = make_rng(11)
        for _ in range(200):
            m, n, d = int(rng.integers(1, 5)), int(rng.integers(1, 9)), int(rng.integers(2, 6))
            own, rows = rng.standard_normal((m, d)), rng.standard_normal((n, d))
            assert match_indices(own, rows).tolist() == [match_word(q, list(rows)) for q in own]

    def test_single_candidate(self):
        assert match_one([1.0, 0.0], [[0.5, 0.5]]) == 0

    def test_zero_norm_candidate_loses_to_positive_similarity(self):
        assert match_one([1.0, 0.0], [[0.0, 0.0], [1.0, 0.5]]) == 1

    def test_zero_norm_candidate_beats_negative_similarity(self):
        # similarity 0 (the zero-vector convention) outranks a negative cosine,
        # keeping match_indices consistent with argmax over match_word's values
        rows = np.array([[0.0, 0.0], [-1.0, 0.0]])
        q = np.array([1.0, 0.0])
        assert match_one(q, rows) == match_word(q, list(rows)) == 0

    def test_all_zero_candidates(self):
        assert match_one([1.0, 0.0], np.zeros((3, 2))) == 0

    def test_zero_query(self):
        assert match_one(np.zeros(2), [[1.0, 0.0], [0.0, 1.0]]) == 0

    def test_identical_rows_tie_to_smallest_index_at_paper_width(self):
        # BLAS products round identical rows apart at some positions, at d = 300
        # for a matvec per query as for one product over all queries
        for n in range(2, 40):
            v = make_rng(n).standard_normal(300)
            cand = np.tile(v, (n, 1))
            cand[n // 2] = -v  # a distinct row in between the copies
            own = np.vstack([v, 2.0 * v, v])
            assert match_indices(own, cand).tolist() == [0, 0, 0], n


class TestAugmentedSequence:
    def test_shapes(self):
        rng = make_rng(1)
        lib = random_library(rng, n_words=10, dim=7)
        pair = SentencePair(("w4", "w5"), ("w0", "w1", "w2", "w3"), label=1, id=0)
        z_h, z_p = augment_pair(pair, lib, ModelConfig(embedding_dim=7, k=1, biway=True))
        assert z_h.shape == (4, 14) and z_p.shape == (2, 14)
        assert all(0 <= i < 2 for i in matched(pair.hypothesis_tokens, pair.premise_tokens, lib))

    def test_identical_sentences_match_self(self):
        rng = make_rng(2)
        lib = random_library(rng, n_words=12, dim=6)
        tokens = ["w0", "w1", "w2", "w3", "w4"]
        for t, idx in enumerate(matched(tokens, tokens, lib)):
            matched_sim = cosine(lib.vector(tokens[t]), lib.vector(tokens[idx]))
            assert matched_sim == pytest.approx(1.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = make_rng(3)
        lib = random_library(rng, n_words=16, dim=5)
        words = lib.words()
        for _ in range(50):
            cond = [str(w) for w in rng.choice(words, size=int(rng.integers(2, 7)))]
            against = [str(w) for w in rng.choice(words, size=int(rng.integers(2, 7)))]
            expected = [
                naive_match(lib.vector(c), [lib.vector(x) for x in against]) for c in cond
            ]
            assert matched(cond, against, lib) == expected

    def test_empty_sides_rejected(self):
        rng = make_rng(4)
        lib = random_library(rng, n_words=4, dim=3)
        config = ModelConfig(embedding_dim=3, k=1, biway=True)
        with pytest.raises(EmptySentenceError):
            augment_pair(SentencePair((), ("w0",), label=1, id=0), lib, config)
        with pytest.raises(EmptySentenceError):
            augment_pair(SentencePair(("w0",), (), label=1, id=0), lib, config)

    def test_argmax_invariant_under_global_scaling(self):
        rng = make_rng(5)
        lib = random_library(rng, n_words=14, dim=6)
        scaled = lib.scaled(2.0)
        words = lib.words()
        for _ in range(30):
            cond = [str(w) for w in rng.choice(words, size=4)]
            against = [str(w) for w in rng.choice(words, size=5)]
            assert matched(cond, against, lib) == matched(cond, against, scaled)

    def test_directions_are_independent(self):
        rng = make_rng(6)
        lib = random_library(rng, n_words=10, dim=4)
        y = ["w0", "w1", "w2"]
        x = ["w3", "w4", "w5", "w6"]
        assert len(matched(y, x, lib)) == 3
        assert len(matched(x, y, lib)) == 4


def oracle_vector(lib, tokens, t, window):
    """One token's vector by the per-token rule, neighbours averaged as a list."""
    if tokens[t] in lib.vocab:
        return lib.vector(tokens[t])
    span = range(max(0, t - window), min(len(tokens), t + window + 1))
    near = [lib.vector(tokens[j]) for j in span if j != t and tokens[j] in lib.vocab]
    return np.mean(near, axis=0) if near else np.zeros(lib.dim)


def oracle_sequence(conditioned, conditioning, lib, window):
    own = [oracle_vector(lib, conditioned, t, window) for t in range(len(conditioned))]
    cand = [oracle_vector(lib, conditioning, s, window) for s in range(len(conditioning))]
    return np.stack([np.concatenate([v, cand[match_word(v, cand)]]) for v in own])


@pytest.mark.parametrize("biway", [False, True])
def test_augment_pair_equals_per_token_oracle(biway):
    rng = make_rng(30)
    lib = random_library(rng, n_words=40, dim=300)
    words = lib.words()[:12] + ["oovA", "oovB", "oovC"]  # repeats, and OOV tokens
    config = ModelConfig(embedding_dim=300, k=1, biway=biway, oov_window=2)
    pairs = [
        # every neighbour within the window is OOV: zero vectors on both sides
        SentencePair(("oovA", "oovB", "w1", "w1", "oovC", "oovA", "oovB"),
                     ("oovC", "oovA", "oovB", "w2", "w1"), label=1, id=0),
    ]
    for i in range(60):
        prem = tuple(str(w) for w in rng.choice(words, size=int(rng.integers(1, 16))))
        hyp = tuple(str(w) for w in rng.choice(words, size=int(rng.integers(1, 10))))
        pairs.append(SentencePair(prem, hyp, label=1, id=i + 1))
    zero_rows = 0
    for pair in pairs:
        z_h, z_p = augment_pair(pair, lib, config)
        want_h = oracle_sequence(pair.hypothesis_tokens, pair.premise_tokens, lib, 2)
        assert z_h.tobytes() == want_h.tobytes()
        zero_rows += int(np.sum(~z_h.any(axis=1)))
        if biway:
            want_p = oracle_sequence(pair.premise_tokens, pair.hypothesis_tokens, lib, 2)
            assert z_p.tobytes() == want_p.tobytes()
        else:
            assert z_p is None
    assert zero_rows > 0



def test_stacked_matching_equals_per_row_reference():
    # one stacked product for all query rows, bitwise the per-row matvecs: zero
    # rows, repeated rows and near-ties between scaled copies included
    rng = make_rng(40)
    for trial in range(400):
        m, n = int(rng.integers(1, 16)), int(rng.integers(1, 24))
        d = int(rng.choice([2, 7, 300]))
        pool = rng.standard_normal((6, d)) * rng.choice([1e-3, 1.0, 1e3])
        pool[0] = 0.0
        pool[1] = 3.0 * pool[2]

        def rows(count):  # half from the pool, half fresh
            fresh = rng.standard_normal((count - count // 2, d))
            return np.vstack([pool[rng.integers(0, 6, size=count // 2)], fresh])

        own, cand = rows(m), rows(n)
        got = match_indices(own, cand)
        assert got.tobytes() == match_indices_reference(own, cand).tobytes(), trial


def oov_library(rng, dim):
    """A library with a zero row and two words sharing one vector."""
    lib = random_library(rng, n_words=30, dim=dim)
    matrix = lib.matrix.copy()
    matrix[3] = 0.0
    matrix[5] = matrix[4]
    return EmbeddingLibrary(lib.vocab, matrix)


@pytest.mark.parametrize("dim", [5, 300])
@pytest.mark.parametrize("biway", [False, True])
def test_gathered_sequences_equal_per_pair_matching(biway, dim):
    rng = make_rng(41 + dim)
    lib = oov_library(rng, dim)
    words = lib.words()[:10] + ["oovA", "oovB", "oovC"]  # repeats, and OOV tokens
    pairs = [
        # every neighbour within the window is OOV: zero rows on both sides
        SentencePair(("oovA", "oovB", "w3", "oovC", "oovA"), ("oovC", "oovB", "w1"), 1, 0),
        SentencePair(("w4", "w5", "w4"), ("w5", "w4", "oovA"), 2, 1),
    ]
    for i in range(80):
        prem = tuple(str(w) for w in rng.choice(words, size=int(rng.integers(1, 16))))
        hyp = tuple(str(w) for w in rng.choice(words, size=int(rng.integers(1, 10))))
        pairs.append(SentencePair(prem, hyp, label=1, id=i + 2))
    config = ModelConfig(embedding_dim=dim, k=1, biway=biway, oov_window=2)
    index = index_pairs(pairs, lib, config)
    assert index.table.dtype == np.float64 and len(index.hyp) == len(pairs)
    assert all(rows.dtype == np.int32 for rows in index.hyp + (index.prem or []))
    zero_rows = 0
    for pair, gathered in zip(pairs, index.sequences(range(len(pairs)))):
        want = augment_pair_reference(pair, lib, 2, biway)
        for got in (gathered, augment_pair(pair, lib, config)):
            assert got[0].tobytes() == want[0].tobytes() and got[0].shape == want[0].shape
            assert (got[1] is None) == (not biway)
            if biway:
                assert got[1].tobytes() == want[1].tobytes() and got[1].shape == want[1].shape
        zero_rows += int(np.sum(~want[0].any(axis=1)))
    assert zero_rows > 0


def test_embed_sentence_equals_reference():
    rng = make_rng(42)
    lib = oov_library(rng, 6)
    words = lib.words()[:8] + ["oovA", "oovB"]
    for window in (0, 1, 4):
        for _ in range(40):
            tokens = [str(w) for w in rng.choice(words, size=int(rng.integers(0, 12)))]
            got = embed_sentence(lib, tokens, window)
            assert got.shape == (len(tokens), 6)
            assert got.tobytes() == embed_sentence_reference(lib, tokens, window).tobytes()


def test_index_stores_each_distinct_row_once():
    lib = EmbeddingLibrary({"a": 0, "b": 1}, np.array([[1.0, 0.0], [0.0, 1.0]]))
    pairs = [SentencePair(("a", "x", "b"), ("a", "y", "a"), 1, 0),
             SentencePair(("q",), ("b", "a", "z"), 1, 1)]
    index = index_pairs(pairs, lib, ModelConfig(embedding_dim=2, k=1, oov_window=1))
    # rows a and b; the means for x (a and b) and for y and z (a alone, stored
    # apart from the library row it equals); the zero row for q
    assert len(index.table) == 5
    own = [rows[:, 0].tolist() for rows in index.hyp]
    assert own[0][0] == own[0][2] and own[0][1] == own[1][2] != own[0][0]
    assert int(np.sum(~index.table.any(axis=1))) == 1
