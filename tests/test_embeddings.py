import re
import struct

import numpy as np
import pytest

from maxcosine.embeddings import (
    EmbeddingFormatError,
    EmbeddingLibrary,
    concat_libraries,
    cosine,
    embed_sentence,
    load_binary_format,
    load_text_format,
    save_binary_format,
    save_text_format,
)
from maxcosine.numerics import make_rng


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestTextFormat:
    def test_basic_load(self, tmp_path):
        lib = load_text_format(write(tmp_path / "e.txt", "cat 0.1 0.2\ndog 0.3 0.4"))
        assert len(lib) == 2 and lib.dim == 2
        assert np.allclose(lib.vector("dog"), [0.3, 0.4])

    def test_first_occurrence_wins(self, tmp_path):
        lib = load_text_format(write(tmp_path / "e.txt", "cat 0.1 0.2\ncat 9 9"))
        assert len(lib) == 1
        assert np.allclose(lib.vector("cat"), [0.1, 0.2])
        assert lib.duplicates_dropped == 1

    def test_inconsistent_dimension(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="inconsistent"):
            load_text_format(write(tmp_path / "e.txt", "cat 0.1\ndog 0.3 0.4"))

    def test_non_numeric_field(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="non-numeric"):
            load_text_format(write(tmp_path / "e.txt", "cat 0.1 oops"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="empty"):
            load_text_format(write(tmp_path / "e.txt", ""))

    def test_expected_dim_mismatch(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="expected"):
            load_text_format(write(tmp_path / "e.txt", "cat 0.1 0.2"), expected_dim=5)

    def test_round_trip(self, tmp_path):
        rng = make_rng(0)
        words = [f"w{i}" for i in range(10)]
        lib = EmbeddingLibrary(
            {w: i for i, w in enumerate(words)}, rng.standard_normal((10, 4))
        )
        save_text_format(lib, tmp_path / "out.txt")
        back = load_text_format(tmp_path / "out.txt")
        assert back.vocab == lib.vocab
        assert np.max(np.abs(back.matrix - lib.matrix)) < 1e-12


class TestBinaryFormat:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "e.bin"
        with open(path, "wb") as fh:
            fh.write(b"2 3\n")
            fh.write(b"cat " + struct.pack("<3f", 1.0, 2.0, 3.0) + b"\n")
            fh.write(b"dog " + struct.pack("<3f", 4.0, 5.0, 6.0) + b"\n")
        lib = load_binary_format(path)
        assert len(lib) == 2 and lib.dim == 3
        assert np.allclose(lib.vector("cat"), [1.0, 2.0, 3.0])

    def test_ieee754_value(self, tmp_path):
        path = tmp_path / "e.bin"
        with open(path, "wb") as fh:
            fh.write(b"1 1\nw " + bytes([0x00, 0x00, 0x80, 0x3F]))
        assert load_binary_format(path).vector("w")[0] == 1.0

    def test_truncated(self, tmp_path):
        path = tmp_path / "e.bin"
        with open(path, "wb") as fh:
            fh.write(b"2 3\n")
            fh.write(b"cat " + struct.pack("<3f", 1.0, 2.0, 3.0))
        with pytest.raises(EmbeddingFormatError, match="truncated"):
            load_binary_format(path)

    def test_header_count_beyond_file_size(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"1000000000000 300\nw " + struct.pack("<300f", *range(300)))
        with pytest.raises(EmbeddingFormatError, match=re.escape(str(path))):
            load_binary_format(path)

    def test_invalid_utf8_replaced(self, tmp_path):
        path = tmp_path / "e.bin"
        with open(path, "wb") as fh:
            fh.write(b"1 2\n\xff\xfe " + struct.pack("<2f", 1.0, 2.0))
        with pytest.warns(UserWarning, match="invalid UTF-8"):
            lib = load_binary_format(path)
        assert len(lib) == 1

    def test_round_trip_float32(self, tmp_path):
        rng = make_rng(2)
        words = [f"w{i}" for i in range(6)]
        matrix = rng.standard_normal((6, 5)).astype(np.float32).astype(np.float64)
        lib = EmbeddingLibrary({w: i for i, w in enumerate(words)}, matrix)
        save_binary_format(lib, tmp_path / "out.bin")
        back = load_binary_format(tmp_path / "out.bin")
        assert back.vocab == lib.vocab
        assert np.array_equal(back.matrix, lib.matrix)


class TestCosine:
    def test_self_similarity(self):
        v = np.array([0.2, -1.4, 3.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_analytic_value(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
            1 / np.sqrt(2), abs=1e-12
        )

    def test_zero_norm_convention(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(2), np.zeros(3))

    def test_range_symmetry_and_scale_invariance(self):
        rng = make_rng(5)
        for _ in range(200):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            c = cosine(x, y)
            assert -1 - 1e-12 <= c <= 1 + 1e-12
            assert c == cosine(y, x)
            assert cosine(3.7 * x, y) == pytest.approx(c, abs=1e-12)


class TestConcat:
    def build(self):
        a = EmbeddingLibrary({"x": 0, "y": 1}, np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = EmbeddingLibrary({"y": 0, "z": 1}, np.array([[5.0, 6.0, 7.0], [8.0, 9.0, 10.0]]))
        return a, b

    def test_dims_add(self):
        a, b = self.build()
        assert concat_libraries(a, b).dim == 5

    def test_word_in_one_side_zero_filled(self):
        a, b = self.build()
        lib = concat_libraries(a, b)
        assert np.array_equal(lib.vector("x"), [1, 2, 0, 0, 0])
        assert np.array_equal(lib.vector("z"), [0, 0, 8, 9, 10])

    def test_order_a_then_b(self):
        a, b = self.build()
        assert np.array_equal(concat_libraries(a, b).vector("y"), [3, 4, 5, 6, 7])

    def test_preserves_per_half_dot_products(self):
        rng = make_rng(9)
        words = [f"w{i}" for i in range(8)]
        a = EmbeddingLibrary({w: i for i, w in enumerate(words)}, rng.standard_normal((8, 3)))
        b = EmbeddingLibrary({w: i for i, w in enumerate(words)}, rng.standard_normal((8, 4)))
        lib = concat_libraries(a, b)
        for u in words[:4]:
            for v in words[4:]:
                expected = np.dot(a.vector(u), a.vector(v)) + np.dot(b.vector(u), b.vector(v))
                assert np.dot(lib.vector(u), lib.vector(v)) == pytest.approx(expected, abs=1e-12)


class TestOovLookup:
    def lib(self):
        return EmbeddingLibrary(
            {"a": 0, "b": 1}, np.array([[1.0, 0.0], [0.0, 1.0]])
        )

    def test_in_vocab(self):
        rows = embed_sentence(self.lib(), ["a", "x"])
        assert np.array_equal(rows[0], [1.0, 0.0])

    def test_oov_averages_neighbors(self):
        rows = embed_sentence(self.lib(), ["a", "x", "b"], window=2)
        assert np.allclose(rows[1], [0.5, 0.5])

    def test_all_neighbors_oov(self):
        rows = embed_sentence(self.lib(), ["q", "x", "r"], window=2)
        assert np.array_equal(rows, np.zeros((3, 2)))

    def test_window_limits_neighbors(self):
        # "a" sits outside the +-1 window of position 2
        rows = embed_sentence(self.lib(), ["a", "q", "x", "b"], window=1)
        assert np.allclose(rows[2], [0.0, 1.0])
