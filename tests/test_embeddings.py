import errno
import re
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import cosine, load_binary_oracle, scaled
from maxcosine import checkpoint, embeddings
from maxcosine.embeddings import (
    EmbeddingFormatError,
    EmbeddingLibrary,
    concat_libraries,
    embed_sentence,
    is_binary_format,
    load_binary_format,
    load_text_format,
    save_binary_format,
    save_text_format,
)
from maxcosine.numerics import make_rng


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# the fields a text line is drawn from: words, one with a space, numbers, non-finite
# numbers, invalid UTF-8, a lone CR, an empty field, or any few bytes
TEXT_FIELDS = st.sampled_from(
    [b"cat", "日本".encode(), b". .", b"0.5", b"-2e3", b"nan", b"inf", b"-1e999", b"1_0",
     b"\xff", b"\r", b""]
) | st.binary(max_size=4)


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

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_component_names_line(self, tmp_path, value):
        path = write(tmp_path / "e.txt", f"a 1.0 2.0\nb 1.0 {value}\n")
        with pytest.raises(EmbeddingFormatError,
                           match=re.escape(f"{path}:2: non-finite vector component")):
            load_text_format(path)

    def test_dropped_duplicate_is_not_read(self, tmp_path):
        lib = load_text_format(write(tmp_path / "e.txt", "a 1.0 2.0\na 1.0 inf\n"))
        assert np.array_equal(lib.matrix, [[1.0, 2.0]]) and lib.duplicates_dropped == 1

    def test_word_with_spaces(self, tmp_path):
        lib = load_text_format(
            write(tmp_path / "e.txt", "cat 0.1 0.2\n. . . 0.3 0.4\nat  x@y.com 0.5 0.6\n")
        )
        assert lib.words() == ["cat", ". . .", "at  x@y.com"]
        assert np.array_equal(lib.vector(". . ."), [0.3, 0.4])

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_bytes(b"cat 1.0 2.0\n\xff\xfe 3.0 4.0\n")
        with pytest.raises(EmbeddingFormatError, match=re.escape(f"{path}:2: not valid UTF-8")):
            load_text_format(path)

    @pytest.mark.parametrize("trailing", ["", " "], ids=["bare", "trailing-space"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_header_line_is_skipped(self, tmp_path, trailing, newline):
        path = tmp_path / "w2v.txt"
        path.write_bytes(word2vec_text(trailing=trailing, newline=newline))
        lib = load_text_format(path)
        plain = load_text_format(write(tmp_path / "plain.txt", "\n".join(WORD2VEC_LINES)))
        assert lib.vocab == plain.vocab and lib.matrix.tobytes() == plain.matrix.tobytes()

    def test_error_after_a_header_counts_the_header_line(self, tmp_path):
        path = write(tmp_path / "e.txt", "3 2\ncat 0.5 0.25\ndog 0.125\n")
        with pytest.raises(EmbeddingFormatError, match=re.escape(
                f"{path}:3: inconsistent dimension 1 (expected 2)")):
            load_text_format(path)

    def test_header_of_dimension_zero(self, tmp_path):
        path = write(tmp_path / "e.txt", "3 0\n1.5\n")
        with pytest.raises(EmbeddingFormatError,
                           match=re.escape(f"{path}:2: no vector components")):
            load_text_format(path)

    def test_raw_cr_inside_a_line_does_not_split_it(self, tmp_path):
        path = tmp_path / "cr.txt"
        path.write_bytes(b"a 1.0 2.0\nb\r1.0 2.0\nx\ry 3.0 4.0\n")
        lib = load_text_format(path)
        assert lib.words() == ["a", "b", "x\ry"]
        assert np.array_equal(lib.vector("x\ry"), [3.0, 4.0])
        path.write_bytes(b"a 1.0 2.0\nb\r1.0 2.0\nc 1.0\n")
        with pytest.raises(EmbeddingFormatError, match=re.escape(
                f"{path}:3: inconsistent dimension 1 (expected 2)")):
            load_text_format(path)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(body=st.lists(st.lists(TEXT_FIELDS, max_size=5).map(b" ".join), max_size=6).map(
        b"\n".join) | st.binary(max_size=100))
    def test_any_bytes_end_in_library_or_format_error(self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        path.write_bytes(body)
        try:
            lib = load_text_format(path)
        except EmbeddingFormatError as exc:
            assert str(path) in str(exc)
        else:
            assert len(lib) == len(lib.vocab) > 0 and lib.matrix.dtype == np.float64
            assert np.isfinite(lib.matrix).all()

    @pytest.mark.parametrize("line", ["dog 0.3", "dog 0.3 0.4 0.5", ". . . 0.3 0.4 0.5"])
    def test_wrong_field_count_names_line(self, tmp_path, line):
        # too few fields, or a number where a word with spaces would end
        path = write(tmp_path / "e.txt", f"cat 0.1 0.2\n\n{line}\n")
        with pytest.raises(EmbeddingFormatError, match=re.escape(f"{path}:3: inconsistent")):
            load_text_format(path)

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


    @pytest.mark.parametrize("first", ["a b", "a\tb", "", " a"])
    def test_save_rejects_unreadable_first_word(self, tmp_path, first):
        # the first line fixes d by a whitespace split, so its word must be one field
        lib = EmbeddingLibrary({first: 0, "c": 1}, np.ones((2, 2)))
        path = tmp_path / "out.txt"
        with pytest.raises(EmbeddingFormatError, match=re.escape(f"{path}: ")):
            save_text_format(lib, path)
        assert not path.exists()

    def test_round_trip_later_word_with_space(self, tmp_path):
        lib = EmbeddingLibrary({"cat": 0, ". . .": 1}, np.arange(4.0).reshape(2, 2))
        save_text_format(lib, tmp_path / "out.txt")
        back = load_text_format(tmp_path / "out.txt")
        assert back.vocab == lib.vocab and np.array_equal(back.matrix, lib.matrix)

    @pytest.mark.parametrize("later", ["a 1", "a\tb -2.5e3", "x nan", "a\nb", "a\rb", "tail ",
                                       " head", "", "\t", "\ud800"])
    def test_save_rejects_unreadable_later_word(self, tmp_path, later):
        lib = EmbeddingLibrary({"cat": 0, "b c": 1, later: 2}, np.ones((3, 2)))
        path = tmp_path / "later.txt"
        message = f"{path}: the text format cannot hold word 3, {later!r}"
        with pytest.raises(EmbeddingFormatError, match=re.escape(message)):
            save_text_format(lib, path)
        assert not path.exists()

    @settings(max_examples=300, deadline=None)
    @given(words=st.lists(st.text(max_size=6) | st.sampled_from(["a 1", "1", "x y", "é", "\x85"]),
                          min_size=1, max_size=6, unique=True),
           dim=st.integers(1, 3), data=st.data())
    def test_save_raises_or_loads_back_equal(self, tmp_path_factory, words, dim, data):
        values = data.draw(st.lists(st.floats(allow_nan=False), min_size=len(words) * dim,
                                    max_size=len(words) * dim))
        lib = EmbeddingLibrary({w: i for i, w in enumerate(words)},
                               np.array(values).reshape(len(words), dim))
        path = tmp_path_factory.getbasetemp() / "round_trip.txt"
        path.unlink(missing_ok=True)
        try:
            save_text_format(lib, path)
        except EmbeddingFormatError as exc:
            assert str(path) in str(exc) and not path.exists()
        else:
            back = load_text_format(path)
            assert back.vocab == lib.vocab and back.matrix.tobytes() == lib.matrix.tobytes()


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

    @pytest.mark.parametrize("header", ["0 300", "3 0"])
    def test_header_counts_below_one(self, tmp_path, header):
        path = tmp_path / "e.bin"
        path.write_bytes(f"{header}\n".encode() + b"w " + struct.pack("<3f", 1.0, 2.0, 3.0))
        with pytest.raises(EmbeddingFormatError,
                           match=re.escape(f"{path}: bad header counts {header}")):
            load_binary_format(path)

    @pytest.mark.parametrize("header", [b"+3 2", b"1_0 2", b"-1 2", b"3", b"3 2 1", b"3 \xd9\xa2"])
    def test_header_not_two_digit_fields(self, tmp_path, header):
        path = tmp_path / "e.bin"
        path.write_bytes(header + b"\nw " + struct.pack("<2f", 1.0, 2.0))
        with pytest.raises(EmbeddingFormatError,
                           match=re.escape(f"{path}: malformed header {header!r}")):
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

    def test_messages_number_records_by_file_position(self, tmp_path):
        # records 0 and 1 are the same word; the dropped duplicate still counts
        vec = struct.pack("<2f", 1.0, 2.0)
        body = b"a " + vec + b"\na " + vec + b"\n"
        path = tmp_path / "e.bin"
        for count, tail, message in ((3, b"\xff " + vec[:4], "truncated vector at record 2"),
                                     (4, b"\xff " + vec + b"\nbbbbbbb", "truncated at record 3")):
            path.write_bytes(f"{count} 2\n".encode() + body + tail)
            for load in (load_binary_format, load_binary_oracle):
                with pytest.warns(UserWarning, match="invalid UTF-8 in word at record 2;"):
                    with pytest.raises(EmbeddingFormatError, match=message):
                        load(path)

    @pytest.mark.parametrize("block", [1, 9, 1 << 16])
    def test_non_finite_component_names_record(self, tmp_path, block):
        # record 1 repeats record 0's word and is dropped unchecked; record 3 is kept
        vec = struct.pack("<2f", 1.0, 2.0)
        bad = struct.pack("<2f", 1.0, float("inf"))
        path = tmp_path / "e.bin"
        path.write_bytes(b"4 2\na " + vec + b"\na " + bad + b"\nb " + vec + b"\nc " + bad)
        for load in (load_binary_format, load_binary_oracle):
            with mock.patch.object(embeddings, "_BLOCK", block):
                with pytest.raises(EmbeddingFormatError,
                                   match=re.escape(f"{path}: non-finite vector component at "
                                                   "record 3")):
                    load(path)
        path.write_bytes(b"2 2\na " + vec + b"\na " + bad)
        assert np.array_equal(load_binary_format(path).matrix, [[1.0, 2.0]])

    def test_round_trip_float32(self, tmp_path):
        rng = make_rng(2)
        words = [f"w{i}" for i in range(6)]
        matrix = rng.standard_normal((6, 5)).astype(np.float32).astype(np.float64)
        lib = EmbeddingLibrary({w: i for i, w in enumerate(words)}, matrix)
        save_binary_format(lib, tmp_path / "out.bin")
        back = load_binary_format(tmp_path / "out.bin")
        assert back.vocab == lib.vocab
        assert np.array_equal(back.matrix, lib.matrix)

    def test_save_rejects_word_with_space(self, tmp_path):
        lib = EmbeddingLibrary({"a": 0, ". . .": 1}, np.ones((2, 2)))
        with pytest.raises(EmbeddingFormatError, match="space"):
            save_binary_format(lib, tmp_path / "out.bin")
        assert not (tmp_path / "out.bin").exists()

    @pytest.mark.parametrize("word", ["a\nb", "\nx"])
    def test_save_rejects_word_with_lf(self, tmp_path, word):
        lib = EmbeddingLibrary({"a": 0, word: 1}, np.ones((2, 2)))
        path = tmp_path / "out.bin"
        message = f"{path}: the binary format cannot hold word 2, {word!r}: it holds a space or LF"
        with pytest.raises(EmbeddingFormatError, match=re.escape(message)):
            save_binary_format(lib, path)
        assert not path.exists()

    @pytest.mark.parametrize("block", [1, 1 << 16])
    def test_text_file_with_a_blank_line_after_its_header_is_an_error(self, tmp_path, block):
        # the blank line's LF would begin the first record's word, b"\ncat"
        path = write(tmp_path / "e.txt", "3 2\n\ncat 0.5 0.25\ndog 0.1 0.2\nbird 0.3 0.4\n")
        with mock.patch.object(embeddings, "_BLOCK", block):
            with pytest.raises(EmbeddingFormatError,
                               match=re.escape(f"{path}: LF in the word of record 0")):
                load_binary_format(path)


# a word2vec/fastText text library: these GloVe lines after a `|V| d` header
WORD2VEC_LINES = ["cat 0.5 0.25", "dog 0.125 1.0", "bird 2.0 -1.0"]


def word2vec_text(trailing="", newline="\n") -> bytes:
    return "".join(line + trailing + newline for line in ["3 2", *WORD2VEC_LINES]).encode()


def binary_records(header: bytes) -> bytes:
    return header + b"".join(w.encode() + b" " + struct.pack("<2f", 1.0, -2.0) + b"\n"
                             for w in ("cat", "dog", "bird"))


class TestFormatDetection:
    @pytest.mark.parametrize("body, binary", [
        pytest.param("\n".join(WORD2VEC_LINES).encode(), False, id="glove"),
        pytest.param(word2vec_text(), False, id="word2vec-text"),
        pytest.param(word2vec_text(trailing=" "), False, id="word2vec-text-trailing-space"),
        pytest.param(word2vec_text(newline="\r\n"), False, id="word2vec-text-crlf"),
        pytest.param(word2vec_text(trailing=" ", newline="\r\n"), False,
                     id="word2vec-text-trailing-space-crlf"),
        pytest.param(b"3 2\n\n" + "\n".join(WORD2VEC_LINES).encode(), False,
                     id="word2vec-text-blank-line-after-header"),
        pytest.param(("3 2\n\x1c\u2028\n" + "\n".join(WORD2VEC_LINES)).encode(), False,
                     id="word2vec-text-unicode-blank-line-after-header"),
        pytest.param(b"3 2\n \r\n\n", True, id="only-blank-lines-after-header"),
        pytest.param(b"3 2\n\xff\xfe 0.5 0.25\n", True, id="not-utf8-after-header"),
        pytest.param(b"3 2\ncat 0.5\n", True, id="too-few-numbers-after-header"),
        pytest.param(binary_records(b"3 2\n"), True, id="binary"),
        pytest.param(binary_records(b"3 2 \n"), True, id="binary-header-trailing-space"),
        pytest.param(binary_records(b"3 2\r\n"), True, id="binary-header-crlf"),
        pytest.param(b"", False, id="empty"),
    ])
    def test_format_of_each_layout(self, tmp_path, body, binary):
        path = tmp_path / "library"
        path.write_bytes(body)
        assert is_binary_format(path) is binary

    @pytest.mark.parametrize("dim", [1, 2, 8])
    def test_saved_binary_files_read_as_binary(self, tmp_path, dim):
        rng = make_rng(dim)
        words = [f"w{i}" for i in range(20)]
        for matrix in (rng.standard_normal((20, dim)), np.zeros((20, dim)), np.ones((20, dim))):
            lib = EmbeddingLibrary({w: i for i, w in enumerate(words)}, matrix)
            save_binary_format(lib, tmp_path / "out.bin")
            assert is_binary_format(tmp_path / "out.bin")


# the pieces a record's word is drawn from: ASCII, non-ASCII, invalid UTF-8 (a lone
# continuation byte, a cut-off lead byte, an encoded surrogate), LF and NUL
WORD_PIECES = [
    b"a", b"b", b"cat", "é".encode(), "日本".encode(), b"\x80", b"\xc3", b"\xed\xa0\x80", b"\n", b"\x00"
]


@st.composite
def binary_files(draw, max_records=12, well_formed=True):
    """A binary embedding file: a header, then records whose words may repeat and
    whose LF separator is present or not. Unless not `well_formed`, no word holds
    an LF and every vector is finite."""
    dim = draw(st.integers(1, 4))
    pieces = [p for p in WORD_PIECES if p != b"\n"] if well_formed else WORD_PIECES
    pool = draw(st.lists(st.lists(st.sampled_from(pieces), max_size=3).map(b"".join),
                         min_size=1, max_size=6))
    vectors = st.lists(
        st.floats(width=32, allow_nan=not well_formed, allow_infinity=not well_formed),
        min_size=dim, max_size=dim,
    ).map(lambda v: struct.pack(f"<{dim}f", *v))
    if not well_formed:
        vectors |= st.binary(min_size=4 * dim, max_size=4 * dim)
    records = draw(st.lists(st.tuples(st.sampled_from(pool), vectors, st.booleans()),
                            min_size=1, max_size=max_records))
    body = b"".join(w + b" " + v + (b"\n" if lf else b"") for w, v, lf in records)
    return f"{len(records)} {dim}\n".encode() + body


def outcome(load, path):
    """What a loader made of a file: the library or the error, and the loader's own
    warnings (numpy's cast warning for a signalling NaN depends on which rows it casts)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            lib = load(path)
        except EmbeddingFormatError as exc:
            result = ("error", str(exc))
        else:
            result = (lib.vocab, lib.matrix.tobytes(), lib.matrix.shape, lib.duplicates_dropped)
    return result, [str(w.message) for w in caught if w.category is UserWarning]


class TestBinaryAgainstOracle:
    """`load_binary_format` reads in blocks; the byte-at-a-time reader in helpers is
    the reference it must equal, errors and warnings included."""

    @settings(max_examples=200, deadline=None)
    @given(data=binary_files(), block=st.integers(1, 64))
    def test_equals_oracle_on_well_formed_files(self, tmp_path_factory, data, block):
        path = tmp_path_factory.getbasetemp() / "well_formed.bin"
        path.write_bytes(data)
        with mock.patch.object(embeddings, "_BLOCK", block):
            got = outcome(load_binary_format, path)
        assert got == outcome(load_binary_oracle, path)
        assert got[0][0] != "error"

    def test_equals_oracle_across_default_blocks(self, tmp_path):
        rng = make_rng(4)
        dim = 300
        pool = [f"w{i}".encode() for i in range(200)] + ["é日".encode(), b"\xff\xfe", b""]
        chunks = [b"1100 300\n"]
        for _ in range(1100):
            word = pool[int(rng.integers(len(pool)))]
            vec = rng.standard_normal(dim).astype("<f4").tobytes()
            chunks.append(word + b" " + vec + (b"\n" if rng.random() < 0.5 else b""))
        path = tmp_path / "big.bin"
        path.write_bytes(b"".join(chunks))
        assert path.stat().st_size > embeddings._BLOCK
        got = outcome(load_binary_format, path)
        assert got == outcome(load_binary_oracle, path)
        (vocab, _, _, dupes), warned = got
        assert dupes > 0 and "é日" in vocab and warned

    @settings(max_examples=300, deadline=None)
    @given(data=binary_files(max_records=5, well_formed=False),
           edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=3),
           cut=st.none() | st.integers(0, 200), block=st.integers(1, 64))
    def test_damaged_file_ends_in_library_or_format_error(
        self, tmp_path_factory, data, edits, cut, block
    ):
        # outcome() lets any error but EmbeddingFormatError through, failing the test
        data = bytearray(data)
        for i, byte in edits:
            data[i % len(data)] = byte
        path = tmp_path_factory.getbasetemp() / "damaged.bin"
        path.write_bytes(bytes(data[:cut]))
        with mock.patch.object(embeddings, "_BLOCK", block):
            got = outcome(load_binary_format, path)
        assert got == outcome(load_binary_oracle, path)
        if got[0][0] == "error":
            assert str(path) in got[0][1]


# 1e39 is finite in float64, which the text format keeps, but not in float32
@pytest.mark.parametrize("save, fmt, value", [
    (save_binary_format, "binary", np.inf), (save_binary_format, "binary", np.nan),
    (save_binary_format, "binary", 1e39), (save_text_format, "text", -np.inf),
    (save_text_format, "text", np.nan),
])
def test_save_rejects_non_finite_vector(tmp_path, save, fmt, value):
    lib = EmbeddingLibrary({"a": 0, "b": 1}, np.array([[1.0, 2.0], [value, 0.0]]))
    path = tmp_path / f"out.{fmt}"
    with pytest.raises(EmbeddingFormatError, match=re.escape(
            f"{path}: the {fmt} format cannot hold word 2, 'b': its vector is not finite")):
        save(lib, path)
    assert not path.exists()


class FailingWrites:
    """A binary file whose writes after the first `allowed` raise, as on a full disk."""

    def __init__(self, path, mode, allowed):
        self.fh, self.allowed = open(path, mode), allowed

    def write(self, data):
        if self.allowed == 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.allowed -= 1
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


# writes of one record: a text line; the binary header, then word, vector and newline
@pytest.mark.parametrize("save, writes", [(save_text_format, 1), (save_binary_format, 4)])
def test_save_failing_midway_keeps_the_earlier_file(tmp_path, monkeypatch, save, writes):
    lib = EmbeddingLibrary({"a": 0, "b": 1}, np.array([[1.0, 2.0], [3.0, 4.0]]))
    path = tmp_path / "out.emb"
    path.write_bytes(b"an earlier library")
    monkeypatch.setattr(
        checkpoint, "open", lambda p, mode: FailingWrites(p, mode, writes), raising=False
    )
    with pytest.raises(OSError, match="No space left"):
        save(lib, path)
    assert path.read_bytes() == b"an earlier library"
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left


@pytest.mark.parametrize("vocab, matrix, message", [
    ({"a": 0}, np.ones(2), "matrix must be |V| x d with d > 0"),
    ({"a": 0}, np.ones((1, 0)), "matrix must be |V| x d with d > 0"),
    ({"a": 0}, np.ones((2, 2)), "vocab size does not match matrix row count"),
    ({"a": 0, "b": 0}, np.ones((2, 2)), "vocab indices must be dense and unique"),
])
def test_library_rejects_an_inconsistent_table(vocab, matrix, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        EmbeddingLibrary(vocab, matrix)


def test_scaled_keeps_duplicates_dropped():
    lib = EmbeddingLibrary({"a": 0}, np.ones((1, 2)), duplicates_dropped=3)
    doubled = scaled(lib, 2.0)
    assert doubled.duplicates_dropped == 3
    assert np.array_equal(doubled.matrix, [[2.0, 2.0]])


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


def concat_loop(a, b):
    """concat_libraries as a loop over the union's words, the oracle."""
    words = a.words() + [w for w in b.words() if w not in a.vocab]
    matrix = np.zeros((len(words), a.dim + b.dim))
    vocab = {}
    for i, w in enumerate(words):
        vocab[w] = i
        if w in a.vocab:
            matrix[i, : a.dim] = a.vector(w)
        if w in b.vocab:
            matrix[i, a.dim :] = b.vector(w)
    return EmbeddingLibrary(vocab, matrix)


@st.composite
def library_pairs(draw):
    """Two libraries over one small word pool, so their vocabularies overlap,
    are disjoint or are equal; each vocabulary dict is in a drawn order."""
    pool = [f"w{i}" for i in range(8)]
    libs = []
    for dim in (draw(st.integers(1, 3)), draw(st.integers(1, 3))):
        words = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
        items = draw(st.permutations(list(zip(words, range(len(words))))))
        values = draw(st.lists(st.floats(-4, 4), min_size=len(words) * dim,
                               max_size=len(words) * dim))
        libs.append(EmbeddingLibrary(dict(items), np.reshape(values, (len(words), dim))))
    same = draw(st.booleans())
    if same:  # identical vocabularies, in a different order
        b = libs[1]
        words = libs[0].words()
        libs[1] = EmbeddingLibrary({w: i for i, w in reversed(list(enumerate(words)))},
                                   np.resize(b.matrix, (len(words), b.dim)))
    return libs


@settings(max_examples=200, deadline=None)
@given(libs=library_pairs())
def test_concat_equals_word_loop(libs):
    a, b = libs
    got, want = concat_libraries(a, b), concat_loop(a, b)
    assert list(got.vocab.items()) == list(want.vocab.items())
    assert got.matrix.tobytes() == want.matrix.tobytes()


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
