"""Embedding table loading, padding, and OOV policies."""

import io
import struct
import subprocess
import sys

import numpy as np
import pytest

from bioee.embed import (
    OOV_ZERO,
    PAD,
    EmbeddingTable,
    _hash_seed,
    load_table,
)
from bioee.errors import FormatError


def _text_stream(lines):
    return io.BytesIO("\n".join(lines).encode("utf-8") + b"\n")


class TestLoadText:
    def test_three_words_dim_four(self):
        table = load_table(
            _text_stream(["3 4", "alpha 1 2 3 4", "beta 0 0 0 1", "gamma -1 0.5 0 2"])
        )
        assert len(table.vocab) == 3
        assert table.dim == 4
        np.testing.assert_allclose(table.lookup("beta"), [0, 0, 0, 1])
        # Parsed straight to float32: 0.1 is the float32 nearest to 1/10.
        table = load_table(_text_stream(["1 2", "alpha 0.1 -1e-3"]))
        assert table.matrix.dtype == np.float32
        assert table.matrix.tobytes() == np.array([[0.1, -1e-3]], dtype=np.float32).tobytes()

    def test_declared_count_exceeds_rows(self):
        with pytest.raises(FormatError, match="header declares 5"):
            load_table(_text_stream(["5 2", "a 1 2", "b 3 4", "c 5 6", "d 7 8"]))

    def test_row_dim_mismatch(self):
        with pytest.raises(FormatError, match="expected 3"):
            load_table(_text_stream(["2 3", "a 1 2 3", "b 1 2"]))

    def test_non_finite_value(self):
        with pytest.raises(FormatError, match="non-finite"):
            load_table(_text_stream(["1 2", "a 1 inf"]))
        with pytest.raises(FormatError, match="beyond float32 range in row 1"):
            load_table(_text_stream(["1 2", "a 1 -4e38"]))

    def test_non_numeric_value(self):
        with pytest.raises(FormatError, match="non-numeric value in row 2"):
            load_table(_text_stream(["2 2", "a 1 2", "b 3 four"]))

    def test_word_not_utf8(self):
        with pytest.raises(FormatError, match="row 1 is not UTF-8"):
            load_table(io.BytesIO(b"1 2\n\xff\xfe 1 2\n"))

    def test_duplicates_keep_first(self):
        table = load_table(_text_stream(["3 2", "a 1 2", "a 9 9", "b 3 4"]))
        assert table.duplicate_words == 1
        np.testing.assert_allclose(table.lookup("a"), [1, 2])

    def test_bad_header(self):
        with pytest.raises(FormatError):
            load_table(_text_stream(["not a header", "a 1 2"]))


class TestLoadBinary:
    def _binary_stream(self, entries, dim, header_count=None):
        buf = io.BytesIO()
        buf.write(f"{header_count if header_count is not None else len(entries)} {dim}\n".encode())
        for word, vec in entries:
            buf.write(word.encode("utf-8") + b" ")
            buf.write(struct.pack(f"<{dim}f", *vec))
            buf.write(b"\n")
        buf.seek(0)
        return buf

    def test_round_trip(self):
        stream = self._binary_stream([("cotB", [1.5, -2.0]), ("gerE", [0.25, 4.0])], dim=2)
        table = load_table(stream, format="binary")
        np.testing.assert_allclose(table.lookup("cotB"), [1.5, -2.0])
        np.testing.assert_allclose(table.lookup("gerE"), [0.25, 4.0])

    def test_rows_are_the_written_float32_bits(self):
        f32 = np.finfo(np.float32)
        rows = np.random.default_rng(5).standard_normal((3, 6)).astype(np.float32)
        rows[0, :4] = [f32.max, f32.smallest_subnormal, -0.0, 1.0 + f32.eps]
        stream = self._binary_stream(list(zip(("cotB", "gerE", "sigK"), rows)), dim=6)
        table = load_table(stream, format="binary")
        assert table.matrix.dtype == np.float32
        assert table.matrix.tobytes() == rows.tobytes()

    def test_truncated_file(self):
        stream = self._binary_stream([("a", [1.0, 2.0])], dim=2, header_count=2)
        with pytest.raises(FormatError):
            load_table(stream, format="binary")
        whole = self._binary_stream([("a", [1.0, 2.0])], dim=2).getvalue()
        with pytest.raises(FormatError, match="truncated vector"):
            load_table(io.BytesIO(whole[:-4]), format="binary")  # ends inside the vector

    def test_oversized_header_dim_is_refused_before_reading(self, tmp_path):
        path = tmp_path / "huge.bin"
        path.write_bytes(b"1 1000000000000\ncotB " + struct.pack("<2f", 1.0, 2.0))
        with pytest.raises(FormatError, match="need 4000000000000 bytes, 8 left"):
            load_table(path, format="binary")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value(self, bad):
        stream = self._binary_stream([("cotB", [1.0, 2.0]), ("gerE", [bad, 0.5])], dim=2)
        with pytest.raises(FormatError, match="non-finite value in row for 'gerE'"):
            load_table(stream, format="binary")

    def test_word_not_utf8(self):
        records = [b"ok " + struct.pack("<f", 1.0), b"\xff " + struct.pack("<f", 2.0)]
        stream = io.BytesIO(b"2 1\n" + b"\n".join(records))
        with pytest.raises(FormatError, match="row 2 is not UTF-8"):
            load_table(stream, format="binary")

    def test_unknown_format(self):
        with pytest.raises(FormatError):
            load_table(_text_stream(["1 1", "a 1"]), format="parquet")


class TestLookup:
    def test_pad_is_zero(self):
        table = EmbeddingTable(16, seed=7)
        np.testing.assert_array_equal(table.lookup(PAD), np.zeros(16))

    def test_oov_hashed_is_deterministic(self):
        table = EmbeddingTable(16, seed=7)
        drawn = np.random.Generator(np.random.PCG64(_hash_seed(7, "cotB"))).standard_normal(16)
        drawn = drawn.astype(np.float32)  # drawn in float64, returned rounded
        assert table.lookup("cotB").tobytes() == table.lookup("cotB").tobytes() == drawn.tobytes()

    def test_different_seeds_differ(self):
        a = EmbeddingTable(16, seed=1).lookup("cotB")
        b = EmbeddingTable(16, seed=2).lookup("cotB")
        assert not np.allclose(a, b)

    def test_zero_policy(self):
        table = EmbeddingTable(dim=8, oov_policy=OOV_ZERO)
        np.testing.assert_array_equal(table.lookup("unseen"), np.zeros(8))

    def test_lowercase_fallback_after_exact(self):
        table = load_table(_text_stream(["2 2", "CotB 1 1", "cotb 2 2"]))
        np.testing.assert_allclose(table.lookup("CotB"), [1, 1])
        np.testing.assert_allclose(table.lookup("COTB"), [2, 2])  # falls back to lowercase

    def test_same_seed_same_vector_across_processes(self):
        table = EmbeddingTable(4, seed=11)
        code = (
            "import numpy as np; from bioee.embed import EmbeddingTable; "
            "print(repr(EmbeddingTable(4, seed=11).lookup('gerE').tolist()))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        np.testing.assert_array_equal(table.lookup("gerE"), np.array(eval(out.stdout)))


class TestHashedTable:
    def test_total_lookup_function(self):
        table = EmbeddingTable(16, seed=7)
        for word in ["cotB", "", "x" * 100, "UPPER", "with space"]:
            vec = table.lookup(word)
            assert vec.shape == (16,)
            assert np.isfinite(vec).all()

    def test_component_moments_over_10k_words(self):
        table = EmbeddingTable(8, seed=3)
        vals = np.concatenate([table.lookup(f"word{i}") for i in range(10_000)])
        assert abs(vals.mean()) < 0.05
        assert abs(vals.var() - 1.0) < 0.05

    def test_collision_rate_under_one_in_a_thousand(self):
        table = EmbeddingTable(8, seed=3)
        keys = {tuple(np.round(table.lookup(f"word{i}"), 12)) for i in range(10_000)}
        assert len(keys) >= 10_000 * 0.999


class TestTableInvariants:
    def test_matrix_shape_validation(self):
        with pytest.raises(FormatError):
            EmbeddingTable(dim=3, vocab={"a": 0}, matrix=np.zeros((2, 3)))

    def test_dim_must_be_positive(self):
        with pytest.raises(FormatError):
            EmbeddingTable(dim=0)

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(FormatError):
            EmbeddingTable(dim=2, vocab={"a": 0}, matrix=np.array([[1.0, np.nan]]))
