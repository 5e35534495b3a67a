"""Word -> vector lookup with padding and out-of-vocabulary policies.

Tables load from word2vec text or binary files, or are synthesized on the
fly by hashing words into deterministic pseudo-random vectors (a drop-in
substitute when no pre-trained table is available).
"""

from __future__ import annotations

import hashlib
import io
import logging
from pathlib import Path

import numpy as np

from .errors import FormatError
from .ndiff import DTYPE

logger = logging.getLogger(__name__)

PAD = "<pad>"

OOV_ZERO = "zero"
OOV_HASHED = "hashed"
OOV_POLICIES = (OOV_ZERO, OOV_HASHED)
FORMATS = ("text", "binary")  # word2vec file formats


def _hash_seed(seed: int, word: str) -> int:
    digest = hashlib.sha256(f"{seed}|{word}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class EmbeddingTable:
    """Immutable word-vector table of ``DTYPE`` vectors, the models' input;
    lookups are total functions.

    The pad token maps to the all-zero vector. Unknown words follow the
    out-of-vocabulary policy: ``zero`` or ``hashed`` (a unit-variance vector
    seeded by a stable hash of the word, identical across processes).
    """

    def __init__(self, dim, vocab=None, matrix=None, oov_policy=OOV_HASHED, seed=0):
        if dim < 1:
            raise FormatError(f"embedding dimension must be >= 1, got {dim}")
        if oov_policy not in OOV_POLICIES:
            raise FormatError(f"unknown OOV policy {oov_policy!r}")
        self.dim = int(dim)
        self.vocab: dict[str, int] = dict(vocab or {})
        if matrix is None:
            matrix = np.zeros((0, self.dim), dtype=DTYPE)
        self.matrix = np.asarray(matrix, dtype=DTYPE)
        if self.matrix.shape != (len(self.vocab), self.dim):
            raise FormatError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{len(self.vocab)} words x {self.dim} dims"
            )
        if self.matrix.size and not np.isfinite(self.matrix).all():
            raise FormatError("embedding matrix contains non-finite values")
        self.matrix.setflags(write=False)
        self.pad_vector = np.zeros(self.dim, dtype=DTYPE)
        self.pad_vector.setflags(write=False)
        self.oov_policy = oov_policy
        self.seed = int(seed)
        self.duplicate_words = 0

    def lookup(self, word: str) -> np.ndarray:
        """Vector for a word: stored row, pad vector, or OOV-policy vector.

        Exact match is tried first, then a lowercase fallback (tables vary in
        casing while biomedical case is often meaningful).
        """
        if word == PAD:
            return self.pad_vector
        idx = self.vocab.get(word)
        if idx is None:
            idx = self.vocab.get(word.lower())
        if idx is not None:
            return self.matrix[idx]
        if self.oov_policy == OOV_ZERO:
            return self.pad_vector
        rng = np.random.Generator(np.random.PCG64(_hash_seed(self.seed, word)))
        return rng.standard_normal(self.dim).astype(DTYPE)  # float64 draws, then rounded


def _read_header(line: bytes) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"expected 'vocab_size dim' header, got {line!r}")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"non-numeric header {line!r}") from None
    if count < 0 or dim < 1:
        raise FormatError(f"bad header values {count} x {dim}")
    return count, dim


def _read_text(stream, count: int, dim: int):
    """(word bytes, vector) of each ``word v1 .. vd`` line."""
    for row in range(1, count + 1):
        line = stream.readline()
        if not line.strip():
            raise FormatError(f"header declares {count} words, file has {row - 1}")
        parts = line.rstrip(b"\n").split()
        if len(parts) != dim + 1:
            raise FormatError(
                f"row for {parts[0]!r} has {len(parts) - 1} values, expected {dim}"
            )
        try:
            with np.errstate(over="raise"):
                vec = np.array(parts[1:]).astype(DTYPE)
        except ValueError:
            raise FormatError(f"non-numeric value in row {row} ({parts[0]!r})") from None
        except FloatingPointError:
            raise FormatError(f"value beyond float32 range in row {row} ({parts[0]!r})") from None
        yield parts[0], vec


def _read_binary(stream, count: int, dim: int):
    """(word bytes, vector) of each ``word `` + d float32 record. Each
    vector's size is checked against the bytes left before it is read, so a
    header cannot ask for more memory than the source holds."""
    row_bytes = 4 * dim
    here = stream.tell()
    end = stream.seek(0, io.SEEK_END)
    stream.seek(here)
    for row in range(count):
        word_bytes = bytearray()
        while True:
            ch = stream.read(1)
            if not ch:
                raise FormatError(f"header declares {count} words, file has {row}")
            if ch == b" ":
                break
            if ch != b"\n":  # tolerate newline between records
                word_bytes.extend(ch)
        left = end - stream.tell()
        if row_bytes > left:
            raise FormatError(
                f"truncated vector for {bytes(word_bytes)!r}: {dim} values need "
                f"{row_bytes} bytes, {left} left"
            )
        yield bytes(word_bytes), np.frombuffer(stream.read(row_bytes), dtype="<f4")


def _build_table(records, dim: int, oov_policy, seed) -> EmbeddingTable:
    """Table of (word bytes, vector) records; a duplicate word keeps its
    first vector and is counted on the table."""
    vocab: dict[str, int] = {}
    rows = []
    duplicates = 0
    for row, (raw_word, vec) in enumerate(records, start=1):
        try:
            word = raw_word.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"word in row {row} is not UTF-8: {raw_word!r}") from None
        if not np.isfinite(vec).all():
            raise FormatError(f"non-finite value in row for {word!r}")
        if word in vocab:
            duplicates += 1
            continue
        vocab[word] = len(rows)
        rows.append(vec)
    table = EmbeddingTable(
        dim=dim,
        vocab=vocab,
        matrix=np.stack(rows) if rows else None,
        oov_policy=oov_policy,
        seed=seed,
    )
    table.duplicate_words = duplicates
    return table


def load_table(source, format: str = "text", oov_policy: str = OOV_HASHED, seed: int = 0):
    """Load a word2vec table from a path or seekable binary stream.

    ``format`` is ``text`` (``word v1 .. vd`` lines after an ``N d`` header)
    or ``binary`` (same header, then ``word `` + d little-endian float32
    values per record). Duplicate words keep the first occurrence; the skip
    count is reported on the table.
    """
    if format not in FORMATS:
        raise FormatError(f"unknown embedding format {format!r}")
    reader = _read_text if format == "text" else _read_binary

    def load(stream) -> EmbeddingTable:
        count, dim = _read_header(stream.readline())
        return _build_table(reader(stream, count, dim), dim, oov_policy, seed)

    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            table = load(stream)
    else:
        table = load(source)
    if table.duplicate_words:
        logger.warning("%d duplicate words, kept first occurrence", table.duplicate_words)
    return table
