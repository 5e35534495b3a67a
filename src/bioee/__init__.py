"""Trigger-free bottom-up biomedical event extraction.

Pre-recognized entities get bi-directional LSTM context embeddings; a
one-vs-all classifier per argument role supplies role-conditioned entity
embeddings, which compose (by subtraction) into directed-event classifiers
with separate existence and direction heads. Includes standoff-format I/O,
a small numpy core with hand-written gradients and SGD, and a
cross-validation harness.
"""

from .corpus import (
    BB_SCHEMA,
    BGI_SCHEMA,
    Corpus,
    Document,
    Entity,
    Event,
    Sentence,
    TaskSchema,
    Token,
    load_corpus_dir,
    load_schema,
    parse_standoff,
    split_sentences,
    tokenize,
    write_standoff,
)
from .embed import PAD, EmbeddingTable, load_table
from .errors import BioeeError

__version__ = "0.1.0"

__all__ = [
    "BB_SCHEMA",
    "BGI_SCHEMA",
    "BioeeError",
    "Corpus",
    "Document",
    "EmbeddingTable",
    "Entity",
    "Event",
    "PAD",
    "Sentence",
    "TaskSchema",
    "Token",
    "__version__",
    "load_corpus_dir",
    "load_schema",
    "load_table",
    "parse_standoff",
    "split_sentences",
    "tokenize",
    "write_standoff",
]
