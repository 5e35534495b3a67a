"""Finite-difference verification of the hand-written gradients: the LSTM's
BPTT, the loss, and both full model losses on miniature instances, each
through the same function training calls. The models are cast to float64,
which every op then computes in, so central differences resolve.

Inputs are sampled away from the relu kink and the loss's clamp bounds so
central differences stay valid at eps=1e-5.
"""

from __future__ import annotations

import numpy as np

from . import ndiff, vecent, vecom


def _signed_uniform(rng, shape, lo=0.2, hi=0.9):
    mag = rng.uniform(lo, hi, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def _lstm_check(cell: ndiff.DenseParams, *inputs: np.ndarray):
    """1.1 times the sum of ``lstm_last``'s output over ``inputs``, against
    the cell."""

    def loss_and_grads():
        cache = {}
        h = ndiff.lstm_last(cell, *inputs, cache=cache)
        grads = ndiff.lstm_bptt(cell, cache, np.full_like(h, 1.1))
        return (h * 1.1).sum(), dict(zip(("cell.A", "cell.b"), grads))

    return loss_and_grads, cell.params("cell")


def checks(rng) -> dict:
    """Name -> (loss_and_grads, parameters) of every check."""
    out = {}
    cell = ndiff.init_lstm(rng, 3, 4).astype(np.float64)
    # Three steps of two rows with no zero step, so no row is packed. In
    # this check and the next, each slot is its own word: the identity id map.
    batch = np.arange(6).reshape(3, 2)
    out["lstm_last_batch"] = _lstm_check(cell, batch, _signed_uniform(rng, (6, 3)))
    # Constant steps whose rows have 1, T-1, 0 and T leading zero steps
    # (T = 4), so lstm_last packs the rows and starts them from its pad chain.
    leads = np.array([1, 3, 0, 4])
    live = np.arange(4)[:, None, None] >= leads[:, None]
    steps = (_signed_uniform(rng, (4, leads.size, 3)) * live).reshape(-1, 3)
    out["lstm_last_padded"] = _lstm_check(cell, np.arange(16).reshape(4, 4), steps)

    logits = _signed_uniform(rng, (5, 1))
    bce_labels = np.array([[1.0], [0.0], [1.0], [1.0], [0.0]])

    def bce_loss_and_grads():
        p = ndiff.logistic(logits)
        loss, dp = ndiff.weighted_bce(bce_labels, p, 0.8, 0.2)
        return loss, {"logits": dp * p * (1.0 - p)}

    out["weighted_bce"] = (bce_loss_and_grads, {"logits": logits})

    # The full argument-classifier loss (u=3, hidden=6), with one fixed
    # dropout mask of rate 0.25.
    u, dim, hidden, mlp_hidden = 3, 4, 6, 5
    arg_model = vecent.new_argument_model(
        "check", embed_dim=dim, lstm_hidden=hidden, mlp_hidden=mlp_hidden, rng=rng
    ).astype(np.float64)
    # Three windows, each slot its own word: the identity id map into the
    # (3, 2, u+1, dim) vectors, of which all left halves are drawn, then all right.
    slots = np.stack([rng.standard_normal((3, u + 1, dim)) for _ in range(2)], axis=1)
    window_ids = np.arange(slots.size // dim).reshape(slots.shape[:3])
    window_vectors = slots.reshape(-1, dim)
    arg_labels = np.array([[1.0], [0.0], [1.0]])
    out["composed_argument_loss"] = (
        lambda: vecent.argument_loss_and_grads(
            arg_model, window_ids, window_vectors, arg_labels, 0.7, 0.25, np.random.default_rng(999)
        )[:2],
        arg_model.parameters(),
    )

    # The full event-classifier loss (existence + masked direction heads).
    event_model = vecom.new_event_model(input_dim=6, hidden=4, rng=rng).astype(np.float64)
    composed = _signed_uniform(rng, (4, 6), lo=0.3, hi=1.2)
    y_exist = np.array([[1.0], [0.0], [1.0], [0.0]])
    y_dir = np.array([[1.0], [0.0], [0.0], [0.0]])
    out["composed_event_loss"] = (
        lambda: vecom.event_loss_and_grads(event_model, composed, y_exist, y_dir)[:2],
        event_model.parameters(),
    )

    # The LSTM over ids into five word vectors: 0 is the pad and 4 a word
    # whose vector is zero (the oov=zero case), which pads as id 0 does. The
    # rows have leads 2, T (all pad), 0 and 1 and repeat ids, and row 3 reads
    # word 4 again after its lead, as a zero input.
    word_vectors = _signed_uniform(rng, (5, 3))
    word_vectors[[0, 4]] = 0.0
    ids = np.array([[0, 4, 1, 2], [0, 0, 0, 0], [1, 2, 1, 3], [4, 3, 4, 2]]).T
    out["lstm_last_ids"] = _lstm_check(cell, ids, word_vectors)
    return out


def run_suite(eps: float = 1e-5, seed: int = 2024) -> dict[str, float]:
    """Name -> max relative gradient error of every check."""
    return {
        name: ndiff.gradient_check(loss_and_grads, params, eps=eps)
        for name, (loss_and_grads, params) in checks(np.random.default_rng(seed)).items()
    }
