"""Finite-difference verification of every differentiable operator and of
the fully composed argument/event losses on miniature instances.

Inputs are sampled away from the relu/abs kinks and the clamp bounds so
central differences stay valid at eps=1e-5.
"""

from __future__ import annotations

import numpy as np

from . import ndiff, vecent, vecom


def _signed_uniform(rng, shape, lo=0.2, hi=0.9):
    mag = rng.uniform(lo, hi, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def _param(rng, shape, name):
    return ndiff.parameter(_signed_uniform(rng, shape), name=name)


def _op_checks(rng):
    checks = {}

    x = _param(rng, (3, 4), "x")
    y = _param(rng, (3, 4), "y")
    weights = _signed_uniform(rng, (3, 4), lo=0.5, hi=1.5)  # fixed mixing constants
    checks["add"] = (lambda: ndiff.sum_all(ndiff.mul(ndiff.add(x, y), weights)), {"x": x, "y": y})
    checks["mul"] = (lambda: ndiff.sum_all(ndiff.mul(x, y)), {"x": x, "y": y})
    checks["tanh"] = (lambda: ndiff.sum_all(ndiff.mul(ndiff.tanh(x), weights)), {"x": x})
    checks["sigmoid"] = (lambda: ndiff.sum_all(ndiff.mul(ndiff.sigmoid(x), weights)), {"x": x})
    checks["relu"] = (lambda: ndiff.sum_all(ndiff.mul(ndiff.relu(x), weights)), {"x": x})
    checks["abs"] = (lambda: ndiff.sum_all(ndiff.mul(ndiff.absolute(x), weights)), {"x": x})

    pos = ndiff.parameter(rng.uniform(0.3, 0.8, size=(2, 3)), name="pos")
    checks["log"] = (lambda: ndiff.sum_all(ndiff.log(pos)), {"pos": pos})
    checks["clamp"] = (
        lambda: ndiff.sum_all(ndiff.mul(ndiff.clamp(x, -0.95, 0.95), 1.7)),
        {"x": x},
    )

    a = _param(rng, (2, 3), "a")
    b = _param(rng, (2, 2), "b")
    checks["concat"] = (
        lambda: ndiff.sum_all(ndiff.mul(ndiff.concat([a, b], axis=-1), 0.7)),
        {"a": a, "b": b},
    )

    dense = ndiff.DenseParams(A=_param(rng, (3, 4), "A"), b=_param(rng, (3,), "b"))
    xb = _param(rng, (3, 4), "xb")
    checks["affine_batch"] = (
        lambda: ndiff.sum_all(ndiff.tanh(ndiff.affine(dense, xb))),
        {"A": dense.A, "b": dense.b, "xb": xb},
    )

    drop_in = _param(rng, (4, 5), "drop_in")

    def dropout_loss():
        mask_rng = np.random.default_rng(12345)  # same mask on every call
        return ndiff.sum_all(ndiff.mul(ndiff.dropout(drop_in, 0.4, True, mask_rng), 1.3))

    checks["dropout"] = (dropout_loss, {"drop_in": drop_in})

    cell = ndiff.init_lstm(rng, 3, 4, "cell")
    cell_params = cell.params("cell")
    # Three steps of two rows with no zero step, so no row is packed.
    unpadded = _signed_uniform(rng, (3, 2, 3))
    checks["lstm_last_batch"] = (
        lambda: ndiff.sum_all(ndiff.mul(ndiff.lstm_last(cell, unpadded), 1.1)),
        cell_params,
    )

    # Constant steps whose rows have 1, T-1, 0 and T leading zero steps
    # (T = 4), so lstm_last packs the rows and starts them from its pad chain.
    leads = np.array([1, 3, 0, 4])
    live = np.arange(4)[:, None, None] >= leads[:, None]
    padded = _signed_uniform(rng, (4, leads.size, 3)) * live
    checks["lstm_last_padded"] = (
        lambda: ndiff.sum_all(ndiff.mul(ndiff.lstm_last(cell, padded), 1.1)),
        cell_params,
    )

    logits = _param(rng, (5, 1), "logits")
    bce_labels = np.array([[1.0], [0.0], [1.0], [1.0], [0.0]])

    def bce_loss():
        return ndiff.weighted_bce(bce_labels, ndiff.sigmoid(logits), 0.8, 0.2)

    checks["weighted_bce"] = (bce_loss, {"logits": logits})
    return checks


def _composed_argument_check(rng):
    """Full argument-classifier loss on a mini instance (u=3, hidden=6)."""
    u, dim, hidden, mlp_hidden, batch = 3, 4, 6, 5, 3
    model = vecent.new_argument_model(
        "check", embed_dim=dim, lstm_hidden=hidden, mlp_hidden=mlp_hidden, dropout=0.25, rng=rng
    )
    left = rng.standard_normal((batch, u + 1, dim))
    right = rng.standard_normal((batch, u + 1, dim))
    labels = np.array([[1.0], [0.0], [1.0]])

    def loss():
        enc = vecent._encode_arrays(model, left, right)
        hid = ndiff.tanh(ndiff.affine(model.f1, enc))
        hid = ndiff.dropout(hid, model.dropout, True, np.random.default_rng(999))
        probs = ndiff.sigmoid(ndiff.affine(model.f2, hid))
        return ndiff.mul(ndiff.weighted_bce(labels, probs, 0.7, 0.3), 1.0 / batch)

    return loss, model.parameters()


def _composed_event_check(rng):
    """Full event-classifier loss (existence + masked direction heads)."""
    dim, hidden, batch = 6, 4, 4
    model = vecom.new_event_model(input_dim=dim, hidden=hidden, rng=rng)
    composed = _signed_uniform(rng, (batch, dim), lo=0.3, hi=1.2)
    y_exist = np.array([[1.0], [0.0], [1.0], [0.0]])
    y_dir = np.array([[1.0], [0.0], [0.0], [0.0]])

    def loss():
        p_exists, p_forward = vecom._heads(model, ndiff.constant(composed))
        le = ndiff.weighted_bce(y_exist, p_exists, 1.0, 1.0)
        ld = ndiff.weighted_bce(y_dir, p_forward, y_exist, y_exist)
        return ndiff.mul(ndiff.add(le, ld), 1.0 / batch)

    return loss, model.parameters()


def run_suite(eps: float = 1e-5, seed: int = 2024) -> dict[str, float]:
    """Name -> max relative gradient error, for every operator and both
    composed model losses."""
    rng = np.random.default_rng(seed)
    results = {}
    for name, (build, params) in _op_checks(rng).items():
        results[name] = ndiff.gradient_check(build, params, eps=eps)
    build, params = _composed_argument_check(rng)
    results["composed_argument_loss"] = ndiff.gradient_check(build, params, eps=eps)
    build, params = _composed_event_check(rng)
    results["composed_event_loss"] = ndiff.gradient_check(build, params, eps=eps)
    return results
