"""Two-phase training: per-vertex classification, then descriptor metric
learning on sampled corresponding pairs. One shape (or shape pair) per
optimizer step; deterministic given the seed."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import losses, model as model_mod
from .errors import DataError, NumericalError


@dataclass
class TrainConfig:
    phase1_epochs: int = 200
    phase2_epochs: int = 100
    lr_phase1: float = 1e-3
    weight_decay_phase1: float = 1e-4
    lr_phase2: float = 5e-4
    weight_decay_phase2: float = 5e-5
    margin: float = 1.0
    pairs_per_step: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.phase1_epochs < 0 or self.phase2_epochs < 0:
            raise DataError("epoch counts must be non-negative")
        for name in ("lr_phase1", "lr_phase2", "margin"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive")
        if self.weight_decay_phase1 < 0 or self.weight_decay_phase2 < 0:
            raise DataError("weight decay must be non-negative")
        if self.pairs_per_step < 2:
            raise DataError("pairs_per_step must be at least 2")


@dataclass
class ShapeData:
    """One training shape: input features, template labels, and the
    per-scale operator set the conv layers consume (``s in ops`` for each
    scale index the model needs)."""

    features: np.ndarray  # (n, input_dim)
    labels: Optional[np.ndarray]  # per-vertex template vertex index
    ops: object  # operator set keyed by scale index
    name: str = ""

    @property
    def n_vertices(self) -> int:
        return self.features.shape[0]


def adam_init(params: dict) -> dict:
    return {
        "step": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


def adam_step(
    params: dict,
    grads: dict,
    state: dict,
    lr: float,
    weight_decay: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """In-place Adam update with decoupled weight decay."""
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        if weight_decay:
            p -= lr * weight_decay * p
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def _check_finite(loss: float, grads: dict, where: str):
    """Raise before the optimizer step when the loss or a gradient is NaN/inf."""
    if not np.isfinite(loss):
        raise NumericalError(f"{where}: training loss is not finite ({loss})")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericalError(f"{where}: gradient of {name} is not finite")


def _check_dataset(net: model_mod.Model, shapes, need_labels: bool):
    if not shapes:
        raise DataError("training dataset is empty")
    needed = model_mod.required_operator_keys(net)
    for sh in shapes:
        if sh.features.shape[1] != net.input_dim:
            raise DataError(
                f"shape {sh.name!r}: feature dim {sh.features.shape[1]} "
                f"!= model input dim {net.input_dim}"
            )
        missing = [s for s in needed if s not in sh.ops]
        if missing:
            raise DataError(f"shape {sh.name!r}: missing operators {missing}")
        if need_labels:
            if sh.labels is None:
                raise DataError(f"shape {sh.name!r}: phase 1 requires labels")
            if sh.labels.shape[0] != sh.n_vertices:
                raise DataError(f"shape {sh.name!r}: one label per vertex required")


def _phase1_epoch(net, shapes, state, cfg) -> float:
    total = 0.0
    for sh in shapes:
        desc, caches = model_mod.forward(net, sh.features, sh.ops)
        logits, head_cache = model_mod.head_forward(net, desc)
        loss, dlogits = losses.cross_entropy(logits, sh.labels)
        ddesc, grads = model_mod.head_backward(net, head_cache, dlogits)
        _, body_grads = model_mod.backward(net, caches, ddesc, sh.ops)
        grads.update(body_grads)
        _check_finite(loss, grads, f"phase 1, shape {sh.name!r}")
        adam_step(net.params, grads, state, cfg.lr_phase1, cfg.weight_decay_phase1)
        total += loss
    return total / len(shapes)


def _common_vertices(sa: ShapeData, sb: ShapeData):
    """Row indices of label-matched vertices in both shapes."""
    common, ia, ib = np.intersect1d(sa.labels, sb.labels, return_indices=True)
    if common.size < 2:
        raise DataError(
            f"shapes {sa.name!r} and {sb.name!r} share fewer than 2 labels"
        )
    return ia, ib


def _phase2_step(net, sa, sb, state, cfg, rng) -> float:
    ia, ib = _common_vertices(sa, sb)
    n_pairs = min(cfg.pairs_per_step, ia.size)
    pick = rng.choice(ia.size, size=n_pairs, replace=False)
    ra, rb = ia[pick], ib[pick]
    desc_a, caches_a = model_mod.forward(net, sa.features, sa.ops)
    desc_b, caches_b = model_mod.forward(net, sb.features, sb.ops)
    loss, da, db = losses.hardnet_loss(desc_a[ra], desc_b[rb], cfg.margin)
    dfull_a = np.zeros_like(desc_a)
    dfull_b = np.zeros_like(desc_b)
    dfull_a[ra] = da
    dfull_b[rb] = db
    _, grads_a = model_mod.backward(net, caches_a, dfull_a, sa.ops)
    _, grads_b = model_mod.backward(net, caches_b, dfull_b, sb.ops)
    grads = {k: grads_a[k] + grads_b[k] for k in grads_a}
    _check_finite(loss, grads, f"phase 2, shapes {sa.name!r}/{sb.name!r}")
    adam_step(net.params, grads, state, cfg.lr_phase2, cfg.weight_decay_phase2)
    return loss


def train(
    net: model_mod.Model,
    shapes: list,
    config: TrainConfig,
    opt_state: Optional[dict] = None,
    rng: Optional[np.random.Generator] = None,
):
    """Runs both phases in place; returns (model, history).

    history = {"phase1": per-epoch mean loss, "phase2": per-epoch mean loss}.
    Raises NumericalError, before that step's update, when a loss or a
    gradient is not finite.
    """
    _check_dataset(net, shapes, need_labels=config.phase1_epochs > 0)
    if config.phase1_epochs > 0 and net.head_dim is None:
        raise DataError("phase 1 needs a model with a classification head")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if opt_state is None:
        opt_state = adam_init(net.params)
    history = {"phase1": [], "phase2": []}
    for _ in range(config.phase1_epochs):
        history["phase1"].append(_phase1_epoch(net, shapes, opt_state, config))
    if config.phase2_epochs > 0:
        if len(shapes) < 2:
            raise DataError("phase 2 needs at least 2 shapes")
        for sh in shapes:
            if sh.labels is None:
                raise DataError("phase 2 pairing requires labels on every shape")
        pairs = [
            (i, j)
            for i in range(len(shapes))
            for j in range(len(shapes))
            if i != j
        ]
        for _ in range(config.phase2_epochs):
            total = 0.0
            for i, j in pairs:
                total += _phase2_step(net, shapes[i], shapes[j], opt_state, config, rng)
            history["phase2"].append(total / len(pairs))
    return net, history


def classification_accuracy(net, shape: ShapeData) -> float:
    desc, _ = model_mod.forward(net, shape.features, shape.ops)
    logits, _ = model_mod.head_forward(net, desc)
    return float((logits.argmax(axis=1) == shape.labels).mean())
