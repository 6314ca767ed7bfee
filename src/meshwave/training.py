"""Two-phase training: per-vertex classification, then descriptor metric
learning on sampled corresponding pairs. One shape (or shape pair) per
optimizer step; deterministic given the seed.

A step's working set stays bounded at any number of template classes.
Phase 1 runs the classification head and its cross-entropy fused, over
row blocks of at most 2**20 logits (``losses.head_cross_entropy``), so
the (n, classes) logit matrix is never held.  A phase-2 step keeps one
gradient dict: shape A's backward pass fills it, A's caches are freed,
and shape B's backward pass adds into it in place."""

from __future__ import annotations

import itertools
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

    def __post_init__(self):
        if self.phase1_epochs < 0 or self.phase2_epochs < 0:
            raise DataError("epoch counts must be non-negative")
        # NaN fails every comparison, so each check asks for the good case
        for name in ("lr_phase1", "lr_phase2", "margin"):
            if not 0 < getattr(self, name) < np.inf:
                raise DataError(f"{name} must be finite and positive")
        for name in ("weight_decay_phase1", "weight_decay_phase2"):
            if not 0 <= getattr(self, name) < np.inf:
                raise DataError(f"{name} must be finite and non-negative")
        if self.pairs_per_step < 2:
            raise DataError("pairs_per_step must be at least 2")


@dataclass
class ShapeData:
    """One training shape: input features, template labels, and the
    per-scale operator set the conv layers consume (``ops.select`` takes
    each conv layer's scale set, ``Model.scale_sets``)."""

    features: np.ndarray  # (n, input_dim)
    labels: Optional[np.ndarray]  # per-vertex template vertex index
    ops: object  # operator set keyed by scale index
    name: str = ""

    @property
    def n_vertices(self) -> int:
        return self.features.shape[0]


_ADAM_ENTRIES = 1 << 16
_BETA1 = 0.9  # Adam's first- and second-moment decay rates
_BETA2 = 0.999
_EPS = 1e-8  # keeps the update finite where the second moment is zero


def adam_init(params: dict) -> dict:
    return {
        "step": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


def adam_step(params: dict, grads: dict, state: dict, lr: float, weight_decay: float):
    """In-place Adam update with decoupled weight decay, over slabs of rows
    holding at most _ADAM_ENTRIES entries: temporaries stay slab-sized, and
    every entry sees the operations of a whole-array update."""
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    for name, param in params.items():
        grad = grads.get(name)
        if grad is None:
            continue
        rows = max(1, _ADAM_ENTRIES * len(param) // max(param.size, 1))
        for lo in range(0, len(param), rows):
            p, g, m, v = (a[lo:lo + rows] for a in
                          (param, grad, state["m"][name], state["v"][name]))
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            if weight_decay:
                p -= lr * weight_decay * p
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)


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
    for sh in shapes:
        if sh.features.shape[1] != net.input_dim:
            raise DataError(
                f"shape {sh.name!r}: feature dim {sh.features.shape[1]} "
                f"!= model input dim {net.input_dim}"
            )
        list(model_mod._walk(net, sh.ops))  # refuses a missing conv operator
        if need_labels:
            if sh.labels is None:
                raise DataError(f"shape {sh.name!r}: training requires labels")
            if sh.labels.shape[0] != sh.n_vertices:
                raise DataError(f"shape {sh.name!r}: one label per vertex required")


def _phase1_epoch(net, shapes, state, cfg) -> float:
    total = 0.0
    for sh in shapes:
        desc, caches = model_mod.forward(net, sh.features, sh.ops)
        loss, ddesc, dw, db = losses.head_cross_entropy(
            desc, net.params["head.w"], net.params["head.b"], sh.labels
        )
        grads = model_mod.backward(net, caches, ddesc, grads={"head.w": dw, "head.b": db})
        del desc, caches, ddesc  # gone before the next shape's forward pass
        _check_finite(loss, grads, f"phase 1, shape {sh.name!r}")
        adam_step(net.params, grads, state, cfg.lr_phase1, cfg.weight_decay_phase1)
        total += loss
    return total / len(shapes)


def common_vertices(labels_a, labels_b, name_a, name_b):
    """Row indices of label-matched vertices in two shapes (phase 2 needs 2)."""
    common, ia, ib = np.intersect1d(labels_a, labels_b, return_indices=True)
    if common.size < 2:
        raise DataError(f"{name_a!r} and {name_b!r} share fewer than 2 labels")
    return ia, ib


def _phase2_step(net, sa, sb, state, cfg, rng) -> float:
    ia, ib = common_vertices(sa.labels, sb.labels, sa.name, sb.name)
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
    del desc_a, desc_b
    grads = model_mod.backward(net, caches_a, dfull_a)
    # A's working set goes before B's backward adds into A's gradients
    del caches_a, dfull_a
    model_mod.backward(net, caches_b, dfull_b, grads=grads)
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
    gradient is not finite.  No step holds an (n, classes) array: the
    head's logits are formed a row block at a time (see the module
    docstring).  Phase-2 pairs are drawn from `rng`, default_rng(0) if None.
    """
    _check_dataset(net, shapes, need_labels=config.phase1_epochs + config.phase2_epochs > 0)
    if config.phase1_epochs > 0 and net.head_dim is None:
        raise DataError("phase 1 needs a model with a classification head")
    if rng is None:
        rng = np.random.default_rng(0)
    if opt_state is None:
        opt_state = adam_init(net.params)
    history = {"phase1": [], "phase2": []}
    for _ in range(config.phase1_epochs):
        history["phase1"].append(_phase1_epoch(net, shapes, opt_state, config))
    if config.phase2_epochs > 0:
        if len(shapes) < 2:
            raise DataError("phase 2 needs at least 2 shapes")
        pairs = list(itertools.permutations(range(len(shapes)), 2))
        for _ in range(config.phase2_epochs):
            total = 0.0
            for i, j in pairs:
                total += _phase2_step(net, shapes[i], shapes[j], opt_state, config, rng)
            history["phase2"].append(total / len(pairs))
    return net, history


def classification_accuracy(net, shape: ShapeData) -> float:
    if net.head_dim is None:
        raise DataError("model has no classification head")
    desc, _ = model_mod.forward(net, shape.features, shape.ops)
    pred = losses.head_predictions(desc, net.params["head.w"], net.params["head.b"])
    return float((pred == shape.labels).mean())
