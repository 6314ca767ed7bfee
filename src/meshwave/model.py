"""Descriptor-learning network: architecture grammar, forward/backward,
operator construction, and checkpoint IO.

A model is a stack of multiscale operator-convolution layers followed by
affine layers, described by an architecture string such as

    MGCONV96(16)+MGCONV96(16)+MGCONV128(16)+FC256

``Model`` derives each conv layer's scale set (its operator keys) from
the architecture and the kind: wavelet scales for the MGCN, polynomial
orders 0..S-1 for Chebyshev.  A checkpoint's stored copy must match it.
``_layer_params`` names each layer's parameters in the checkpoint's array
order; ``_walk`` gives the forward pass each layer's names and operator.

Per-shape operators are an operator set keyed by scale index: for the
wavelet network a ``wavelets.WaveletOperator`` (which documents the
interface), the transposed L1-normalized wavelet matrices in factored
spectral form, never stored as n x n arrays; for the Chebyshev baseline
its sparse polynomial recursion.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import layers
from ._files import atomic_write, json_object, open_npz
from .errors import DataError
from .filters import FilterBank, filter_responses, select_scales
from .spectral import SpectralBasis
from .wavelets import WaveletOperator, filter_atom_stats

DEFAULT_ARCHITECTURE = (
    "MGCONV96(16)+MGCONV96(16)+MGCONV96(16)+MGCONV96(16)+MGCONV96(16)"
    "+MGCONV128(16)+FC256"
)
DEFAULT_INPUT_DIM = 128

_CONV_RE = re.compile(r"^MGCONV([0-9]{1,9})\(([0-9]{1,9})\)$")  # int() refuses 4,301 digits
_FC_RE = re.compile(r"^FC([0-9]{1,9})$")  # ASCII digits: \d also takes "٣"

_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # "conv" or "fc"
    out_dim: int
    n_scales: int = 0


def parse_architecture(text: str) -> list:
    specs = []
    for term in text.strip().split("+"):
        term = term.strip()
        m = _CONV_RE.match(term)
        if m:
            out, ns = int(m.group(1)), int(m.group(2))
            if out < 1 or ns < 1:
                raise DataError(f"bad layer sizes in {term!r}")
            specs.append(LayerSpec("conv", out, ns))
            continue
        m = _FC_RE.match(term)
        if m:
            out = int(m.group(1))
            if out < 1:
                raise DataError(f"bad layer size in {term!r}")
            specs.append(LayerSpec("fc", out))
            continue
        raise DataError(f"cannot parse architecture term {term!r}")
    return specs


def format_architecture(specs) -> str:
    parts = []
    for s in specs:
        if s.kind == "conv":
            parts.append(f"MGCONV{s.out_dim}({s.n_scales})")
        else:
            parts.append(f"FC{s.out_dim}")
    return "+".join(parts)


@dataclass
class Model:
    kind: str  # "mgcn" or "chebyshev"
    specs: list
    input_dim: int
    params: dict = field(default_factory=dict)
    head_dim: Optional[int] = None
    scale_sets: list = field(init=False)  # per conv layer, operator keys

    def __post_init__(self):
        self.scale_sets = _scale_sets(self.kind, self.specs)

    @property
    def architecture(self) -> str:
        return format_architecture(self.specs)


def _glorot(rng, shape):
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, size=shape)


def _layer_params(li: int, spec: LayerSpec, dim: Optional[int] = None) -> dict:
    """{name: shape} of layer li's parameters for input width dim, in
    checkpoint order: a weight per scale for a conv layer, a weight and a
    bias for an affine one."""
    if spec.kind == "conv":
        return {f"conv{li}.w{j}": (dim, spec.out_dim) for j in range(spec.n_scales)}
    return {f"fc{li}.w": (dim, spec.out_dim), f"fc{li}.b": (spec.out_dim,)}


def _param_shapes(specs, input_dim: int, head_dim: Optional[int]) -> dict:
    """{parameter name: shape} in initialization order."""
    shapes = {}
    dim = input_dim
    for li, spec in enumerate(specs):
        shapes.update(_layer_params(li, spec, dim))
        dim = spec.out_dim
    if head_dim is not None:
        shapes["head.w"] = (dim, head_dim)
        shapes["head.b"] = (head_dim,)
    return shapes


def _scale_sets(kind: str, specs) -> list:
    if kind not in ("mgcn", "chebyshev"):
        raise DataError(f"unknown model kind {kind!r}")
    counts = [s.n_scales for s in specs if s.kind == "conv"]
    if kind == "chebyshev":  # polynomial orders in place of wavelet scales
        return [list(range(n)) for n in counts]
    if min(counts, default=3) < 3:  # select_scales never returns fewer than three
        raise DataError(f"a wavelet conv layer needs at least 3 scales, got {min(counts)}")
    return [[int(s) for s in select_scales(32 * n)] for n in counts]


def build_model(
    architecture: str = DEFAULT_ARCHITECTURE,
    input_dim: int = DEFAULT_INPUT_DIM,
    kind: str = "mgcn",
    head_dim: Optional[int] = None,
    seed: int = 0,
) -> Model:
    specs = parse_architecture(architecture)
    rng = np.random.default_rng(seed)
    params = {
        name: _glorot(rng, shape) if len(shape) == 2 else np.zeros(shape)
        for name, shape in _param_shapes(specs, input_dim, head_dim).items()
    }
    return Model(kind, specs, input_dim, params, head_dim)


def required_operator_keys(model: Model) -> list:
    return sorted(set().union(*model.scale_sets))


def build_wavelet_operators(
    basis: SpectralBasis, bank: FilterBank, keys, atom_cache=None
) -> WaveletOperator:
    """Factored transposed L1-normalized wavelet matrices for the scale
    indices in keys.  The normalizers come from
    ``wavelets.filter_atom_stats``; `atom_cache` is its sidecar file, or
    None to compute them."""
    keys = [int(s) for s in keys]
    responses = filter_responses(bank, basis.eigenvalues).T
    (norms,) = filter_atom_stats(basis, bank, keys, "l1", atom_cache)
    zero = np.argwhere(norms == 0.0)
    if zero.size:
        v, j = zero[0]
        raise DataError(f"wavelet column {v} of scale {keys[j]} is identically zero")
    return WaveletOperator(basis.eigenvectors, responses[:, keys], 1.0 / norms, keys)


def _walk(model: Model, shape_ops):
    """Yield (parameter names, operator) for each layer in order: a conv
    layer's operator is `shape_ops` selected to its scale set, an affine one's None."""
    scale_sets = iter(model.scale_sets)
    for li, spec in enumerate(model.specs):
        op = None
        if spec.kind == "conv":
            try:
                op = shape_ops.select(next(scale_sets))
            except KeyError as exc:
                raise DataError(f"missing operator for scale index {exc.args[0]}") from None
        yield list(_layer_params(li, spec)), op


@np.errstate(over="ignore", invalid="ignore")
def forward(model: Model, x: np.ndarray, shape_ops):
    """Run the stack; returns (descriptors, caches) for backward.  An
    overflow gives inf or NaN rows, not a warning: the callers check them."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DataError(
            f"expected input of shape (n, {model.input_dim}), got {x.shape}"
        )
    caches = []
    for names, op in _walk(model, shape_ops):
        ws = [model.params[name] for name in names]
        if op is None:
            x, cache = layers.affine_forward(x, *ws)
        else:
            x, cache = layers.conv_forward(x, ws, op)
        caches.append(cache)
    return x, caches


def backward(model: Model, caches, dout: np.ndarray, grads=None):
    """Gradients of every parameter given d(output) and the caches of the
    forward pass; not the input's, the fixed descriptor field's.

    With a `grads` dict, each layer's gradients are added into its arrays
    in place (a name it lacks is set), and that dict is returned.
    """
    grads = {} if grads is None else grads
    dx = dout
    for li, spec in reversed(list(enumerate(model.specs))):
        names = list(_layer_params(li, spec))
        ws = [model.params[name] for name in names]
        if spec.kind == "fc":
            dx, *dws = layers.affine_backward(caches[li], dx, ws[0])
        else:
            dx, dws = layers.conv_backward(caches[li], dx, ws, input_grad=li > 0)
        for name, g in zip(names, dws):
            if name in grads:
                grads[name] += g
            else:
                grads[name] = g
    return grads


def save_checkpoint(path, model: Model, metadata: Optional[dict] = None):
    """Write the network alone: its metadata and its parameter arrays."""
    meta = {
        "format_version": _CHECKPOINT_VERSION,
        "kind": model.kind,
        "architecture": model.architecture,
        "input_dim": model.input_dim,
        "scale_sets": model.scale_sets,
        "head_dim": model.head_dim,
        "metadata": metadata or {},
    }
    arrays = {"__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for name, arr in model.params.items():
        arrays[f"param/{name}"] = arr
    with atomic_write(path) as fh:
        np.savez(fh, **arrays)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _model_from_meta(meta: dict, params: dict, path) -> Model:
    """The checkpoint's model, after checking its metadata fields (the scale
    sets against the derived ones) and every parameter array's shape."""

    def bad(field, value):
        return DataError(f"{path}: checkpoint field {field!r} is missing or invalid: "
                         f"{value!r}")

    kind = meta.get("kind")
    if kind not in ("mgcn", "chebyshev"):
        raise bad("kind", kind)
    if not isinstance(meta.get("architecture"), str):
        raise bad("architecture", meta.get("architecture"))
    specs = parse_architecture(meta["architecture"])
    input_dim = meta.get("input_dim")
    if not _is_count(input_dim):
        raise bad("input_dim", input_dim)
    head_dim = meta.get("head_dim")
    if head_dim is not None and not _is_count(head_dim):
        raise bad("head_dim", head_dim)
    if sum(s.n_scales for s in specs if s.kind == "conv") > len(params):  # an array per scale
        raise DataError(f"{path}: checkpoint has fewer parameter arrays than conv scales")
    model = Model(kind, specs, input_dim, params, head_dim)
    stored = meta.get("scale_sets")  # equal as JSON text too: no 24.0 for 24
    if stored != model.scale_sets or json.dumps(stored) != json.dumps(model.scale_sets):
        raise bad("scale_sets", stored)
    expected = _param_shapes(specs, input_dim, head_dim)
    if set(params) != set(expected):
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        raise DataError(f"{path}: checkpoint parameters do not match the "
                        f"architecture (missing {missing}, unexpected {extra})")
    for name, shape in expected.items():
        arr = params[name]
        if arr.shape != shape or arr.dtype.kind != "f":
            raise DataError(f"{path}: parameter {name} is {arr.dtype} {arr.shape}, "
                            f"the architecture needs float {shape}")
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: parameter {name} holds non-finite values")
    return model


def load_checkpoint(path):
    """Returns (model, None, None, metadata), reading only ``__meta__`` and
    ``param/*``: the optimizer and generator state older files hold is
    ignored, and its two slots stay None for callers that unpack four."""
    with open_npz(path, "checkpoint") as data:
        if "__meta__" not in data.files:
            raise DataError(f"{path}: not a checkpoint file")
        meta = json_object(bytes(data["__meta__"]), path, "checkpoint metadata")
        if meta.get("format_version") != _CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version "
                            f"{meta.get('format_version')}")
        params = {k[len("param/"):]: data[k] for k in data.files if k.startswith("param/")}
    model = _model_from_meta(meta, params, path)
    metadata = meta.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DataError(f"{path}: checkpoint metadata field is not a JSON object")
    return model, None, None, metadata
