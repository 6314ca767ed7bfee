"""Descriptor-learning network: architecture grammar, forward/backward,
operator construction, and checkpoint IO.

A model is a stack of multiscale operator-convolution layers followed by
affine layers, described by an architecture string such as

    MGCONV96(16)+MGCONV96(16)+MGCONV128(16)+FC256

Per-shape operators are an operator set keyed by scale index (see
``layers.DenseOperator`` for the interface).  The wavelet network uses a
``wavelets.WaveletOperator``: the transposed L1-normalized wavelet matrices
in factored spectral form, never stored as n x n arrays.  The Chebyshev
baseline plugs in its sparse polynomial recursion through the same
interface, and a dict of explicit matrices also works.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import layers
from ._files import atomic_write, open_npz
from .errors import DataError
from .filters import FilterBank, filter_responses, select_scales
from .spectral import SpectralBasis
from .wavelets import WaveletOperator, filter_atom_stats

DEFAULT_ARCHITECTURE = (
    "MGCONV96(16)+MGCONV96(16)+MGCONV96(16)+MGCONV96(16)+MGCONV96(16)"
    "+MGCONV128(16)+FC256"
)
DEFAULT_INPUT_DIM = 128

_CONV_RE = re.compile(r"^MGCONV(\d+)\((\d+)\)$")
_FC_RE = re.compile(r"^FC(\d+)$")

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
    if not specs:
        raise DataError("empty architecture string")
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
    scale_sets: list  # per conv layer, operator keys
    params: dict = field(default_factory=dict)
    head_dim: Optional[int] = None

    @property
    def architecture(self) -> str:
        return format_architecture(self.specs)

    @property
    def output_dim(self) -> int:
        return self.specs[-1].out_dim


def _scale_set_for(kind: str, n_scales: int) -> list:
    if kind == "chebyshev":
        # polynomial order in place of a wavelet scale set
        return list(range(n_scales))
    if n_scales < 3:  # select_scales never returns fewer than three
        raise DataError(f"a wavelet conv layer needs at least 3 scales, got {n_scales}")
    return [int(s) for s in select_scales(32 * n_scales)]


def _glorot(rng, shape):
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, size=shape)


def _param_shapes(specs, input_dim: int, head_dim: Optional[int]) -> dict:
    """{parameter name: shape} in initialization order."""
    shapes = {}
    dim = input_dim
    for li, spec in enumerate(specs):
        if spec.kind == "conv":
            for j in range(spec.n_scales):
                shapes[f"conv{li}.w{j}"] = (dim, spec.out_dim)
        else:
            shapes[f"fc{li}.w"] = (dim, spec.out_dim)
            shapes[f"fc{li}.b"] = (spec.out_dim,)
        dim = spec.out_dim
    if head_dim is not None:
        shapes["head.w"] = (dim, head_dim)
        shapes["head.b"] = (head_dim,)
    return shapes


def build_model(
    architecture: str = DEFAULT_ARCHITECTURE,
    input_dim: int = DEFAULT_INPUT_DIM,
    kind: str = "mgcn",
    head_dim: Optional[int] = None,
    seed: int = 0,
) -> Model:
    if kind not in ("mgcn", "chebyshev"):
        raise DataError(f"unknown model kind {kind!r}")
    specs = parse_architecture(architecture)
    scale_sets = [_scale_set_for(kind, s.n_scales) for s in specs if s.kind == "conv"]
    rng = np.random.default_rng(seed)
    params = {
        name: _glorot(rng, shape) if len(shape) == 2 else np.zeros(shape)
        for name, shape in _param_shapes(specs, input_dim, head_dim).items()
    }
    return Model(kind, specs, input_dim, scale_sets, params, head_dim)


def required_operator_keys(model: Model) -> list:
    keys = set()
    for s in model.scale_sets:
        keys.update(s)
    return sorted(keys)


def build_wavelet_operators(
    basis: SpectralBasis, bank: FilterBank, keys, atom_cache=None
) -> WaveletOperator:
    """Factored transposed L1-normalized wavelet matrices for the scale
    indices in keys.  The normalizers come from
    ``wavelets.filter_atom_stats``; `atom_cache` is its sidecar file, or
    None to compute them."""
    keys = [int(s) for s in keys]
    responses = filter_responses(bank, basis.eigenvalues).T
    norms, _, _ = filter_atom_stats(basis, bank, responses, keys, atom_cache)
    zero = np.argwhere(norms == 0.0)
    if zero.size:
        v, j = zero[0]
        raise DataError(f"wavelet column {v} of scale {keys[j]} is identically zero")
    return WaveletOperator(basis.eigenvectors, responses[:, keys], 1.0 / norms, keys)


def _layer_ops(model: Model, conv_i: int, shape_ops):
    try:
        return layers.as_operator(shape_ops).select(model.scale_sets[conv_i])
    except KeyError as exc:
        raise DataError(f"missing operator for scale index {exc.args[0]}") from None


def forward(model: Model, x: np.ndarray, shape_ops):
    """Run the stack; returns (descriptors, caches) for backward."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DataError(
            f"expected input of shape (n, {model.input_dim}), got {x.shape}"
        )
    caches = []
    conv_i = 0
    for li, spec in enumerate(model.specs):
        if spec.kind == "conv":
            ws = [model.params[f"conv{li}.w{j}"] for j in range(spec.n_scales)]
            x, cache = layers.conv_forward(x, ws, _layer_ops(model, conv_i, shape_ops))
            conv_i += 1
        else:
            x, cache = layers.affine_forward(
                x, model.params[f"fc{li}.w"], model.params[f"fc{li}.b"]
            )
        caches.append(cache)
    return x, caches


def backward(model: Model, caches, dout: np.ndarray, shape_ops):
    """Gradients of every parameter plus the input, given d(output)."""
    grads = {}
    dx = dout
    conv_i = len(model.scale_sets)
    for li in range(len(model.specs) - 1, -1, -1):
        spec = model.specs[li]
        if spec.kind == "conv":
            conv_i -= 1
            ws = [model.params[f"conv{li}.w{j}"] for j in range(spec.n_scales)]
            dx, dws = layers.conv_backward(
                caches[li], dx, ws, _layer_ops(model, conv_i, shape_ops)
            )
            for j, dw in enumerate(dws):
                grads[f"conv{li}.w{j}"] = dw
        else:
            dx, dw, db = layers.affine_backward(
                caches[li], dx, model.params[f"fc{li}.w"]
            )
            grads[f"fc{li}.w"] = dw
            grads[f"fc{li}.b"] = db
    return dx, grads


def head_forward(model: Model, desc: np.ndarray):
    if model.head_dim is None:
        raise DataError("model has no classification head")
    return layers.affine_forward(desc, model.params["head.w"], model.params["head.b"])


def head_backward(model: Model, cache, dlogits: np.ndarray):
    dx, dw, db = layers.affine_backward(cache, dlogits, model.params["head.w"])
    return dx, {"head.w": dw, "head.b": db}


def save_checkpoint(
    path,
    model: Model,
    opt_state: Optional[dict] = None,
    rng_state: Optional[dict] = None,
    metadata: Optional[dict] = None,
):
    meta = {
        "format_version": _CHECKPOINT_VERSION,
        "kind": model.kind,
        "architecture": model.architecture,
        "input_dim": model.input_dim,
        "scale_sets": model.scale_sets,
        "head_dim": model.head_dim,
        "metadata": metadata or {},
        "rng_state": rng_state,
    }
    arrays = {"__meta__": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for name, arr in model.params.items():
        arrays[f"param/{name}"] = arr
    if opt_state is not None:
        arrays["opt/step"] = np.asarray(opt_state["step"], dtype=np.int64)
        for name, arr in opt_state["m"].items():
            arrays[f"opt/m/{name}"] = arr
        for name, arr in opt_state["v"].items():
            arrays[f"opt/v/{name}"] = arr
    with atomic_write(path) as fh:
        np.savez(fh, **arrays)


def _is_count(value, minimum: int = 1) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _model_from_meta(meta: dict, params: dict, path) -> Model:
    """The checkpoint's model, after checking its metadata fields and that
    every parameter array has the shape the architecture implies."""

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
    scale_sets = meta.get("scale_sets")
    conv_specs = [sp for sp in specs if sp.kind == "conv"]
    if not (
        isinstance(scale_sets, list)
        and len(scale_sets) == len(conv_specs)
        and all(
            isinstance(keys, list)
            and len(keys) == sp.n_scales
            and all(_is_count(k, 0) for k in keys)
            for keys, sp in zip(scale_sets, conv_specs)
        )
    ):
        raise bad("scale_sets", scale_sets)
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
    return Model(kind, specs, input_dim, scale_sets, params, head_dim)


def load_checkpoint(path):
    """Returns (model, opt_state, rng_state, metadata)."""
    with open_npz(path, "checkpoint") as data:
        if "__meta__" not in data.files:
            raise DataError(f"{path}: not a checkpoint file")
        arrays = {key: data[key] for key in data.files}
    try:
        meta = json.loads(bytes(arrays.pop("__meta__")).decode())
    except ValueError:  # includes UnicodeDecodeError
        raise DataError(f"{path}: checkpoint metadata is not valid JSON") from None
    if not isinstance(meta, dict):
        raise DataError(f"{path}: checkpoint metadata is not a JSON object")
    if meta.get("format_version") != _CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint version {meta.get('format_version')}"
        )

    def under(prefix):
        return {k[len(prefix) :]: a for k, a in arrays.items() if k.startswith(prefix)}

    model = _model_from_meta(meta, under("param/"), path)
    metadata = meta.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DataError(f"{path}: checkpoint metadata field is not a JSON object")
    opt_state = None
    if "opt/step" in arrays:
        opt_state = {"step": int(arrays["opt/step"]),
                     "m": under("opt/m/"), "v": under("opt/v/")}
    return model, opt_state, meta.get("rng_state"), metadata
