"""Spans recorded from outside meshwave, for the benchmark's traced run.

The tracer wraps meshwave's public functions at the names their callers
look them up by (``meshwave.descriptors.wavelet_matrix`` is the name
``weds`` calls, ``meshwave.model.wavelet_matrix`` the one
``build_wavelet_operators`` calls), records one span per call in memory,
and puts every original back when the traced op ends.  Nothing is wrapped
while the benchmark takes its end-to-end timings.

A span holds its wall time, the time its direct children cover (so self
time is the difference), its ``tracemalloc`` peak above the traced memory
at entry, and counts derived from the call's arguments and result.  Byte
and flop counts marked "computed" come from array shapes, so they repeat
exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

_F8 = 8  # bytes per float64 entry


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 for a root
    start: float
    end: float = 0.0
    child_s: float = 0.0  # wall time covered by direct children
    peak_bytes: int = 0  # tracemalloc peak above the traced memory at entry
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder; one instance per traced op.  With memory
    off, spans carry no peak and tracemalloc's cost stays out of times."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[Span] = []
        self._open: list[list] = []  # [span index, traced bytes at entry, peak]

    def _memory(self):
        return tracemalloc.get_traced_memory() if self.memory else (0, 0)

    def enter(self, name: str):
        current, peak = self._memory()
        if self._open:
            # reset_peak below forgets the parent's peak so far: keep it
            self._open[-1][2] = max(self._open[-1][2], peak)
        if self.memory:
            tracemalloc.reset_peak()
        parent = self._open[-1][0] if self._open else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._open.append([len(self.spans) - 1, current, current])

    def exit(self) -> Span:
        end = time.perf_counter()
        index, base, peak = self._open.pop()
        peak = max(peak, self._memory()[1])
        span = self.spans[index]
        span.end = end
        span.peak_bytes = peak - base
        if self._open:
            self._open[-1][2] = max(self._open[-1][2], peak)
            self.spans[span.parent].child_s += span.duration
        return span

    def add_counts(self, counts: dict):
        """Attribute counts to the innermost open span."""
        if self._open:
            _merge(self.spans[self._open[-1][0]].counts, counts)


def _merge(into: dict, counts: dict):
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


# ------------------------------------------------------------------ counts


def _read_bytes(result, path, *args, **kwargs):
    return {"read_bytes": os.path.getsize(path)}


def _cache_bytes(result, path, *args, **kwargs):
    return {"cache_bytes": os.path.getsize(path)}


def _pairs_kept(result, *args, **kwargs):
    return {"pairs_kept": int(result.k)}


def _eigsh_pairs(result, *args, **kwargs):
    return {"pairs_solved": int(kwargs.get("k", args[1] if len(args) > 1 else 6))}


def _atom(result, basis, *args, **kwargs):
    n = basis.n_vertices
    return {"atom_calls": 1, "atom_bytes": n * n * _F8}


def _nbytes(obj) -> int:
    """Bytes of the arrays held in obj, through dicts, sequences and the
    attributes of plain objects, so the count follows a new operator type."""
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif hasattr(obj, "__dict__"):
        obj = list(vars(obj).values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(item) for item in obj)
    return 0


def _ops_bytes(result, *args, **kwargs):
    return {"ops_bytes": _nbytes(result)}


def _conv_fwd(result, x, weights, ops):
    n, din = x.shape
    flops = 0
    for w, p in zip(weights, ops):
        dout = w.shape[1]
        flops += 2 * n * din * dout + 2 * p.shape[0] * p.shape[1] * dout
    return {"conv_calls": 1, "conv_flops": flops}


def _conv_bwd(result, cache, dz, weights, ops):
    n, din = cache[0].shape
    flops = 0
    for w, p in zip(weights, ops):
        dout = w.shape[1]
        flops += 2 * p.shape[0] * p.shape[1] * dout + 4 * n * din * dout
    return {"conv_calls": 1, "conv_flops": flops}


def _geodesic(result, mesh, sources):
    rows = len(sources)
    return {
        "sources": rows,
        "computed": rows * mesh.n_vertices,
        "table_bytes": rows * mesh.n_vertices * _F8,
    }


def _gathered(result, map_, gt, *args, **kwargs):
    lookups = 1 if gt.symmetric is None else 2
    return {"gathered": lookups * len(map_.indices)}


def _dist_rows(result, desc_a, *args, **kwargs):
    return {"dist_rows": len(desc_a)}


# ------------------------------------------------------------------- hooks

# (lookup name, span name, counter).  A span name of None only counts,
# into the innermost open span.  Each lookup name is the one a caller in
# the measured ops uses; a function reached under two names is hooked
# under both.
HOOKS = [
    ("meshwave.cli:main", "cli.main", None),
    ("meshwave.cli:load_mesh", "mesh.load_mesh", None),
    ("meshwave.meshio:read_mesh_file", "meshio.read_mesh_file", _read_bytes),
    ("meshwave.mesh:validate_mesh", "mesh.validate_mesh", None),
    ("meshwave.mesh:TriMesh.content_hash", "mesh.content_hash", None),
    ("meshwave.cli:cotangent_laplacian", "mesh.cotangent_laplacian", None),
    ("meshwave.cli:lumped_areas", "mesh.lumped_areas", None),
    ("meshwave.evaluation:lumped_areas", "mesh.lumped_areas", None),
    ("meshwave.cli:eig_generalized", "spectral.eig_generalized", _pairs_kept),
    ("meshwave.spectral:spla.eigsh", None, _eigsh_pairs),
    ("meshwave.cli:save_basis", "spectral.save_basis", _cache_bytes),
    ("meshwave.cli:load_basis", "spectral.load_basis", _cache_bytes),
    ("meshwave.spectral:load_basis", "spectral.load_basis", _cache_bytes),
    ("meshwave.cli:build_filter_bank", "filters.build_filter_bank", None),
    ("meshwave.filters:build_filter_bank", "filters.build_filter_bank", None),
    ("meshwave.descriptors:wavelet_matrix", "wavelets.wavelet_matrix", _atom),
    ("meshwave.model:wavelet_matrix", "wavelets.wavelet_matrix", _atom),
    ("meshwave.cli:weds", "descriptors.weds", None),
    ("meshwave.descriptors:energy_decomposition", "descriptors.energy_decomposition", None),
    ("meshwave.descriptors:minmax_columns", "descriptors.minmax_columns", None),
    ("meshwave.cli:save_descriptors", "descriptors.save_descriptors", None),
    ("meshwave.cli:load_descriptors", "descriptors.load_descriptors", None),
    ("meshwave.descriptors:load_descriptors", "descriptors.load_descriptors", None),
    ("meshwave.model:build_wavelet_operators", "model.build_wavelet_operators", _ops_bytes),
    ("meshwave.model:forward", "model.forward", None),
    ("meshwave.model:backward", "model.backward", None),
    ("meshwave.model:load_checkpoint", "model.load_checkpoint", None),
    ("meshwave.layers:conv_forward", "layers.conv_forward", _conv_fwd),
    ("meshwave.layers:conv_backward", "layers.conv_backward", _conv_bwd),
    ("meshwave.losses:cross_entropy", "losses.cross_entropy", None),
    ("meshwave.losses:hardnet_loss", "losses.hardnet_loss", None),
    ("meshwave.training:adam_step", "training.adam_step", None),
    ("meshwave.evaluation:geodesic_multi", "geodesics.geodesic_multi", _geodesic),
    ("meshwave.cli:nn_match", "evaluation.nn_match", _dist_rows),
    ("meshwave.evaluation:nn_match", "evaluation.nn_match", _dist_rows),
    ("meshwave.evaluation:normalized_errors", "evaluation.normalized_errors", _gathered),
    ("meshwave.cli:cmc_curve", "evaluation.cmc_curve", _dist_rows),
    ("meshwave.cli:read_correspondence", "evaluation.read_correspondence", None),
    ("meshwave.cli:write_correspondence", "evaluation.write_correspondence", None),
]


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _counts(count, result, args, kwargs) -> dict:
    """count's figures, or none when the call's arguments or result no
    longer have the shape it reads: a refactor must not fail the op."""
    if count is None:
        return {}
    try:
        return count(result, *args, **kwargs)
    except Exception as exc:  # reported below; the op goes on
        print(f"perfbench: {count.__name__} skipped: {exc!r}", file=sys.stderr)
        return {}


def _wrapper(tracer: Tracer, name, fn, count):
    if name is None:

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.add_counts(_counts(count, result, args, kwargs))
            return result

        return counting

    @functools.wraps(fn)
    def spanning(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.exit()
        # counted after the span closed, so file stats cost it nothing
        _merge(span.counts, _counts(count, result, args, kwargs))
        return result

    return spanning


class traced:
    """Context manager: hook every HOOKS entry, trace, then restore.

    With memory=True tracemalloc runs too, for the spans' peaks.  A lookup
    name the program no longer has is skipped with a note on stderr; the
    metrics it fed then read 0.
    """

    def __init__(self, memory: bool = False):
        self.tracer = Tracer(memory)
        self._saved = []

    def __enter__(self) -> Tracer:
        for target, name, count in HOOKS:
            try:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                print(f"perfbench: cannot hook {target}; skipped", file=sys.stderr)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(self.tracer, name, original, count))
        if self.tracer.memory:
            tracemalloc.start()
        return self.tracer

    def __exit__(self, *exc):
        if self.tracer.memory:
            tracemalloc.stop()
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


# ----------------------------------------------------------------- metrics


def _total(*names):
    return lambda spans: sum(s.duration for s in spans if s.name in names)


def _self(*names):
    return lambda spans: sum(s.self_s for s in spans if s.name in names)


def _count(key):
    return lambda spans: sum(s.counts.get(key, 0) for s in spans)


def _peak_mb(name):
    return lambda spans: max(
        (s.peak_bytes / 1e6 for s in spans if s.name == name), default=0.0
    )


def _useful_frac(spans):
    computed = _count("computed")(spans)
    return _count("gathered")(spans) / computed if computed else 0.0


# Per-layer metrics of one op, named after the module that does the work.
# Times are inclusive of child spans unless the name says "self".
LAYER_METRICS = {
    "meshio.read_s": ("s", _total("meshio.read_mesh_file")),
    "meshio.read_bytes": ("bytes", _count("read_bytes")),
    "mesh.validate_s": ("s", _total("mesh.validate_mesh")),
    "mesh.laplacian_s": ("s", _total("mesh.cotangent_laplacian")),
    "mesh.areas_s": ("s", _total("mesh.lumped_areas")),
    "mesh.hash_s": ("s", _total("mesh.content_hash")),
    "spectral.eig_s": ("s", _total("spectral.eig_generalized")),
    "spectral.pairs_solved": ("count", _count("pairs_solved")),
    "spectral.pairs_kept": ("count", _count("pairs_kept")),
    "spectral.save_s": ("s", _total("spectral.save_basis")),
    "spectral.load_s": ("s", _total("spectral.load_basis")),
    "spectral.cache_bytes": ("bytes", _count("cache_bytes")),
    "filters.bank_s": ("s", _total("filters.build_filter_bank")),
    "wavelets.atom_s": ("s", _total("wavelets.wavelet_matrix")),
    "wavelets.atom_calls": ("count", _count("atom_calls")),
    "wavelets.atom_bytes": ("bytes", _count("atom_bytes")),
    "descriptors.energy_s": ("s", _total("descriptors.energy_decomposition")),
    "descriptors.weds_self_s": ("s", _self("descriptors.weds")),
    "descriptors.minmax_s": ("s", _total("descriptors.minmax_columns")),
    "descriptors.save_s": ("s", _total("descriptors.save_descriptors")),
    "descriptors.load_s": ("s", _total("descriptors.load_descriptors")),
    "descriptors.peak_traced_mb": ("MB", _peak_mb("descriptors.weds")),
    "model.ops_build_s": ("s", _total("model.build_wavelet_operators")),
    "model.ops_bytes": ("bytes", _count("ops_bytes")),
    "model.forward_s": ("s", _total("model.forward")),
    "model.backward_s": ("s", _total("model.backward")),
    "model.checkpoint_s": ("s", _total("model.load_checkpoint")),
    "layers.conv_fwd_s": ("s", _total("layers.conv_forward")),
    "layers.conv_bwd_s": ("s", _total("layers.conv_backward")),
    "layers.conv_calls": ("count", _count("conv_calls")),
    "layers.conv_flops": ("flop", _count("conv_flops")),
    "losses.xent_s": ("s", _total("losses.cross_entropy")),
    "losses.hardnet_s": ("s", _total("losses.hardnet_loss")),
    "training.adam_s": ("s", _total("training.adam_step")),
    "geodesics.dijkstra_s": ("s", _total("geodesics.geodesic_multi")),
    "geodesics.sources": ("count", _count("sources")),
    "geodesics.table_bytes": ("bytes", _count("table_bytes")),
    "geodesics.useful_frac": ("ratio", _useful_frac),
    "evaluation.match_s": ("s", _total("evaluation.nn_match")),
    "evaluation.errors_self_s": ("s", _self("evaluation.normalized_errors")),
    "evaluation.cmc_s": ("s", _total("evaluation.cmc_curve")),
    "evaluation.dist_rows": ("count", _count("dist_rows")),
    "evaluation.io_s": (
        "s", _total("evaluation.read_correspondence", "evaluation.write_correspondence")
    ),
    "cli.self_s": ("s", _self("cli.main")),
}


# taken from the one op traced with tracemalloc on; the rest from ops without
MEMORY_METRICS = {"descriptors.peak_traced_mb"}


def layer_metrics(spans) -> dict:
    """{metric: value} over the spans of one op."""
    return {name: float(fn(spans)) for name, (_, fn) in LAYER_METRICS.items()}


def span_records(spans, op_index: int) -> list:
    """JSON-ready span records for the spans file."""
    return [
        {
            "op": op_index,
            "id": i,
            "parent": s.parent,
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "self_s": s.self_s,
            "peak_bytes": s.peak_bytes,
            **({"counts": s.counts} if s.counts else {}),
        }
        for i, s in enumerate(spans)
    ]
