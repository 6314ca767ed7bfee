"""The names the benchmark harness in perfbench/ looks up in meshwave.

perfbench's traced run wraps meshwave functions at the module attributes
listed in ``perfbench/tracing.py`` HOOKS; a target that no longer resolves
is skipped with a note, and its metrics then read 0 without failing. Its
workloads call meshwave's library directly, and a call that no longer
binds fails the run. These tests read the harness's sources (they import
and change none of them) so that a refactor which renames or moves a
hooked name, drops the flag ``perfbench/run.py`` records,
changes a signature the workloads call, changes the length of the tuple
they unpack from ``load_checkpoint``, drops a model attribute the
workloads read, or changes an output format they parse themselves, fails
here instead.
"""

import ast
import contextlib
import importlib
import inspect
import io
import struct
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _hook_targets() -> list:
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["HOOKS"]:
            return [entry.elts[0].value for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py has no HOOKS table")


def test_every_cli_hook_target_resolves():
    targets = [t for t in _hook_targets() if t.startswith("meshwave.cli:")]
    assert len(targets) >= 15
    cli = importlib.import_module("meshwave.cli")
    missing = [t for t in targets if not hasattr(cli, t.partition(":")[2])]
    assert missing == []


# names meshwave no longer has; their metrics read 0 until perfbench reads spans
_GONE = {
    "meshwave.spectral:spla.eigsh",
    "meshwave.descriptors:wavelet_matrix",
    "meshwave.model:wavelet_matrix",
    "meshwave.descriptors:energy_decomposition",
    "meshwave.descriptors:minmax_columns",
    "meshwave.evaluation:geodesic_multi",
}


def test_every_other_hook_target_resolves():
    targets = [t for t in _hook_targets() if not t.startswith("meshwave.cli:") and t not in _GONE]
    assert len(targets) >= 15
    missing = []
    for target in targets:
        module, _, path = target.partition(":")
        owner = importlib.import_module(module)
        for name in path.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(target)
    assert missing == []


def test_run_records_the_kernels_numba_flag():
    assert "_kernels.USE_NUMBA" in (PERFBENCH / "run.py").read_text(encoding="utf-8")
    assert isinstance(importlib.import_module("meshwave._kernels").USE_NUMBA, bool)


def _workload_calls() -> list:
    """(line, module, attribute, positional count, keyword names) of each
    call of a meshwave module attribute in perfbench/workloads.py; starred
    arguments are left out, as their length is not known here."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.module == "meshwave"
               for alias in node.names}
    return [(node.lineno, modules[node.func.value.id], node.func.attr,
             sum(not isinstance(a, ast.Starred) for a in node.args),
             [k.arg for k in node.keywords if k.arg is not None])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id in modules]


def test_every_workload_library_call_binds():
    calls = _workload_calls()
    called = {(module, attr) for _, module, attr, _, _ in calls}
    assert {("descriptors", "weds"), ("training", "TrainConfig"), ("cli", "main")} <= called
    unbound = []
    for line, module, attr, n_args, keywords in calls:
        target = getattr(importlib.import_module(f"meshwave.{module}"), attr, None)
        try:
            inspect.signature(target).bind_partial(*[None] * n_args, **dict.fromkeys(keywords))
        except (TypeError, ValueError) as exc:
            unbound.append(f"workloads.py:{line}: {module}.{attr}: {exc}")
    assert unbound == []


def test_every_unpacking_of_load_checkpoint_takes_what_it_returns(tmp_path):
    # the workloads unpack load_checkpoint's tuple by position, so its
    # length cannot change before they do
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    counts = [(node.lineno, len(node.targets[0].elts)) for node in ast.walk(tree)
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
              and isinstance(node.value, ast.Call)
              and ast.unparse(node.value.func) == "model.load_checkpoint"]
    model = importlib.import_module("meshwave.model")
    model.save_checkpoint(tmp_path / "net.npz", model.build_model("FC4", input_dim=3))
    returned = len(model.load_checkpoint(tmp_path / "net.npz"))
    assert len(counts) >= 2 and all(n == returned for _, n in counts), (counts, returned)


def _model_attributes() -> set:
    """Every attribute perfbench/workloads.py reads on a model object, the
    name ``net`` or the attribute ``self.net``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))

    def is_model(node):
        if isinstance(node, ast.Name):
            return node.id == "net"
        return (isinstance(node, ast.Attribute) and node.attr == "net"
                and isinstance(node.value, ast.Name) and node.value.id == "self")

    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and is_model(node.value)}


def test_every_model_attribute_the_workloads_read_exists(tmp_path):
    attributes = _model_attributes()
    assert {"scale_sets", "specs", "params"} <= attributes
    model = importlib.import_module("meshwave.model")
    net = model.build_model(model.DEFAULT_ARCHITECTURE, input_dim=8)
    model.save_checkpoint(tmp_path / "net.npz", net)
    loaded, _, _, _ = model.load_checkpoint(tmp_path / "net.npz")
    for obj in (net, loaded):
        assert [a for a in sorted(attributes) if not hasattr(obj, a)] == []


def test_the_outputs_the_workloads_parse_keep_their_format(tmp_path):
    # the describe and correspond workloads read the CLI's outputs with their
    # own parsers, not meshwave's; each parse below is theirs, on a bar pair
    cli, synthetic = (importlib.import_module(f"meshwave.{m}") for m in ("cli", "synthetic"))
    descriptors, evaluation = (importlib.import_module(f"meshwave.{m}")
                               for m in ("descriptors", "evaluation"))
    for tag, curvature in zip("ab", (0.2, 0.5)):  # written as workloads.write_off does
        pose = synthetic.bent_bar(curvature, 16, 10)
        lines = [f"OFF\n{len(pose.vertices)} {len(pose.triangles)} 0"]
        lines += [f"{x!r} {y!r} {z!r}" for x, y, z in pose.vertices.tolist()]
        lines += [f"3 {a} {b} {c}" for a, b, c in pose.triangles.tolist()]
        (tmp_path / f"{tag}.off").write_text("\n".join(lines) + "\n")
    (tmp_path / "gt.txt").write_text("".join(f"{i}\n" for i in range(160)))
    a, b, cache, corr, prefix = (tmp_path / name for name in
                                 ("a.mwd", "b.mwd", "basis.npz", "map.txt", "report"))
    runs = [["basis", tmp_path / "a.off", "-k", 20, "-o", cache, "--force"],
            ["descriptor", tmp_path / "a.off", "--type", "weds", "--num", 16, "-k", 20,
             "--basis", cache, "-o", a],
            ["descriptor", tmp_path / "b.off", "--type", "weds", "--num", 16, "-k", 20, "-o", b],
            ["match", a, b, "-o", corr],
            ["eval", corr, tmp_path / "gt.txt", tmp_path / "b.off", "--desc-a", a,
             "--desc-b", b, "-o", prefix]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert [cli.main([str(x) for x in argv]) for argv in runs] == [0] * len(runs)

    with np.load(cache) as data:
        lam, vecs, areas = data["eigenvalues"], data["eigenvectors"], data["areas"]
    assert (lam.shape, vecs.shape, areas.shape) == ((20,), (160, 20), (160,))
    for path in (a, b):  # workloads.read_mwd
        data = path.read_bytes()
        n, d, meta_len = struct.unpack_from("<QQQ", data, 8)
        values = np.frombuffer(data[32 + meta_len:], dtype="<f8").reshape(n, d)
        assert data[:4] == b"MWDF" and (n, d) == (160, 16)
        assert np.array_equal(values, descriptors.load_descriptors(path).values)
    rows = [ln for ln in corr.read_text().splitlines() if ln and not ln.startswith("#")]
    assert np.array_equal(np.array(rows, dtype=np.int64), evaluation.read_correspondence(corr))
    summary = {}
    for line in prefix.with_suffix(".summary.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        summary[key.strip()] = float(value)
    assert {"exact_match_rate", "age_direct_x1e3"} <= set(summary)
    assert 0 <= summary["exact_match_rate"] <= 1 and summary["age_direct_x1e3"] >= 0
    cmc = [float(ln.split(",")[2]) for ln in
           prefix.with_suffix(".curves.csv").read_text().splitlines() if ln.startswith("cmc,")]
    assert len(cmc) == 100 and (np.diff(cmc) >= 0).all() and cmc[-1] <= 1.0
