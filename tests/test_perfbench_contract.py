"""The names the benchmark harness in perfbench/ looks up in meshwave.

perfbench's traced run wraps meshwave functions at the module attributes
listed in ``perfbench/tracing.py`` HOOKS; a target that no longer resolves
is skipped with a note, and its metrics then read 0 without failing. Its
workloads call meshwave's library directly, and a call that no longer
binds fails the run. These tests read the harness's sources (they import
and change none of them) so that a refactor which renames or moves a
hooked name, drops the flag ``perfbench/run.py`` records,
changes a signature the workloads call, changes the length of the tuple
they unpack from ``load_checkpoint``, or drops a model attribute the
workloads read, fails here instead.
"""

import ast
import importlib
import inspect
from pathlib import Path

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
