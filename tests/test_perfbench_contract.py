"""The names the benchmark harness in perfbench/ looks up in meshwave.

perfbench's traced run wraps meshwave functions at the module attributes
listed in ``perfbench/tracing.py`` HOOKS; a target that no longer resolves
is skipped with a note, and its metrics then read 0 without failing. These
tests read the harness's sources (they import and change none of them) so
that a refactor which moves a hooked name out of ``meshwave.cli``, or drops
the flag ``perfbench/run.py`` records, fails here instead.
"""

import ast
import importlib
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


def test_run_records_the_kernels_numba_flag():
    assert "_kernels.USE_NUMBA" in (PERFBENCH / "run.py").read_text(encoding="utf-8")
    assert isinstance(importlib.import_module("meshwave._kernels").USE_NUMBA, bool)
