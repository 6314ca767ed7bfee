"""benchmarks/geodesic_scale.py in its quick mode, with this checkout on
both sides: it builds the 642-vertex error map, times both sides and finds
their distances equal."""

import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_quick_scale_run_finds_equal_distances():
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "benchmarks" / "geodesic_scale.py"), str(_ROOT),
         str(_ROOT), "--quick", "--runs", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    vertices, pairs, distinct = (int(w.split()[0]) for w in lines[0].split(", "))
    assert vertices == 642 and pairs > distinct > 0
    assert [ln.endswith("equal arrays") for ln in lines[1:3]] == [True, True]
    assert lines[3].startswith("median: parent ")
