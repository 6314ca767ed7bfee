"""The A/B pair summary of benchmarks/ab_pairs.py, on canned perfbench
result lines (no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def _line(op, rss):
    return json.dumps({"correct": True, "attempted": 40, "failed": 0, "metrics": {
        "op_norm_s": {"value": op, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def _report(parent, change, better=None):
    report = ab_pairs.summarize([_line(*m) for m in parent], [_line(*m) for m in change],
                                better)
    assert report[0] == f"{len(parent)} pairs"
    return {line.split(":")[0]: line for line in report[1:]}


def test_a_clear_gain_holds():
    parent = [(0.228 + 0.001 * (i % 5), 120.0) for i in range(10)]
    change = [(0.210 + 0.001 * (i % 5), 120.0) for i in range(10)]
    report = _report(parent, change)
    assert "change won 10 of 10" in report["op_norm_s"]
    assert report["op_norm_s"].endswith("gain holds")
    assert "parent median 0.23 " in report["op_norm_s"]
    # equal values are ties, which count for neither side
    assert "change won 0 of 10" in report["peak_rss_mb"]
    assert report["peak_rss_mb"].endswith("does not hold")


def test_eight_wins_in_ten_do_not_hold():
    parent = [(0.228, 120.0)] * 10
    change = [(0.200, 120.0)] * 8 + [(0.240, 120.0)] * 2
    assert _report(parent, change)["op_norm_s"].endswith("does not hold")


def test_a_gap_inside_the_parent_iqr_does_not_hold():
    parent = [(0.20 + 0.01 * i, 120.0) for i in range(10)]  # IQR about 0.055
    change = [(v - 0.02, rss) for v, rss in parent]
    report = _report(parent, change)["op_norm_s"]
    assert "change won 10 of 10" in report and report.endswith("does not hold")


def test_higher_is_better_flips_the_winner():
    parent = [(0.2, 100.0 + i) for i in range(10)]
    change = [(0.2, 150.0 + i) for i in range(10)]
    assert "change won 0 of 10" in _report(parent, change)["peak_rss_mb"]
    report = _report(parent, change, {"peak_rss_mb": "higher"})["peak_rss_mb"]
    assert "change won 10 of 10" in report and report.endswith("gain holds")
