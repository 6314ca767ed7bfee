"""The A/B pair summary of benchmarks/ab_pairs.py (gain rule, per-pair
ratios, run-order medians and no-regression verdict) and its workload
list, on canned perfbench result lines (no benchmark runs)."""

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


def _report(parent, change, better=None, bounds=None):
    report = ab_pairs.summarize([_line(*m) for m in parent], [_line(*m) for m in change],
                                better, bounds)
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


def test_the_runs_that_went_first_and_second_have_their_own_medians():
    # pair i even ran the parent first; here the second run of each pair is
    # 0.01 s faster whichever side it was, and the sides tie in the median
    parent = [(0.20 if i % 2 == 0 else 0.19, 120.0) for i in range(10)]
    change = [(0.19 if i % 2 == 0 else 0.20, 120.0) for i in range(10)]
    report = _report(parent, change)["op_norm_s"]
    assert "parent median 0.195 " in report and "change median 0.195 " in report
    assert "; run first median 0.2, run second median 0.19; " in report
    assert "run first median 120, run second median 120; " in _report(parent, change)[
        "peak_rss_mb"]


def test_per_pair_ratios_have_their_own_median_and_quartiles():
    # the sides' medians alone read an 8% gain; the pairs show its spread
    parent = [(0.50 + 0.01 * i, 120.0) for i in range(10)]
    change = [(p * r, 120.0) for (p, _), r in
              zip(parent, (0.85, 0.9, 0.9, 0.92, 0.92, 0.92, 0.95, 0.95, 1.0, 1.02))]
    report = _report(parent, change)
    assert ("; per-pair ratio change/parent median 0.92 (quartiles 0.9, 0.9625); "
            in report["op_norm_s"])
    assert "; per-pair ratio change/parent median 1 (quartiles 1, 1); " in report["peak_rss_mb"]
    # a parent value of 0 gives no ratio; the other pairs still do
    zeros = _report([(0.0, 120.0), (0.2, 120.0)], [(0.1, 120.0), (0.1, 120.0)])
    assert "; per-pair ratio change/parent median 0.5 (quartiles 0.5, 0.5); " in zeros["op_norm_s"]
    none = _report([(0.0, 120.0)], [(0.1, 120.0)])["op_norm_s"]
    assert "; per-pair ratio change/parent median nan (quartiles nan, nan); " in none


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


def _verdict(parent_ops, change_ops):
    report = _report([(op, 120.0) for op in parent_ops], [(op, 120.0) for op in change_ops],
                     bounds={"op_norm_s": 0.25, "peak_rss_mb": 0.05})
    assert report["peak_rss_mb"].endswith("; no regression: within bound")
    return report["op_norm_s"].rsplit("; no regression: ", 1)[1]


def test_no_regression_verdict_against_the_bound():
    parent = [0.20 + 0.002 * (i % 5) for i in range(10)]
    assert _verdict(parent, [v * 1.2 for v in parent]) == "within bound"
    assert _verdict(parent, [v * 1.3 for v in parent]) == "regressed"
    assert _verdict(parent, [v * 0.5 for v in parent]) == "within bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [0.1, 0.1, 0.1, 0.3, 0.3, 0.3, 0.5, 0.5, 0.5, 0.5]  # IQR 0.4 around 0.3
    assert _verdict(parent, parent) == "unresolved"
    assert _verdict(parent, [0.09] * 10) == "within bound"  # every change run is better
    assert _verdict(parent, [0.09] * 9 + [0.11]) == "unresolved"


def test_a_workload_list_reports_each_workload_in_its_own_rows(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "op_norm_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]}))
    runs = []

    def run_once(checkout, workload, args, seed):
        runs.append((workload, seed))
        op = {"learn": 0.5, "describe": 0.2}[workload]
        return _line(op * (0.8 if checkout.name == "change" else 1.0), 100.0)

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    assert ab_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                          "--workload", "learn, describe", "--pairs", "2", "--seed", "5"]) == 0
    assert runs == [(w, 5) for w in ("learn", "describe") for _ in range(4)]  # one seed
    rows = capsys.readouterr().out.splitlines()[-6:]
    assert rows[0] == "learn 2 pairs" and rows[3] == "describe 2 pairs"
    assert rows[1].startswith("learn op_norm_s: parent median 0.5 ")
    assert rows[4].startswith("describe op_norm_s: parent median 0.2 ")
    assert all(row.endswith("no regression: within bound") for row in rows if "median" in row)
