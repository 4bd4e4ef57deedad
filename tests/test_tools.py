import hashlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


paired_bench = _tool("paired_bench")
column_moves = _tool("column_moves")
output_digest = _tool("output_digest")


def _record(wall, rss, correct=True, failed=0):
    return {"correct": correct, "attempted": 33, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_parse_seeds():
    assert paired_bench.parse_seeds("0-9") == list(range(10))
    assert paired_bench.parse_seeds("3") == [3]
    assert paired_bench.parse_seeds("0-2,7") == [0, 1, 2, 7]


def test_summarize_synthetic_pairs():
    parent_walls = [1.0, 1.2, 1.1, 1.3, 0.9]
    change_walls = [0.8, 0.9, 1.2, 1.0, 0.7]
    pairs = [{"parent": _record(p, 85.0), "change": _record(c, 85.0 + i % 2)}
             for i, (p, c) in enumerate(zip(parent_walls, change_walls))]
    pairs[2]["change"] = _record(1.2, 85.0, correct=False, failed=2)
    s = paired_bench.summarize(pairs, {})
    assert s["pairs"] == 5
    wall = s["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["parent"]["median"] == 1.1
    assert wall["change"]["median"] == 0.9
    # statistics.quantiles(n=4), 'exclusive' method: q1 0.95, q3 1.25
    assert wall["parent"]["q1"] == pytest.approx(0.95)
    assert wall["parent"]["q3"] == pytest.approx(1.25)
    assert wall["parent_spread"] == pytest.approx(0.30 / 1.1)
    assert wall["change_wins"] == 4              # pair 3 reads 1.2 vs 1.1
    rss = s["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 0               # equal or higher every time
    assert rss["parent_spread"] == 0.0
    assert s["parent"] == {"correct": 5, "failed": 0, "attempted": 165}
    assert s["change"] == {"correct": 4, "failed": 2, "attempted": 165}
    text = paired_bench.format_summary(s)
    assert "wall_s" in text and " 4/5" in text
    assert "change: correct 4/5 runs, failed 2 of 165 operations" in text


def test_summarize_single_pair():
    s = paired_bench.summarize([{"parent": _record(1.0, 80.0),
                                 "change": _record(0.5, 80.0)}], {})
    wall = s["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert wall["change_wins"] == 1


def test_load_bounds(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                        "bound": 0.25},
                       {"name": "peak_rss_mb", "unit": "MB",
                        "better": "lower", "bound": 0.05}],
        "per_layer": [{"name": "inner.evaluate.s", "unit": "s",
                       "better": "lower"}]}))
    assert paired_bench.load_bounds(tmp_path) == {"wall_s": 0.25,
                                                  "peak_rss_mb": 0.05}


def test_verdict_rules():
    parent = [84.2, 84.3, 84.3, 84.4, 84.5, 84.3, 84.2, 84.4, 84.3, 84.5]
    # 9 of 10 wins and a median 5 MB below a 0.2 MB parent IQR
    gain = [79.1] * 9 + [84.6]
    assert paired_bench.verdict(parent, gain, 0.05) == "gain"
    assert paired_bench.verdict(parent, gain, None) == "gain"
    # 8 of 10 wins is no gain, however large the median change
    assert paired_bench.verdict(parent, [79.1] * 8 + [84.6] * 2,
                                0.05) == "within bound"
    # 10 wins by less than the parent IQR is no gain either
    assert paired_bench.verdict(parent, [p - 0.01 for p in parent],
                                0.05) == "within bound"
    assert paired_bench.verdict(parent, [p - 0.01 for p in parent],
                                None) == "-"
    # median 6 % above the parent's against a 5 % bound
    assert paired_bench.verdict(parent, [89.4] * 10, 0.05) == "worse"
    assert paired_bench.verdict(parent, [88.0] * 10, 0.05) == "within bound"
    # a parent spread wider than the bound decides nothing ...
    noisy = [1.0, 0.6, 1.4, 0.8, 1.2, 0.7, 1.3, 0.9, 1.1, 1.0]
    assert paired_bench.verdict(noisy, [1.0] * 10, 0.25) == "unresolved"
    assert paired_bench.verdict(noisy, [0.3] * 10, 0.25) == "gain"
    # ... unless every change run reads below every parent run
    skewed = [0.9, 0.9, 0.9, 0.9, 0.95, 1.0, 1.5, 2.0, 2.5, 3.0]
    assert paired_bench.verdict(skewed, [0.85] * 10, 0.25) == "within bound"
    assert paired_bench.verdict(skewed, [0.85] * 9 + [0.95],
                                0.25) == "unresolved"


def test_summarize_reports_median_change_and_verdict():
    parent_rss = [84.2, 84.3, 84.3, 84.4, 84.5, 84.3, 84.2, 84.4, 84.3, 84.5]
    pairs = [{"parent": _record(0.86, p), "change": _record(0.86, p - 5.2)}
             for p in parent_rss]
    s = paired_bench.summarize(pairs, {"wall_s": 0.25})
    rss, wall = s["metrics"]["peak_rss_mb"], s["metrics"]["wall_s"]
    assert rss["median_change_pct"] == pytest.approx(-520 / 84.3)
    assert (rss["bound"], rss["verdict"]) == (None, "gain")
    assert wall["median_change_pct"] == 0.0
    assert (wall["bound"], wall["verdict"]) == (0.25, "within bound")
    text = paired_bench.format_summary(s)
    assert "-6.2%" in text and "gain" in text and "within bound" in text


def test_output_digest_keeps_each_hashed_output(tmp_path, capsys):
    keep = tmp_path / "keep"
    keep.mkdir()
    report = tmp_path / "report.csv"
    report.write_text("l,kappa\n8,1.0\n")
    output_digest._emitter(keep)(report, "validate asym csv delta=0.0")
    output_digest._emitter(None)(report, "validate asym csv delta=0.0")
    sha = hashlib.sha256(report.read_bytes()).hexdigest()
    assert capsys.readouterr().out.splitlines() == \
        [f"{sha}  validate asym csv delta=0.0"] * 2
    kept = keep / "validate_asym_csv_delta=0.0.csv"
    assert [p.name for p in keep.iterdir()] == [kept.name]
    assert kept.read_bytes() == report.read_bytes()


def test_output_digest_expect_names_each_differing_label(capsys):
    saved = "aa  artifact asym\nbb  artifact uniform\ncc  oracle asym\n"
    same = ["aa  artifact asym", "bb  artifact uniform", "cc  oracle asym"]
    assert output_digest.differing_labels(saved, same) == []
    assert output_digest.report_differences(saved, same) == 0
    assert capsys.readouterr().err == ""
    # one hash moved, one label missing from the run, one new to it
    run = ["aa  artifact asym", "b2  artifact uniform", "dd  sweep asym"]
    assert output_digest.differing_labels(saved, run) == \
        ["artifact uniform", "sweep asym", "oracle asym"]
    assert output_digest.report_differences(saved, run) == 1
    assert capsys.readouterr().err.splitlines() == [
        "differs: artifact uniform", "differs: sweep asym",
        "differs: oracle asym"]


def test_output_digest_emitter_collects_its_lines(tmp_path, capsys):
    report = tmp_path / "report.csv"
    report.write_text("l\n8\n")
    lines = []
    output_digest._emitter(None, lines)(report, "validate asym csv")
    assert lines == capsys.readouterr().out.splitlines()
    assert output_digest.differing_labels("\n".join(lines), lines) == []


def test_relative_move():
    assert column_moves.relative_move(2.0, 2.0) == 0.0
    assert column_moves.relative_move(-4.0, -3.0) == 0.25
    assert column_moves.relative_move(math.nan, math.nan) == 0.0
    assert column_moves.relative_move(0.0, 1e-30) == math.inf
    assert column_moves.relative_move(1.0, math.nan) == math.inf


def _write_outputs(root, kappa, l2, slope, lam=3.0, note="ok"):
    root.mkdir()
    (root / "report.json").write_text(json.dumps({
        "n": 2, "rows": [{"l": 8, "kappa": kappa[0], "l2_inner": l2,
                          "lambda_oracle": lam, "valid": True, "note": note},
                         {"l": 9, "kappa": kappa[1], "l2_inner": None,
                          "lambda_oracle": lam, "valid": True, "note": note}],
        "fits": {"l2_inner": {"slope": slope}}}))
    (root / "report.csv").write_text(
        "l,kappa,lambda_oracle\n"
        f"8,{kappa[0]!r},{lam!r}\n9,{kappa[1]!r},{lam!r}\n")
    (root / "artifact.json").write_text(json.dumps({"lambdas": [lam, 1.0]}))


def test_column_moves_on_synthetic_outputs(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    _write_outputs(old, kappa=(1.0, 2.0), l2=1e-8, slope=3.0)
    _write_outputs(new, kappa=(1.0 + 1e-13, 2.0 - 8e-13), l2=1.1e-8,
                   slope=3.0, note="changed")
    (new / "extra.json").write_text("{}")
    result = column_moves.compare(old, new)
    moves = result["moves"]
    assert moves["json rows[].kappa"]["values"] == 2
    assert moves["json rows[].kappa"]["moved"] == 2
    assert moves["json rows[].kappa"]["largest"] == pytest.approx(4e-13)
    assert moves["csv kappa"]["largest"] == pytest.approx(4e-13)
    assert moves["csv kappa"]["file"] == "report.csv"
    assert moves["json rows[].l2_inner"]["largest"] == pytest.approx(0.1)
    for key in ("json rows[].lambda_oracle", "csv lambda_oracle",
                "json fits.l2_inner.slope", "json rows[].l"):
        assert (moves[key]["moved"], moves[key]["largest"]) == (0, 0.0)
    assert "json n" in moves and "json rows[].valid" not in moves
    assert result["identical"] == ["artifact.json"]
    assert (result["only_old"], result["only_new"]) == ([], ["extra.json"])
    assert result["changed"] == [("report.json", "rows[].note", "ok",
                                  "changed")] * 2
    assert column_moves.main([str(old), str(new)]) == 0
    text = capsys.readouterr().out
    assert "json rows[].kappa" in text and "4e-13" in text
    assert "byte-identical files: 1" in text and "only new: extra.json" in text
