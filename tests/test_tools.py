import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", _PATH)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)


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
    s = paired_bench.summarize(pairs)
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
                                 "change": _record(0.5, 80.0)}])
    wall = s["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert wall["change_wins"] == 1
