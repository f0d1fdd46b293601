"""Smoke test of tools/bench_pair.py: a tiny run of the change against
itself, and the paired summary on hand-made runs.

    PYTHONPATH=src python -m pytest -q tools
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_pair  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_summary_counts_wins_by_direction():
    runs = [
        {"parent": {"items_per_s": p, "setup_s": 1.0}, "change": {"items_per_s": c, "setup_s": s}}
        for p, c, s in [(10, 15, 0.5), (12, 11, 2.0), (11, 20, 1.0), (9, 16, 0.9)]
    ]
    better = {"items_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}
    summary = bench_pair.summarize(runs, better)
    assert set(summary) == {"items_per_s", "setup_s"}
    rate = summary["items_per_s"]
    assert rate["change_wins"] == 3 and rate["pairs"] == 4
    assert rate["parent"]["median"] == 10.5 and rate["change"]["median"] == 15.5
    assert rate["ratio"] == 15.5 / 10.5
    assert rate["parent"]["iqr"] == rate["parent"]["q3"] - rate["parent"]["q1"] > 0
    assert summary["setup_s"]["change_wins"] == 2  # a tie counts for neither


def test_smoke_run_writes_the_report(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    proc = subprocess.run(
        [sys.executable, "tools/bench_pair.py", "--smoke", "--parent-tree", ROOT,
         "--slug", "smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["src_sha256"]["parent"] == report["src_sha256"]["change"]
    for part in (report["end_to_end"]["long-words"], report["heldout_long_words"]):
        (row,) = part["runs"]
        for side in ("parent", "change"):
            assert row[side]["exit"] == 0 and row[side]["correct"], row
            assert {"setup_s", "peak_rss_mb", "items_per_s"} <= set(row[side])
        assert set(part["summary"]) == {"setup_s", "peak_rss_mb", "items_per_s"}
    assert report["heldout_long_words"]["seed"] == 7913
    for side in ("parent", "change"):
        for kind in ("random", "adversarial"):
            rows = report["per_word_s"][side][kind]
            assert set(rows) == {"9", "300"}
            for times in rows.values():
                assert set(times) == {
                    "slice_encode", "slice_decode", "lehmer_encode", "lehmer_decode"
                }
                assert all(t > 0 for t in times.values())
