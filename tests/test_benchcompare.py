"""tools/benchcompare.py: the summary of alternating pairs and the
differences of traced counts, on made-up result lines."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                     "tools", "benchcompare.py")
_spec = importlib.util.spec_from_file_location("benchcompare", _PATH)
benchcompare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchcompare)

METRICS = {"work_refs": {"better": "lower", "bound": 0.1},
           "peak_rss_mb": {"better": "lower", "bound": 0.05}}


def runs(pairs):
    """Result lines of alternating pairs, (parent, change) values of
    work_refs and peak_rss_mb per pair."""
    out = []
    for pair, values in enumerate(pairs, 1):
        for side, (work, rss) in zip(("parent", "change"), zip(*values)):
            out.append({"workload": "certify", "seed": 1, "pair": pair,
                        "side": side, "result": {"metrics": {
                            "work_refs": {"value": work},
                            "peak_rss_mb": {"value": rss}}}})
    return out


def test_summary_applies_the_gain_rule_and_the_bounds():
    # work_refs falls in 9 of 10 pairs, by more than the parent's
    # quartile spread; peak_rss_mb rises 10 %, beyond its 5 % bound
    pairs = [((116 + i % 3, 100 + i % 2), (20.0, 22.0)) for i in range(9)]
    pairs.append(((116, 117), (20.0, 22.0)))
    summary = benchcompare.summarize(runs(pairs), METRICS)["certify seed 1"]
    work = summary["work_refs"]
    assert work["change_better"] == "9/10" and work["gain_rule_met"]
    assert work["parent"]["median"] == 117 and work["change"]["n"] == 10
    assert work["within_bound"]
    rss = summary["peak_rss_mb"]
    assert rss["change_better"] == "0/10" and not rss["gain_rule_met"]
    assert not rss["within_bound"]
    # 8 of 10 is short of nine tenths
    pairs[0] = ((116, 117), (20.0, 22.0))
    summary = benchcompare.summarize(runs(pairs), METRICS)["certify seed 1"]
    assert summary["work_refs"]["change_better"] == "8/10"
    assert not summary["work_refs"]["gain_rule_met"]


def test_count_delta_compares_counts_only():
    def line(products, refs):
        return {"metrics": {
            "kernel.term_products": {"value": products, "unit": "count"},
            "cli.json_bytes_out": {"value": 10, "unit": "B"},
            "kernel.self_refs": {"value": refs, "unit": "ref"}}}
    assert benchcompare.count_delta(line(125309, 80.0),
                                    line(91877, 68.0)) == {
        "kernel.term_products": -33432}
    assert benchcompare.count_delta(line(7, 1.0), line(7, 2.0)) == {}


def test_code_digest_covers_src_and_layerbench_only(tmp_path):
    for sub in ("src/bsfour", "layerbench", "docs"):
        (tmp_path / sub).mkdir(parents=True)
    (tmp_path / "src/bsfour/hermform.py").write_text("A = 1\n")
    (tmp_path / "layerbench/run.py").write_text("pass\n")
    (tmp_path / "docs/form.md").write_text("text\n")
    before = benchcompare.code_digest(tmp_path)
    (tmp_path / "docs/form.md").write_text("other text\n")
    (tmp_path / "src/bsfour/__pycache__").mkdir()
    (tmp_path / "src/bsfour/__pycache__/hermform.pyc").write_bytes(b"x")
    assert benchcompare.code_digest(tmp_path) == before
    (tmp_path / "src/bsfour/hermform.py").write_text("A = 2\n")
    assert benchcompare.code_digest(tmp_path) != before


def test_an_existing_record_is_not_replaced(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(benchcompare, "ROOT", str(tmp_path))
    record = tmp_path / "BENCH_x.json"
    record.write_text("{}\n")
    with pytest.raises(SystemExit) as exit_info:
        benchcompare.main(["HEAD", "--label", "x"])
    assert exit_info.value.code == 2
    assert "--force" in capsys.readouterr().err
    assert record.read_text() == "{}\n"
