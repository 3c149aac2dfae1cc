"""tools/compare_corpus.py: numeric fields may move, anything else fails the comparison."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_corpus.py"
_spec = importlib.util.spec_from_file_location("compare_corpus", TOOL)
compare_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_corpus)

REPORT = {
    "config": {"input": "/corpus/plant.json", "tol": 1e-9},
    "result": {
        "ok": True,
        "checks": [{"name": "channel_preservation", "ok": True, "residual": 8e-16, "detail": ""}],
        "blocks": [{"n": 2, "p": 0.5, "isometry": [[[1.0, 0.0]]]}],
    },
    "residuals": {"worst_residual": 8e-16},
}
TEXT = "result.info_classical = 0.9\nresult.ok = True\nresiduals.mixture = 3e-16\n"
CODES = "case/verify.json: exit 0; stderr ''\n"


def _tree(root: Path, report=REPORT, text=TEXT, codes=CODES) -> Path:
    (root / "case").mkdir(parents=True)
    (root / "case" / "verify.json.stdout").write_text(json.dumps(report), encoding="utf-8")
    (root / "case" / "measures.text.stdout").write_text(text, encoding="utf-8")
    (root / "codes.txt").write_text(codes, encoding="utf-8")
    return root


def _edited(**changes):
    report = json.loads(json.dumps(REPORT))
    for path, value in changes.items():
        node = report
        *parents, last = path.split("/")
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        node[last] = value
    return report


def test_field_classes():
    assert compare_corpus.field_class("residuals.worst_residual") == "residual"
    assert compare_corpus.field_class("result.checks[5].residual") == "residual"
    assert compare_corpus.field_class("result.blocks[0].isometry[1][2][0]") == "gauge"
    assert compare_corpus.field_class("result.blocks[1].rho_J_avg[0][0][1]") == "gauge"
    assert compare_corpus.field_class("result.states[0].matrix[0][1][0]") == "gauge"
    assert compare_corpus.field_class("result.blocks[0].n") == "invariant"
    assert compare_corpus.field_class("result.info_nonclassical") == "invariant"


def test_numeric_differences_are_reported_by_class(tmp_path, capsys):
    a = _tree(tmp_path / "a")
    moved = _edited(**{"result/blocks/0/isometry": [[[0.5, 0.0]]], "residuals/worst_residual": 9e-16})
    b = _tree(tmp_path / "b", report=moved, text=TEXT.replace("0.9", "0.90000001"))
    assert compare_corpus.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "2 of 3 files differ" in out
    assert "invariant: largest |diff| 1e-08 at case/measures.text.stdout result.info_classical" in out
    assert "gauge: largest |diff| 0.5" in out
    assert "residual: largest |diff| 1e-16" in out
    assert "0 non-numeric differences" in out


def test_identical_trees_pass(tmp_path, capsys):
    assert compare_corpus.main([str(_tree(tmp_path / "a")), str(_tree(tmp_path / "b"))]) == 0
    assert "0 of 3 files differ" in capsys.readouterr().out


def test_structural_differences_fail(tmp_path):
    a = _tree(tmp_path / "a")
    cases = {
        "ok": dict(report=_edited(**{"result/ok": False})),
        "name": dict(report=_edited(**{"result/checks/0/name": "reconstruction"})),
        "non-finite": dict(report=_edited(**{"residuals/worst_residual": "inf"})),
        "text": dict(text=TEXT.replace("True", "False")),
        "exit code": dict(codes=CODES.replace("exit 0", "exit 3")),
    }
    for label, change in cases.items():
        assert compare_corpus.main([str(a), str(_tree(tmp_path / label, **change))]) == 1, label
    missing = _tree(tmp_path / "missing")
    (missing / "case" / "measures.text.stdout").unlink()
    assert compare_corpus.main([str(a), str(missing)]) == 1
