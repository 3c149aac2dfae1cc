"""tools/mutation_gate.py: every named substitution still finds its one target."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutation_gate.py"
_spec = importlib.util.spec_from_file_location("mutation_gate", TOOL)
mutation_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutation_gate)


def test_every_substitution_matches_exactly_once():
    assert mutation_gate.mismatches(mutation_gate.MUTANTS) == []
    names = [m.name for m in mutation_gate.MUTANTS]
    assert len(set(names)) == len(names)
    assert all(m.old != m.new for m in mutation_gate.MUTANTS)


def test_an_ambiguous_or_stale_substitution_exits_2_before_any_run(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(mutation_gate, "run_tier1", lambda mutant: ran.append(mutant))
    path = "src/kidecomp/decompose.py"
    for old in ("tol", "no such text"):
        monkeypatch.setattr(mutation_gate, "MUTANTS", (mutation_gate.Mutant("m", path, old, "x"),))
        assert mutation_gate.main([]) == 2
        assert f"{old!r} occurs" in capsys.readouterr().err
    assert not ran
