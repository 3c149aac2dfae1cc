"""tools/perf_gate.py: one tiny op timed against the committed tree, in one interpreter."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "perf_gate.py"
# the bench's values that the tool's ops copy, under the bench's names
BENCH_NAMES = (
    "PROTOCOL_PLANTS",
    "PROTOCOL_PLANT_SEED",
    "SWEEP_MESSAGES",
    "SWEEP_DELTAS",
    "SWEEP_TRIALS",
    "SWEEP_SEED",
    "INDIVIDUAL_TRIALS",
    "LADDER",
    "LADDER_PLANT_SEED",
    "LADDER_STATES",
)
_spec = importlib.util.spec_from_file_location("perf_gate", TOOL)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)


def test_one_tiny_op_against_head(capsys):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True).returncode:
        pytest.skip("the tool reads the revision from a git checkout")
    ops = ["decompose+verify 2x1,1x2", "rate_sweep warm-up 2x1,1x2", "cli decompose commuting-d8"]
    argv = ["HEAD", "--rounds", "3"] + [arg for op in ops for arg in ("--op", op)]
    assert perf_gate.main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["op", "B/A"] and header.split()[-1] == "answer"
    for op, row in zip(ops, rows, strict=True):
        assert row.startswith(op)
        ratio, low, high, a_s, b_s, peak_a, peak_b = (float(x) for x in re.findall(r"\d+\.\d+", row[len(op):]))
        assert 0 < low <= ratio <= high
        assert a_s > 0 and b_s > 0 and peak_a > 0 and peak_b > 0
        # this tree's answers digest the same as the committed tree's
        assert row.split()[-1] == "same"
    # both trees were imported under their own names and unloaded again
    assert not any(name.split(".")[0] in ("kidecomp_a", "kidecomp_b") for name in sys.modules)


def test_the_ops_copy_the_bench_values(monkeypatch):
    # bench/workloads.py is loaded from its path and only read
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look themselves up there
    spec.loader.exec_module(workloads)
    for name in BENCH_NAMES:
        assert getattr(perf_gate, name) == getattr(workloads, name), name


def test_unknown_revision_exits_2(capsys):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True).returncode:
        pytest.skip("the tool reads the revision from a git checkout")
    assert perf_gate.main(["no-such-revision", "--op", "decompose+verify 2x1,1x2"]) == 2
    assert capsys.readouterr().out == ""


def test_sweep_answer_digest_sees_the_last_bit():
    def run(fidelities, rate=0.5):
        return SimpleNamespace(fidelities=np.array(fidelities), qubit_rate_used=rate)

    want = perf_gate._sweep_answer([run([0.5, 0.25])])
    assert perf_gate._sweep_answer([run([0.5, 0.25])]) == want
    assert perf_gate._sweep_answer([run([0.5, np.nextafter(0.25, 1.0)])]) != want
    assert perf_gate._sweep_answer([run([0.5, 0.25], 0.75)]) != want


def test_block_bootstrap_resamples_runs_of_rounds():
    assert perf_gate.block_bootstrap(np.full(7, 0.9)) == (0.9, 0.9)
    # a drift across the rounds: runs of neighbours keep it, so the interval spans it
    drift = np.linspace(0.95, 1.05, 20)
    low, high = perf_gate.block_bootstrap(drift)
    assert 0.95 <= low < 1.0 < high <= 1.05
    assert perf_gate.block_bootstrap(np.array([1.2])) == (1.2, 1.2)
