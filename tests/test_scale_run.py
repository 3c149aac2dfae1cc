"""tools/scale_run.py: one input's figures on a d=4 plant."""

import importlib.util
import json
from pathlib import Path

from kidecomp import algebra

TOOL = Path(__file__).resolve().parents[1] / "tools" / "scale_run.py"
_spec = importlib.util.spec_from_file_location("scale_run", TOOL)
scale_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale_run)


def test_a_d4_plant_decomposes_with_its_shapes_and_the_split_stack():
    nullspace = algebra.nullspace
    row = scale_run.run_input(scale_run.ScaleInput("d=4 2x1,1x2", ((2, 1), (1, 2)), 3))
    assert algebra.nullspace is nullspace  # the wrapper is gone after the run
    assert row["outcome"] == "ok" and row["dim"] == 4
    assert row["shapes"] == {"2x1": 1, "1x2": 1} and row["shapes_match"]
    assert row["split_stack"][0] == 3 * 4 * 4  # one d x d block of rows per state
    assert row["nullspace_calls"] >= 1 and 0 < row["split_nullspace_s"] <= row["nullspace_s"]
    assert row["verify_ok"] and row["ki_decompose_s"] > 0 and row["ki_decompose_peak_mib"] > 0
    json.dumps(row)


def test_a_refused_input_records_its_error_and_stage(monkeypatch):
    # a cap that admits the plant's draws (5136 bytes) but not the split's 75 x 5 stack (6000 bytes)
    monkeypatch.setattr(algebra, "MAX_STACK_BYTES", 5500)
    row = scale_run.run_input(scale_run.ScaleInput("d=5 2x1,1x3", ((2, 1), (1, 3)), 3, runs=1))
    assert (row["outcome"], row["stage"]) == ("ConfigTooLarge", "ki_decompose")
    assert "exceeds 5500 bytes" in row["error"] and "ki_decompose_s" not in row
