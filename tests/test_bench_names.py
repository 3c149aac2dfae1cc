"""The traced bench looks up kidecomp functions by name; a rename must fail here.

`python -m pytest bench` is not part of the tier-1 suite, so the traced
bench path (`bench/run.py --trace 1`) is exercised here as well: the
bench's own tracer and workload set-ups, loaded from `bench/`.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from kidecomp import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the traced names that one d=4 ladder rung, the protocol set-up and `cli decompose` reach
REACHED = {
    "algebra.commutant",
    "algebra.irrep_decompose",
    "cli.main",
    "decompose.decomposition_to_doc",
    "decompose.ki_decompose",
    "decompose.mergeable",
    "decompose.verify",
    "ensemble.require_valid",
    "ensemble.support_restrict",
    "linalg.nullspace",
    "measures.fidelity",
    "measures.info_measures",
    "oracles.planted_ensemble",
    "protocols.rate_sweep",
    "protocols.simulate_individual",
}


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"kidecomp.{layer}"), name, None))
    ]
    assert not missing, f"bench/tracing.py traces names that kidecomp no longer has: {missing}"


def test_the_traced_bench_calls_run(monkeypatch, tmp_path):
    # under the tracer: the first ladder rung (ki_decompose, info_measures and verify
    # at d=4), the protocol set-up (its simulate_individual of 100 trials and its N=4
    # sweep per plant) and one `cli decompose`
    tracing, workloads = _load("tracing", monkeypatch), _load("workloads", monkeypatch)
    plant = str(tmp_path / "plant.json")
    assert cli.main(["gen", "-o", plant, "--blocks", "2x1,1x2", "--num-states", "3", "--seed", "7"]) == 0
    tracer = tracing.Tracer()
    with tracer.installed():
        workloads.DecomposeLadder(0, tmp_path, shapes=workloads.LADDER[:1])
        workloads.ProtocolSim(0, tmp_path)
        assert cli.main(["decompose", plant, "-o", str(tmp_path / "plant.dec.json")]) == 0
    names = {span.name for span in tracer.spans}
    assert REACHED <= names, f"no span for {sorted(REACHED - names)}"
    dims = [span.info["dim"] for span in tracer.spans if span.name == "algebra.commutant"]
    assert dims and all(type(dim) is int for dim in dims)
    assert min(tracer.self_ns()) >= 0
    assert not hasattr(cli.main, "__wrapped__")  # the bindings are restored on exit
