"""Tests of the benchmark harness itself: python3 -m pytest -q bench"""

import json
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from tracing import Tracer

SMALL_LADDER = workloads.LADDER[:2]


def _ladder(tmp_path, seed=3):
    return workloads.DecomposeLadder(seed, tmp_path, shapes=SMALL_LADDER)


def _corpus(tmp_path, seed=3):
    return workloads.CliCorpus(seed, tmp_path, copies=1)


def _input_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("in*.json"))}


def test_corpus_is_deterministic_in_its_seed(tmp_path):
    _corpus(tmp_path / "a", seed=5)
    _corpus(tmp_path / "b", seed=5)
    _corpus(tmp_path / "c", seed=6)
    a, b, c = (_input_bytes(tmp_path / x) for x in "abc")
    assert len(a) >= len(workloads.CORPUS_RECIPES)
    assert a == b
    assert a != c


@pytest.mark.parametrize("make", [_ladder, _corpus])
def test_traced_and_untraced_answers_are_identical(tmp_path, make):
    workload = make(tmp_path)
    untraced, traced = {}, {}
    run.run_passes(workload, 1, untraced)
    tracer = Tracer()
    with tracer.installed():
        samples, _ = run.run_passes(workload, 1, traced, tracer)
    assert tracer.spans
    assert all(s.failure is None for s in samples)
    assert traced == untraced


def test_tracer_restores_the_original_functions():
    import kidecomp.algebra
    import kidecomp.decompose

    before = (kidecomp.decompose.generate_algebra, kidecomp.algebra.nullspace, kidecomp.ki_decompose)
    with Tracer().installed():
        assert kidecomp.decompose.generate_algebra is not before[0]
        assert kidecomp.algebra.nullspace is not before[1]
    assert (kidecomp.decompose.generate_algebra, kidecomp.algebra.nullspace, kidecomp.ki_decompose) == before


def test_wrong_truth_makes_failed_frac_positive(tmp_path):
    ladder = _ladder(tmp_path)
    label, e, expected = ladder.rungs[0]
    ladder.ops[0] = ladder._op(label, e, {**expected, "shapes": [[1, 1]] + expected["shapes"]})
    samples, _ = run.run_passes(ladder, 2, {})
    details = run.workload_details("decompose_ladder", samples)
    assert details["failed_frac"][0] == pytest.approx(1 / len(SMALL_LADDER))
    assert all("differ from the plant" in s.failure for s in samples if s.position == 0)


def test_a_raising_oracle_is_a_counted_failure(tmp_path):
    corpus = _corpus(tmp_path)
    op = corpus.ops[0]

    def broken_check(answer):
        raise KeyError("result")

    corpus.ops = [workloads.Op(op.kind, op.key, op.run, op.answer, broken_check)]
    samples, _ = run.run_passes(corpus, 2, {})
    assert [s.failure for s in samples] == ["KeyError: 'result'"] * 2


def _traced_ladder(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        samples, _ = run.run_passes(_ladder(tmp_path), 1, {}, tracer)
    return tracer, samples


def test_self_time_is_never_negative_and_stages_cover_the_ladder(tmp_path):
    tracer, samples = _traced_ladder(tmp_path)
    corpus_tracer = Tracer()
    with corpus_tracer.installed():
        run.run_passes(_corpus(tmp_path), 1, {}, corpus_tracer)
    assert min(tracer.self_ns() + corpus_tracer.self_ns()) >= 0
    # the small test ladder tops out at d=7, so hold its largest rung to the d=11 checks
    rows = run.ladder_stages(tracer, samples, dominant_dim=7)
    assert len(rows) == len(SMALL_LADDER)
    assert [row["problems"] for row in rows] == [[], []]


def test_stage_check_fails_when_a_stage_is_not_traced(tmp_path, monkeypatch):
    monkeypatch.setitem(tracing.TRACED, "algebra", ("generate_algebra", "center_basis", "irrep_decompose"))
    tracer, samples = _traced_ladder(tmp_path)
    rows = run.ladder_stages(tracer, samples, dominant_dim=7)
    assert all("no commutant span" in row["problems"] for row in rows)
    assert any(p.startswith("named stages cover") for p in rows[-1]["problems"])


def test_emitted_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    samples, _ = run.run_passes(_ladder(tmp_path), 1, {})
    assert list(run.end_to_end(samples, [1.0])) == [m["name"] for m in spec["end_to_end"]]
    tracer = Tracer()
    assert list(run.per_layer(tracer, 1, 0.0)) == [m["name"] for m in spec["per_layer"]]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0, 10)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)


def test_exits_nonzero_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in run.BENCH_DIR.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    argv = ["bench/run.py", "--workload", "cli_corpus", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_pass_count_depends_only_on_seconds():
    assert [run.passes_for("decompose_ladder", s) for s in (1, 28, 30, 50)] == [1, 1, 2, 3]
    assert [run.passes_for("protocol_sim", 28), run.passes_for("cli_corpus", 28)] == [15, 6]
