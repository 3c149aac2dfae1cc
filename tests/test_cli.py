import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from kidecomp import algebra, cli, decompose
from kidecomp.cli import main
from kidecomp.ensemble import Ensemble, load_ensemble, save_ensemble
from kidecomp.errors import ParseError
from kidecomp.oracles import haar_unitary

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


@pytest.fixture
def two_pure_file(tmp_path):
    path = tmp_path / "two_pure.json"
    save_ensemble(path, Ensemble(probs=[0.5, 0.5], states=[KET0, PLUS]))
    return str(path)


@pytest.fixture
def single_state_file(tmp_path):
    path = tmp_path / "single.json"
    save_ensemble(path, Ensemble(probs=[1.0], states=[np.diag([0.75, 0.25]).astype(complex)]))
    return str(path)


def _report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_measures_two_pure(two_pure_file, tmp_path):
    out = tmp_path / "m.json"
    assert main(["measures", two_pure_file, "-o", str(out)]) == 0
    rep = _report(out)
    assert rep["version"]
    assert rep["config"]["command"] == "measures"
    assert rep["result"]["ebits_prepared"] == 1.0
    assert rep["result"]["ebits_consumed"] == pytest.approx(1.0, abs=1e-9)
    assert rep["result"]["info_nonclassical"] == pytest.approx(0.600876, abs=1e-6)
    assert rep["residuals"]["entropy_additivity"] <= 1e-9


def test_decompose_single_state(single_state_file, tmp_path):
    out = tmp_path / "d.json"
    assert main(["decompose", single_state_file, "-o", str(out)]) == 0
    rep = _report(out)
    blocks = rep["result"]["blocks"]
    assert len(blocks) == 1
    assert blocks[0]["n"] == 1 and blocks[0]["k"] == 2


def test_gen_decompose_verify_pipeline(tmp_path):
    plant = tmp_path / "plant.json"
    assert main(["gen", "-o", str(plant), "--blocks", "2x1,1x2", "--num-states", "3", "--seed", "5"]) == 0
    truth = tmp_path / "plant.truth.json"
    assert plant.exists() and truth.exists()
    assert load_ensemble(plant).dim == 4

    verdict = tmp_path / "v.json"
    assert main(["verify", str(plant), "--decomposition", str(truth), "-o", str(verdict)]) == 0
    assert _report(verdict)["result"]["ok"] is True

    dec = tmp_path / "dec.json"
    assert main(["decompose", str(plant), "-o", str(dec)]) == 0
    verdict2 = tmp_path / "v2.json"
    assert main(["verify", str(plant), "--decomposition", str(dec), "-o", str(verdict2)]) == 0
    assert _report(verdict2)["result"]["ok"] is True


def test_verify_corrupted_sidecar_exits_zero(tmp_path):
    plant = tmp_path / "p.json"
    assert main(["gen", "-o", str(plant), "--blocks", "1x2,1x1", "--num-states", "2", "--seed", "3"]) == 0
    truth_path = tmp_path / "p.truth.json"
    doc = json.loads(truth_path.read_text())
    doc["result"]["blocks"][0]["rho_K"][0][0] = [0.31, 0.0]
    truth_path.write_text(json.dumps(doc))
    out = tmp_path / "v.json"
    assert main(["verify", str(plant), "--decomposition", str(truth_path), "-o", str(out)]) == 0
    rep = _report(out)
    assert rep["result"]["ok"] is False
    assert any(not c["ok"] for c in rep["result"]["checks"])


def test_remove_redundancy_writes_ensemble(single_state_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["remove-redundancy", single_state_file, "-o", str(out)]) == 0
    reduced = load_ensemble(out)
    assert reduced.dim == 1


def test_simulate_individual_report(two_pure_file, tmp_path):
    out = tmp_path / "s.json"
    assert main(["simulate-individual", two_pure_file, "--trials", "500", "--seed", "2", "-o", str(out)]) == 0
    rep = _report(out)
    assert rep["result"]["mean_ebits"] == 1.0
    assert rep["result"]["min_conditional_fidelity"] >= 1 - 1e-8


def test_rate_sweep_table(two_pure_file, tmp_path):
    out = tmp_path / "t.json"
    code = main(
        ["rate-sweep", two_pure_file, "-N", "8", "--trials", "60",
         "--deltas=-0.25,0.25", "--seed", "1", "-o", str(out)]
    )
    assert code == 0
    table = _report(out)["result"]["table"]
    assert [row["delta"] for row in table] == [-0.25, 0.25]
    assert table[1]["f_bar"] >= table[0]["f_bar"]


def test_negative_slacks_parse_as_separate_tokens(two_pure_file, tmp_path):
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    common = ["rate-sweep", two_pure_file, "-N", "4", "--trials", "20"]
    assert main(common + ["--deltas", "-0.4,-0.1,0.1", "-o", str(spaced)]) == 0
    assert main(common + ["--deltas=-0.4,-0.1,0.1", "-o", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    cfg = cli._build_parser().parse_args(["simulate-asymptotic", two_pure_file, "--delta", "-1e-3"])
    assert cfg.delta == -1e-3
    cfg = cli._build_parser().parse_args(["rate-sweep", two_pure_file, "--deltas", "-.5,.5"])
    assert cfg.deltas == (-0.5, 0.5)


def test_negative_infinity_is_still_refused(two_pure_file, capsys):
    assert main(["simulate-asymptotic", two_pure_file, "--delta", "-inf"]) == 4
    assert "configuration error: argument --delta" in capsys.readouterr().err


def test_every_readme_command_parses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text().splitlines() if line.startswith("kidecomp ")]
    assert len(lines) >= 8
    for line in lines:
        cli._build_parser().parse_args(shlex.split(line)[1:])


def test_text_format(two_pure_file, tmp_path, capsys):
    assert main(["measures", two_pure_file, "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "result.ebits_prepared = 1.0" in text


def test_byte_identical_reruns(two_pure_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for cmd in (
        ["measures", two_pure_file],
        ["simulate-asymptotic", two_pure_file, "-N", "4", "--trials", "40", "--seed", "3"],
    ):
        assert main(cmd + ["-o", str(a)]) == 0
        assert main(cmd + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2')
    assert main(["measures", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_integer_beyond_float_range(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text('{"dim": 1, "states": [{"p": 1.0, "matrix": [[[%s, 0]]]}]}' % ("9" * 400))
    assert main(["measures", str(big)]) == 2
    err = capsys.readouterr().err
    assert "states[0].matrix[0][0]" in err
    assert "Traceback" not in err


def test_exit_code_degenerate_probes(single_state_file, monkeypatch, capsys):
    # two inequivalent 1-dim copies; an identity probe never separates them
    monkeypatch.setattr(algebra, "_random_hermitian_from", lambda mats, rng: np.eye(mats[0].shape[0], dtype=complex))
    assert main(["decompose", single_state_file]) == 3
    err = capsys.readouterr().err
    assert "copy links are not 0 or 1" in err
    assert "Traceback" not in err


def test_exit_code_form_violation(two_pure_file, monkeypatch, capsys):
    # a split into two 1-dim halves: each state's coherences between them are lost
    halves = [np.eye(2, dtype=complex)[:, [c]] for c in (0, 1)]
    monkeypatch.setattr(decompose, "irrep_decompose", lambda a, seed, tol: halves)
    assert main(["decompose", two_pure_file]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: reconstruction residual" in err
    assert "Traceback" not in err


def test_exit_code_commutant_too_large(tmp_path, capsys):
    # the maximally mixed state spans {I}: its commutant stack at d=91 is past the cap
    path = tmp_path / "mixed.json"
    save_ensemble(path, Ensemble(probs=[1.0], states=[np.eye(91, dtype=complex) / 91]))
    assert main(["decompose", str(path)]) == 4
    err = capsys.readouterr().err
    assert "configuration error: commutant stack of 8281 x 8281" in err
    assert "Traceback" not in err


def test_exit_code_svd_failure(two_pure_file, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    assert main(["decompose", two_pure_file]) == 3
    assert "numerical failure: SVD did not converge" in capsys.readouterr().err


def test_exit_code_rate_sweep_lapack_failure(two_pure_file, monkeypatch, capsys):
    # the decomposition succeeds; LAPACK fails only inside the simulator
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def sweep_without_lapack(*args, **kwargs):
        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        return real_sweep(*args, **kwargs)

    real_sweep = cli.rate_sweep
    monkeypatch.setattr(cli, "rate_sweep", sweep_without_lapack)
    assert main(["rate-sweep", two_pure_file, "--trials", "5", "-N", "4"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: Eigenvalues did not converge" in err
    assert "Traceback" not in err


def test_exit_code_qr_failure(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("QR did not converge")

    monkeypatch.setattr(np.linalg, "qr", fail)
    assert main(["gen", "-o", str(tmp_path / "x.json"), "--blocks", "2x1,1x2"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: QR did not converge" in err
    assert "Traceback" not in err


def test_repeated_main_calls_share_no_state(two_pure_file, tmp_path):
    # the parser is built once per process; no option may carry over
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", two_pure_file, "--channels", "3", "--seed", "4", "-o", str(a)]) == 0
    assert main(["verify", two_pure_file, "-o", str(b)]) == 0
    first, second = _report(a)["config"], _report(b)["config"]
    assert (first["channels"], first["seed"]) == (3, 4)
    assert (second["channels"], second["seed"], second["env_dim"]) == (20, 0, 2)
    assert second["decomposition"] is None
    assert main(["verify", two_pure_file, "--channels", "many"]) == 4
    assert main(["rate-sweep"]) == 4
    assert main(["measures", two_pure_file, "--format", "text", "-o", str(a)]) == 0
    assert main(["measures", two_pure_file, "-o", str(b)]) == 0
    assert _report(b)["config"]["format"] == "json"


def test_exit_code_validation_error(tmp_path):
    bad = tmp_path / "sum.json"
    bad.write_text('{"dim": 1, "states": [{"p": 0.7, "matrix": [[[1.0, 0.0]]]}]}')
    assert main(["measures", str(bad)]) == 2


def test_exit_code_missing_file():
    assert main(["measures", "definitely_not_here.json"]) == 4


def test_exit_code_bad_decomposition_file(two_pure_file, tmp_path):
    bad = tmp_path / "dec.json"
    bad.write_text("garbage{")
    assert main(["verify", two_pure_file, "--decomposition", str(bad)]) == 2


@pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
def test_exit_code_state_outside_the_support(tmp_path, rotated, capsys):
    # the second state, of probability 5e-10, lies outside the kept support of the average state
    weights = ([1.0, 0.0], [0.0, 1.0]) if not rotated else ([0.6, 0.4, 0.0], [0.0, 0.0, 1.0])
    u = haar_unitary(len(weights[0]), seed=3) if rotated else np.eye(2)
    path = tmp_path / "outside.json"
    states = [u @ np.diag(w).astype(complex) @ u.conj().T for w in weights]
    save_ensemble(path, Ensemble(probs=[1 - 5e-10, 5e-10], states=states))
    assert main(["decompose", str(path)]) == 2
    assert r"states[1]: outside the support" in capsys.readouterr().err


def test_exit_code_decomposition_with_unwitnessed_block_dimension(two_pure_file, tmp_path, capsys):
    # null J states of n = 10**9 with an empty rho_J_avg: a parse error, not an n x n allocation
    doc = {
        "ambient_dim": 2, "support_rank": 0, "frame": [[], []],
        "blocks": [{"n": 10**9, "k": 1, "p": 1.0, "isometry": [], "rho_K": [[[1.0, 0.0]]],
                    "q": [1.0, 1.0], "rho_J": [None, None], "rho_J_avg": []}],
    }
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", two_pure_file, "--decomposition", str(path)]) == 2
    assert "blocks[0].rho_J_avg" in capsys.readouterr().err


def test_exit_code_allocation_failure(tmp_path, capsys, monkeypatch):
    # a 10**9-dimensional block needs exabytes; numpy refuses the allocation at once.
    # The plant's stack cap would refuse it first, so the cap is lifted past it here
    monkeypatch.setattr(algebra, "MAX_STACK_BYTES", 10**30)
    assert main(["gen", "-o", str(tmp_path / "g.json"), "--blocks", "1000000000x1"]) == 4
    assert capsys.readouterr().err.startswith("configuration error: Unable to allocate")


def test_gen_refuses_a_plant_above_the_stack_cap(tmp_path, capsys, monkeypatch):
    # 3 states of a 1x1,1x1 plant stack 192 bytes
    monkeypatch.setattr(algebra, "MAX_STACK_BYTES", 191)
    out = tmp_path / "x.json"
    assert main(["gen", "-o", str(out), "--blocks", "1x1,1x1", "--num-states", "3"]) == 4
    err = capsys.readouterr().err
    assert err == "configuration error: planted state stack of 3 x 2 x 2 exceeds 191 bytes\n"
    assert not out.exists()
    monkeypatch.setattr(algebra, "MAX_STACK_BYTES", 192)
    assert main(["gen", "-o", str(out), "--blocks", "1x1,1x1", "--num-states", "3"]) == 0


def test_exit_code_bad_blocks(tmp_path):
    assert main(["gen", "-o", str(tmp_path / "x.json"), "--blocks", "2y1"]) == 4


def test_exit_code_infeasible_plant(tmp_path):
    code = main(["gen", "-o", str(tmp_path / "x.json"), "--blocks", "2x1", "--num-states", "1"])
    assert code == 4


@pytest.mark.parametrize(
    "option", [["--channels", "0"], ["--channels", "-1"], ["--env-dim", "0"], ["--tol", "0"], ["--trials", "0"]]
)
def test_out_of_range_options_are_config_errors(two_pure_file, option, capsys):
    command = "simulate-individual" if option[0] == "--trials" else "verify"
    assert main([command, two_pure_file, *option]) == 4
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option",
    [
        ("simulate-asymptotic", ["--delta", "inf"]),
        ("simulate-asymptotic", ["--delta=-inf"]),
        ("simulate-asymptotic", ["--delta", "nan"]),
        ("rate-sweep", ["--deltas=0,inf"]),
        ("rate-sweep", ["--deltas=nan"]),
        ("measures", ["--tol", "nan"]),
        ("decompose", ["--tol", "inf"]),
        ("rate-sweep", ["--tol", "nan"]),
    ],
)
def test_non_finite_options_are_config_errors(two_pure_file, command, option, capsys):
    args = [command, two_pure_file, *option]
    if command in ("simulate-asymptotic", "rate-sweep"):
        args += ["--trials", "5", "-N", "4"]
    assert main(args) == 4
    err = capsys.readouterr().err
    flag = option[0].split("=")[0]
    assert f"configuration error: argument {flag}: must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate-individual", "simulate-asymptotic", "rate-sweep"])
def test_negative_seed_is_a_config_error(two_pure_file, command, capsys):
    assert main([command, two_pure_file, "--seed", "-1", "--trials", "5"]) == 4
    err = capsys.readouterr().err
    assert "expected non-negative integer" in err
    assert "Traceback" not in err


def test_verify_rejects_non_numeric_decomposition_entries(two_pure_file, tmp_path, capsys):
    dec = tmp_path / "dec.json"
    assert main(["decompose", two_pure_file, "-o", str(dec)]) == 0
    doc = json.loads(dec.read_text())
    doc["result"]["blocks"][0]["isometry"][0][0] = [True, False]
    dec.write_text(json.dumps(doc))
    assert main(["verify", two_pure_file, "--decomposition", str(dec)]) == 2
    assert "blocks[0].isometry[0][0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option",
    [
        ("measures", ["--tol", "x"]),
        ("simulate-asymptotic", ["--delta", "x"]),
        ("rate-sweep", ["--deltas", "0,x"]),
        ("simulate-individual", ["--trials", "x"]),
    ],
)
def test_non_numeric_options_name_the_value(two_pure_file, command, option, capsys):
    assert main([command, two_pure_file, *option]) == 4
    err = capsys.readouterr().err
    kind = "an integer" if option[0] == "--trials" else "a number"
    assert f"configuration error: argument {option[0]}: expected {kind}, got 'x'" in err
    assert "_" not in err and "Traceback" not in err


def test_verify_rejects_a_non_numeric_block_weight(two_pure_file, tmp_path, capsys):
    # a block's "p" is never used once read, so only its own check can reject "x"
    dec = tmp_path / "dec.json"
    assert main(["decompose", two_pure_file, "-o", str(dec)]) == 0
    doc = json.loads(dec.read_text())
    doc["result"]["blocks"][0]["p"] = "x"
    dec.write_text(json.dumps(doc))
    assert main(["verify", two_pure_file, "--decomposition", str(dec)]) == 2
    assert "error: blocks[0].p: expected a number" in capsys.readouterr().err
    with pytest.raises(ParseError, match=r"blocks\[0\]\.p: expected a number"):
        decompose.read_decomposition(dec.read_bytes())


@pytest.mark.parametrize(
    "field, value",
    [("n", 2.7), ("n", "2"), ("k", 1.0), ("ambient_dim", "4"), ("support_rank", 4.9)],
)
def test_verify_rejects_non_integer_decomposition_fields(two_pure_file, tmp_path, field, value, capsys):
    dec = tmp_path / "dec.json"
    assert main(["decompose", two_pure_file, "-o", str(dec)]) == 0
    doc = json.loads(dec.read_text())
    if field in ("n", "k"):
        doc["result"]["blocks"][0][field] = value
        locus = f"blocks[0].{field}"
    else:
        doc["result"][field] = value
        locus = field
    dec.write_text(json.dumps(doc))
    assert main(["verify", two_pure_file, "--decomposition", str(dec)]) == 2
    assert f"error: {locus}: expected" in capsys.readouterr().err


@pytest.fixture(scope="module")
def plant_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("plant") / "plant.json"
    assert main(["gen", "-o", str(path), "--blocks", "2x1,1x2", "--seed", "1"]) == 0
    return str(path)


@pytest.mark.parametrize(
    "command",
    [
        ["decompose"],
        ["measures"],
        ["simulate-individual", "--trials", "50"],
        ["simulate-asymptotic", "-N", "4", "--trials", "10"],
        ["rate-sweep", "-N", "4", "--trials", "10"],
        ["remove-redundancy"],
        ["verify", "--channels", "3"],
    ],
)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_stdout_and_output_file_hold_the_same_bytes(plant_file, tmp_path, capsys, command, fmt):
    argv = [command[0], plant_file, *command[1:], "--format", fmt]
    out = tmp_path / "report"
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8") and printed


def test_gen_sidecar_is_json_under_text_format(tmp_path):
    plant = tmp_path / "p.json"
    assert main(["gen", "-o", str(plant), "--blocks", "2x1", "--format", "text"]) == 0
    sidecar = _report(tmp_path / "p.truth.json")
    assert sidecar["config"]["format"] == "text"
    assert sidecar["result"]["blocks"][0]["n"] == 2
    assert sidecar["residuals"] == {"ensemble_valid": True}


def test_unknown_command_is_a_config_error(two_pure_file, capsys):
    assert main(["frobnicate", two_pure_file]) == 4
    assert "configuration error: argument command: invalid choice: 'frobnicate'" in capsys.readouterr().err


def test_verify_reports_crashed_checks_and_runs_the_rest(tmp_path):
    plant = tmp_path / "p.json"
    assert main(["gen", "-o", str(plant), "--blocks", "2x1,1x1", "--num-states", "3", "--seed", "4"]) == 0
    truth_path = tmp_path / "p.truth.json"
    doc = json.loads(truth_path.read_text())
    for block in doc["result"]["blocks"]:  # the blocks now describe one state of three
        block["q"], block["rho_J"] = block["q"][:1], block["rho_J"][:1]
    truth_path.write_text(json.dumps(doc))
    out = tmp_path / "v.json"
    assert main(["verify", str(plant), "--decomposition", str(truth_path), "-o", str(out)]) == 0
    rep = _report(out)
    assert rep["result"]["ok"] is False
    checks = {c["name"]: c for c in rep["result"]["checks"]}
    assert list(checks) == [
        "reconstruction",
        "weight_rows_sum_to_1",
        "irreducible_block_0",
        "irreducible_block_1",
        "pairwise_non_mergeable",
        "channel_preservation",
    ]
    for name in ("reconstruction", "weight_rows_sum_to_1"):
        assert checks[name]["ok"] is False and checks[name]["residual"] == "inf"
        assert checks[name]["detail"].startswith("check crashed: index 1 is out of bounds")
    for name in ("irreducible_block_0", "irreducible_block_1", "pairwise_non_mergeable", "channel_preservation"):
        assert "crashed" not in checks[name]["detail"] and checks[name]["residual"] != "inf"
    assert rep["residuals"]["worst_residual"] == "inf"


def test_huge_rate_slacks_run(plant_file, tmp_path):
    out = tmp_path / "t.json"
    common = ["-N", "4", "--trials", "5", "-o", str(out)]
    assert main(["rate-sweep", plant_file, "--deltas=-1e308,0,1e308", *common]) == 0
    assert [row["delta"] for row in _report(out)["result"]["table"]] == [-1e308, 0.0, 1e308]
    assert main(["simulate-asymptotic", plant_file, "--delta", "1e307", *common]) == 0
    assert _report(out)["result"]["f_bar"] == 1.0


def test_rate_sweep_runs_on_a_j_block_past_the_int64_binomials(tmp_path):
    # the 68 letters of a 68x1 plant need C(67, 33) > 2**63 in an uncapped class-step table
    plant, out = tmp_path / "p.json", tmp_path / "t.json"
    assert main(["gen", "--blocks", "68x1", "--seed", "1", "-o", str(plant)]) == 0
    assert main(["rate-sweep", str(plant), "-N", "1", "--trials", "5", "--deltas", "0", "-o", str(out)]) == 0
    assert [row["delta"] for row in _report(out)["result"]["table"]] == [0.0]
