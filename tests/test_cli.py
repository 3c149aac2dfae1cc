import json

import numpy as np
import pytest

from kidecomp import algebra, cli
from kidecomp.cli import main
from kidecomp.ensemble import Ensemble, load_ensemble, save_ensemble

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


def test_verify_rejects_non_numeric_decomposition_entries(two_pure_file, tmp_path, capsys):
    dec = tmp_path / "dec.json"
    assert main(["decompose", two_pure_file, "-o", str(dec)]) == 0
    doc = json.loads(dec.read_text())
    doc["result"]["blocks"][0]["isometry"][0][0] = [True, False]
    dec.write_text(json.dumps(doc))
    assert main(["verify", two_pure_file, "--decomposition", str(dec)]) == 2
    assert "blocks[0].isometry[0][0]" in capsys.readouterr().err
