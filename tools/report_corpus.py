"""Write every CLI report for a fixed corpus of planted ensembles.

    PYTHONPATH=<checkout>/src python3 tools/report_corpus.py OUTDIR

For each planted shape and seed the script generates the ensemble with
`gen`, then runs every report command on it in json and in text, to
stdout and to an `-o` file, and `verify` against the recomputed, the
stored and the ground-truth decomposition. Every planted weight is
positive, so one hand-written ensemble follows in which states miss
blocks (zero weight, a `null` J state in the document), an n = 2 block
among them. A second one hides a block of multiplicity 2 (states
rho_i (x) I/2) behind a fixed rotation. Both get the same report
commands and `verify` against their stored decompositions, as does a
planted ensemble with Hermitian noise near the default tolerance. The
multiplicity case and one planted case also run `verify` with channel
counts that take several chunks of `oracles.random_form2_kraus`
(`CHUNKED_VERIFY`), and one planted case with a mixed 2-dim J factor
runs a longer `rate-sweep` (`LONG_SWEEP`). A few error paths come last,
among them non-finite numbers in an ensemble and in a decomposition
document.
OUTDIR/codes.txt lists each call's exit code and stderr.

This is the byte-identity gate for refactors: run it once with the
parent's `src/` and once with the change's on PYTHONPATH, into the same
OUTDIR path both times (reports echo their input paths), and compare
the two trees with `diff -r`. It runs in-process with one BLAS thread.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from kidecomp import cli  # noqa: E402

SHAPES = ("1x2", "2x1", "1x1,1x1", "2x1,1x2", "1x2,1x1", "2x2,1x1", "4x1")
SEEDS = (1, 2)
# report command -> its options beyond input, format and output
COMMANDS = {
    "decompose": [],
    "measures": [],
    "simulate-individual": ["--trials", "200"],
    "simulate-asymptotic": ["-N", "4", "--trials", "20"],  # at -N 6 the 4x1 plant takes seconds per call
    "rate-sweep": ["-N", "4", "--trials", "20"],
    "remove-redundancy": [],
    "verify": [],
}
FORMATS = ("json", "text")
# `verify` options whose channels span several chunks of `oracles.random_form2_kraus`
# (at D = 4 or 5 with 3 states: 4 to 6 chunks at env 64, 3 or 4 at env 3)
CHUNKED_VERIFY = {"env64": ["--env-dim", "64", "--channels", "24"], "env3": ["--env-dim", "3", "--channels", "150"]}
CHUNKED_CASE = ("2x2,1x1", 1)  # the planted case that also runs CHUNKED_VERIFY
# a longer sweep on the planted case's mixed 2-dim J factor: at N = 16 its failure branches
# reach 32 and 64 dimensions in the real symmetric solver, where N = 4 stays within 16
LONG_SWEEP = ["-N", "16", "--trials", "40"]
LONG_SWEEP_CASE = ("2x1,1x2", 1)


def _call(out: Path, codes: list[str], name: str, argv: list[str]) -> None:
    """Run one CLI call in-process; its stdout goes to OUT/NAME.stdout when non-empty."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - an uncaught error is data here too; no
            # traceback, since its line numbers differ between the two trees
            code = f"uncaught {type(exc).__name__}: {exc}"
    if stdout.getvalue():
        (out / f"{name}.stdout").write_text(stdout.getvalue(), encoding="utf-8")
    codes.append(f"{out.name}/{name}: exit {code}; stderr {stderr.getvalue()!r}")


def _both_sinks(out: Path, codes: list[str], name: str, argv: list[str]) -> None:
    """One call per format, each once to stdout and once to an -o file."""
    for fmt in FORMATS:
        _call(out, codes, f"{name}.{fmt}", argv + ["--format", fmt])
        _call(out, codes, f"{name}.{fmt}.o", argv + ["--format", fmt, "-o", str(out / f"{name}.{fmt}.o.out")])


def _report_cases(
    case: Path, codes: list[str], ensemble: str, seed: int, sidecars: dict[str, str], chunked: bool = False
) -> None:
    """Every report command on one ensemble file, then `verify` against the stored
    decomposition and each extra sidecar (label -> path), and with `chunked` against
    the stored decomposition once per CHUNKED_VERIFY option set."""
    for command, options in COMMANDS.items():
        _both_sinks(case, codes, command, [command, ensemble, "--seed", str(seed)] + options)
    stored = str(case / "decompose.json.o.out")
    for label, path in {"stored": stored, **sidecars}.items():
        _both_sinks(case, codes, f"verify_{label}", ["verify", ensemble, "--decomposition", path])
    for label, options in CHUNKED_VERIFY.items() if chunked else ():
        _both_sinks(case, codes, f"verify_{label}", ["verify", ensemble, "--decomposition", stored] + options)


def _plant_cases(out: Path, codes: list[str]) -> None:
    for shape in SHAPES:
        for seed in SEEDS:
            case = out / f"{shape.replace(',', '_')}_s{seed}"
            case.mkdir()
            plant = str(case / "plant.json")
            gen = ["gen", "--blocks", shape, "--seed", str(seed)]
            _call(case, codes, "gen.text", gen + ["--format", "text", "-o", str(case / "plant_text.json")])
            _call(case, codes, "gen.json", gen + ["-o", plant])
            truth = {"truth": str(case / "plant.truth.json")}
            _report_cases(case, codes, plant, seed, truth, chunked=(shape, seed) == CHUNKED_CASE)
            if (shape, seed) == LONG_SWEEP_CASE:
                _both_sinks(case, codes, "rate-sweep_long", ["rate-sweep", plant, "--seed", str(seed)] + LONG_SWEEP)


def _pairs(m: list[list[float]]) -> list:
    return [[[x, 0.0] for x in row] for row in m]


def _zero_weight_case(out: Path, codes: list[str]) -> None:
    """Four states on C^3 = C^2 (+) C^1: |0> and |+> lie in the n = 2 block, the
    maximally mixed qubit state splits 0.7 / 0.3 over both blocks, and |2> lies
    in the n = 1 block only, so each block has states of zero weight."""
    case = out / "zero_weight"
    case.mkdir()
    states = [
        [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]],
        [[0.35, 0.0, 0.0], [0.0, 0.35, 0.0], [0.0, 0.0, 0.3]],
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    ]
    doc = {"dim": 3, "states": [{"p": p, "matrix": _pairs(m)} for p, m in zip((0.3, 0.3, 0.2, 0.2), states)]}
    ensemble = case / "ensemble.json"
    ensemble.write_text(json.dumps(doc), encoding="utf-8")
    _report_cases(case, codes, str(ensemble), 1, {})


def _multiplicity_case(out: Path, codes: list[str]) -> None:
    """Three states rho_i (x) I/2 on C^4 behind a fixed real rotation: one algebra block
    M_2 (x) 1_2, whose two equivalent irreducible copies the decomposition must glue
    into one n = 2, k = 2 block with rho_K = I/2 (one bit of I_R)."""
    case = out / "multiplicity"
    case.mkdir()
    qubits = [[[0.7, 0.2], [0.2, 0.3]], [[0.4, 0.1], [0.1, 0.6]], [[0.5, 0.3], [0.3, 0.5]]]
    rotation = np.eye(4)
    for (i, j), angle in zip(itertools.combinations(range(4), 2), (0.3, 0.5, 0.7, 1.1, 1.3, 1.7)):
        plane = np.eye(4)
        plane[[i, i, j, j], [i, j, i, j]] = np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)
        rotation = plane @ rotation
    states = [(rotation @ np.kron(q, np.eye(2) / 2) @ rotation.T).tolist() for q in qubits]
    doc = {"dim": 4, "states": [{"p": p, "matrix": _pairs(m)} for p, m in zip((0.5, 0.3, 0.2), states)]}
    ensemble = case / "ensemble.json"
    ensemble.write_text(json.dumps(doc), encoding="utf-8")
    _report_cases(case, codes, str(ensemble), 1, {}, chunked=True)


def _noisy_case(out: Path, codes: list[str]) -> None:
    """The 2x2,1x1 plant (seed 1) with each state moved, in order, by 3e-11 times a traceless
    Hermitian direction of Frobenius norm 1 drawn from default_rng(100): noise near tol, where
    the split and `verify`'s irreducibility check must make the same commutant decision."""
    case = out / "noisy"
    case.mkdir()
    plant = case / "plant.json"
    _call(case, codes, "gen", ["gen", "--blocks", "2x2,1x1", "--seed", "1", "-o", str(plant)])
    doc = json.loads(plant.read_text(encoding="utf-8"))
    dim, rng = doc["dim"], np.random.default_rng(100)
    for state in doc["states"]:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + g.conj().T) / 2
        h -= np.trace(h).real / dim * np.eye(dim)
        pairs = np.array(state["matrix"])
        m = pairs[..., 0] + 1j * pairs[..., 1] + 3e-11 * h / np.linalg.norm(h)
        state["matrix"] = np.stack([m.real, m.imag], axis=-1).tolist()
    ensemble = case / "ensemble.json"
    ensemble.write_text(json.dumps(doc), encoding="utf-8")
    _report_cases(case, codes, str(ensemble), 1, {})


def _error_cases(out: Path, codes: list[str]) -> None:
    case = out / "errors"
    case.mkdir()
    plant = case / "plant.json"
    _call(case, codes, "gen", ["gen", "--blocks", "2x1,1x1", "-o", str(plant)])
    # a sidecar whose blocks describe one state of three: verify reports the crashed checks
    truth = json.loads((case / "plant.truth.json").read_text(encoding="utf-8"))
    for block in truth["result"]["blocks"]:
        block["q"], block["rho_J"] = block["q"][:1], block["rho_J"][:1]
    short = case / "short.truth.json"
    short.write_text(json.dumps(truth), encoding="utf-8")
    _call(case, codes, "verify_short", ["verify", str(plant), "--decomposition", str(short)])
    # a valid ensemble whose second state lies outside the kept support of the average state
    outside = case / "outside_support.json"
    doc = {"dim": 2, "states": [{"p": 1 - 5e-10, "matrix": _pairs([[1.0, 0.0], [0.0, 0.0]])},
                                {"p": 5e-10, "matrix": _pairs([[0.0, 0.0], [0.0, 1.0]])}]}
    outside.write_text(json.dumps(doc), encoding="utf-8")
    _call(case, codes, "outside_support", ["decompose", str(outside)])
    # null J states of n = 10**9 whose rho_J_avg has no rows: nothing witnesses n
    unwitnessed = case / "unwitnessed_n.json"
    unwitnessed.write_text(
        '{"ambient_dim": 2, "support_rank": 0, "frame": [[], []], "blocks": [{"n": 1000000000, "k": 1, '
        '"p": 1.0, "isometry": [], "rho_K": [[[1.0, 0.0]]], "q": [1.0, 1.0], "rho_J": [null, null], "rho_J_avg": []}]}',
        encoding="utf-8",
    )
    _call(case, codes, "verify_unwitnessed_n", ["verify", str(plant), "--decomposition", str(unwitnessed)])
    # a declared support rank of 10**6 over empty frame rows: a parse error before any allocation
    wide = case / "undeclared_columns.json"
    wide.write_text('{"ambient_dim": 2, "support_rank": 1000000, "frame": [[], []], "blocks": []}', encoding="utf-8")
    _call(case, codes, "verify_undeclared_columns", ["verify", str(plant), "--decomposition", str(wide)])
    # non-finite numbers, which Python's JSON reader accepts: parse errors at their locus
    nan_entry = case / "nan_entry.json"
    doc = {"dim": 2, "states": [{"p": 0.5, "matrix": _pairs([[1.0, 0.0], [0.0, 0.0]])},
                                {"p": 0.5, "matrix": _pairs([[float("nan"), 0.0], [0.0, 1.0]])}]}
    nan_entry.write_text(json.dumps(doc), encoding="utf-8")
    _call(case, codes, "nan_entry", ["decompose", str(nan_entry)])
    infinite_p = case / "infinite_p.json"
    doc = {"dim": 1, "states": [{"p": float("inf"), "matrix": _pairs([[1.0]])}]}
    infinite_p.write_text(json.dumps(doc), encoding="utf-8")
    _call(case, codes, "infinite_p", ["measures", str(infinite_p)])
    truth = json.loads((case / "plant.truth.json").read_text(encoding="utf-8"))
    truth["result"]["blocks"][0]["isometry"][0][0][0] = float("nan")
    nan_isometry = case / "nan_isometry.truth.json"
    nan_isometry.write_text(json.dumps(truth), encoding="utf-8")
    _call(case, codes, "verify_nan_isometry", ["verify", str(plant), "--decomposition", str(nan_isometry)])
    broken = case / "broken.json"
    broken.write_text('{"dim": 2, "states": [', encoding="utf-8")
    _call(case, codes, "malformed_input", ["measures", str(broken)])
    _call(case, codes, "missing_input", ["decompose", str(case / "absent.json")])
    _call(case, codes, "gen_without_output", ["gen", "--blocks", "2x1"])
    _call(case, codes, "unknown_command", ["frobnicate", str(plant)])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):  # a stale file would hide a report the run no longer writes
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    codes: list[str] = []
    _plant_cases(out, codes)
    _zero_weight_case(out, codes)
    _multiplicity_case(out, codes)
    _noisy_case(out, codes)
    _error_cases(out, codes)
    (out / "codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
