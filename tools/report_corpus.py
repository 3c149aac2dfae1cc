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
runs a longer `rate-sweep` (`LONG_SWEEP`). Three more inputs reach the
codec: a commuting ensemble on C^8 (eight 1x1 blocks, so reports of
dozens of small matrices), a plant padded into a larger space (a
rank-deficient support), and a hand-written ensemble whose numbers are
spelled as no writer spells them (`SPELLED`: -0.0, a subnormal, 17
significant digits), which runs decompose, measures, verify and
remove-redundancy. A few error paths come last, among them non-finite
numbers in an ensemble and in a decomposition document, and then one
document per rule of the reader (`ENSEMBLE_RULES`,
`DECOMPOSITION_RULES`).
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
    from kidecomp import cli  # imported here, so `tools/perf_gate.py` can load this module without it

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


def _write_pairs(path: Path, probs, states) -> None:
    """An ensemble file of real or complex `states` (ndarrays) with probabilities `probs`."""
    doc = {"dim": len(states[0]), "states": [
        {"p": float(p), "matrix": np.stack([s.real, s.imag], axis=-1).tolist()} for p, s in zip(probs, states)
    ]}
    path.write_text(json.dumps(doc), encoding="utf-8")


def _random_unitary(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def commuting_ensemble() -> tuple[np.ndarray, list[np.ndarray]]:
    """The probabilities and states of three jointly diagonal states on C^8 in a random basis
    (default_rng(11)), the family of `cli_corpus`'s op tail. `tools/perf_gate.py` times its
    CLI ops on this ensemble too."""
    rng = np.random.default_rng(11)
    w = 0.05 + rng.random((3, 8))
    w /= w.sum(axis=1, keepdims=True)
    probs = 0.2 + rng.random(3)
    u = _random_unitary(rng, 8, 8)
    return probs / probs.sum(), [u @ np.diag(row) @ u.conj().T for row in w]


def _commuting_case(out: Path, codes: list[str]) -> None:
    """`commuting_ensemble`: eight 1x1 blocks, so the reports are dozens of small matrices."""
    case = out / "commuting_d8"
    case.mkdir()
    ensemble = case / "ensemble.json"
    _write_pairs(ensemble, *commuting_ensemble())
    _report_cases(case, codes, str(ensemble), 1, {})


def _padded_case(out: Path, codes: list[str]) -> None:
    """The 2x1,1x2 plant (seed 2) carried into C^6 by a random isometry (default_rng(12)): a
    rank-4 support inside a larger space, so the frame is not the identity."""
    case = out / "padded"
    case.mkdir()
    plant = case / "plant.json"
    _call(case, codes, "gen", ["gen", "--blocks", "2x1,1x2", "--seed", "2", "-o", str(plant)])
    doc = json.loads(plant.read_text(encoding="utf-8"))
    states = [np.array(s["matrix"])[..., 0] + 1j * np.array(s["matrix"])[..., 1] for s in doc["states"]]
    v = _random_unitary(np.random.default_rng(12), doc["dim"] + 2, doc["dim"])
    ensemble = case / "ensemble.json"
    _write_pairs(ensemble, [s["p"] for s in doc["states"]], [v @ s @ v.conj().T for s in states])
    _report_cases(case, codes, str(ensemble), 2, {"truth": str(case / "plant.truth.json")})


# a hand-written ensemble on C^3 whose numbers are spelled as no writer spells them: -0.0
# halves, the smallest subnormal, and 17 significant digits (0.69999999999999996 reads as 0.7)
SPELLED = """{"dim": 3, "states": [
 {"p": 0.29999999999999999, "matrix": [
  [[0.30000000000000004, -0.0], [0.0, -0.0], [-0.0, -0.0]],
  [[0.0, 0.0], [0.69999999999999996, -0.0], [0.0, 0.0]],
  [[-0.0, 0.0], [0.0, -0.0], [-0.0, 0.0]]]},
 {"p": 0.30000000000000004, "matrix": [
  [[0.5, 0.0], [0.49999999999999994, -0.0], [0.0, 0.0]],
  [[0.49999999999999994, 0.0], [0.5, 0.0], [-0.0, 0.0]],
  [[0.0, -0.0], [-0.0, -0.0], [0.0, 0.0]]]},
 {"p": 0.39999999999999997, "matrix": [
  [[5e-324, 0.0], [0.0, 0.0], [0.0, 0.0]],
  [[0.0, 0.0], [0.33333333333333331, 0.0], [0.10000000000000001, -0.050000000000000003]],
  [[0.0, 0.0], [0.10000000000000001, 0.050000000000000003], [0.66666666666666674, 0.0]]]}
]}
"""
SPELLED_COMMANDS = ("decompose", "measures", "verify", "remove-redundancy")


def _spelled_case(out: Path, codes: list[str]) -> None:
    case = out / "spelled"
    case.mkdir()
    ensemble = case / "ensemble.json"
    ensemble.write_text(SPELLED, encoding="utf-8")
    for command in SPELLED_COMMANDS:
        _both_sinks(case, codes, command, [command, str(ensemble)])


# one ensemble document per rule of the reader, each breaking only that rule
_STATE = '{"p": 1.0, "matrix": [[[1.0, 0.0]]]}'
ENSEMBLE_RULES = {
    "not_utf8": b'{"dim": 1, "states": [{"p": 1.0, "matrix": [[[1.0, 0.0\xff]]]}]}',
    "not_an_object": b"[1, 2]",
    "unknown_key": ('{"dim": 1, "states": [%s], "note": 1}' % _STATE).encode(),
    "missing_key": b'{"dim": 1}',
    "dim_not_integer": ('{"dim": 1.5, "states": [%s]}' % _STATE).encode(),
    "states_empty": b'{"dim": 1, "states": []}',
    "state_not_object": b'{"dim": 1, "states": [[1.0]]}',
    "state_unknown_key": b'{"dim": 1, "states": [{"p": 1.0, "matrix": [[[1.0, 0.0]]], "q": 1}]}',
    "state_missing_key": b'{"dim": 1, "states": [{"p": 1.0}]}',
    "p_bool": b'{"dim": 1, "states": [{"p": true, "matrix": [[[1.0, 0.0]]]}]}',
    "p_out_of_range": b'{"dim": 1, "states": [{"p": 1%s, "matrix": [[[1.0, 0.0]]]}]}' % (b"0" * 400),
    "rows": b'{"dim": 2, "states": [{"p": 1.0, "matrix": [[[1.0, 0.0], [0.0, 0.0]]]}]}',
    "columns": b'{"dim": 2, "states": [{"p": 1.0, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}]}',
    "pair": b'{"dim": 2, "states": [{"p": 1.0, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0]]]}]}',
    "entry_string": b'{"dim": 1, "states": [{"p": 1.0, "matrix": [[["1.0", 0.0]]]}]}',
    "entry_bool": b'{"dim": 1, "states": [{"p": 1.0, "matrix": [[[1.0, false]]]}]}',
    "entry_null": b'{"dim": 1, "states": [{"p": 1.0, "matrix": [[[null, 0.0]]]}]}',
    "entry_infinite": b'{"dim": 1, "states": [{"p": 1.0, "matrix": [[[-Infinity, 0.0]]]}]}',
    "entry_overflow": b'{"dim": 1, "states": [{"p": 1.0, "matrix": [[[1e400, 0.0]]]}]}',
    "entry_out_of_range": b'{"dim": 1, "states": [{"p": 1.0, "matrix": [[[-1%s, 0.0]]]}]}' % (b"0" * 400),
}
# decomposition rules: (path into the plant's truth document, the value put there);
# a path ending in a [re, im] pair's index changes one half of that pair
DECOMPOSITION_RULES = {
    "missing_frame": (("frame",), None),
    "ambient_dim": (("ambient_dim",), "3"),
    "support_rank": (("support_rank",), -1),
    "frame_rows": (("frame",), [[]]),
    "frame_columns": (("frame", 0), []),
    "frame_pair": (("frame", 0, 0), [1.0]),
    "frame_string": (("frame", 0, 0, 1), "0"),
    "block_n": (("blocks", 0, "n"), True),
    "block_k": (("blocks", 0, "k"), 0),
    "isometry_bool": (("blocks", 0, "isometry", 1, 0, 0), True),
    "isometry_nan": (("blocks", 0, "isometry", 0, 0, 1), float("nan")),
    "rho_K_pair": (("blocks", 0, "rho_K", 0, 0), [1.0, 0.0, 0.0]),
    "q_string": (("blocks", 0, "q", 1), "0.5"),
    "q_infinite": (("blocks", 1, "q", 0), float("inf")),
    "p_null": (("blocks", 0, "p"), None),
    "rho_J_avg_rows": (("blocks", 0, "rho_J_avg"), []),
    "rho_J_columns": (("blocks", 0, "rho_J", 2, 1), [[0.0, 0.0]]),
    "rho_J_out_of_range": (("blocks", 1, "rho_J", 0, 0, 0, 0), 10**400),
}


def _reader_rule_cases(out: Path, codes: list[str]) -> None:
    """Each reader rule once: ensembles through `decompose`, decompositions through
    `verify --decomposition` against the valid plant."""
    case = out / "reader_rules"
    case.mkdir()
    for name, raw in ENSEMBLE_RULES.items():
        path = case / f"ensemble_{name}.json"
        path.write_bytes(raw)
        _call(case, codes, f"ensemble_{name}", ["decompose", str(path)])
    plant = case / "plant.json"
    _call(case, codes, "gen", ["gen", "--blocks", "2x1,1x2", "-o", str(plant)])
    truth = (case / "plant.truth.json").read_text(encoding="utf-8")
    for name, (where, value) in DECOMPOSITION_RULES.items():
        doc = json.loads(truth)
        node = doc["result"]
        for key in where[:-1]:
            node = node[key]
        if value is None and where == ("frame",):
            del node[where[-1]]
        else:
            node[where[-1]] = value
        path = case / f"decomposition_{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _call(case, codes, f"decomposition_{name}", ["verify", str(plant), "--decomposition", str(path)])


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
    _commuting_case(out, codes)
    _padded_case(out, codes)
    _spelled_case(out, codes)
    _error_cases(out, codes)
    _reader_rule_cases(out, codes)
    (out / "codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
