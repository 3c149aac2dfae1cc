"""Time this tree against one git revision, both loaded in one interpreter.

    python3 tools/perf_gate.py REV [--rounds R] [--op NAME ...]

Extracts REV's `src/` into a temporary directory (`git archive REV src`)
and imports it as the package `kidecomp_a`, and this tree's `src/` as
`kidecomp_b` (the package uses only relative imports, so the two load
side by side). Each op's inputs are built once per tree, and each op is
called once per tree to warm it. Then R rounds call it in the order A,
B, B, A, and B, A, A, B in turn, and a round's ratio is B's two times
over A's two. Per op the
script prints the median B/A ratio with a 95% interval from a
moving-block bootstrap (2000 resamples of runs of consecutive rounds,
seeded; `block_bootstrap`), the median seconds per call on each side,
and the `tracemalloc` peak of one call on each side. A ratio below 1
means this tree is faster. The last column compares the answers of the
two warm-up calls, `same` or `differs`: a digest of the `fidelities`
bytes and `qubit_rate_used` of each sweep, of the trial arrays and the
summary of `simulate_individual`, of the block shapes and the failed
`verify` checks of a rung, and of a CLI call's exit code and output
bytes.

Both trees share one process, one allocator and one cache, so what
differs between two processes (imports, page faults, a contended run)
cancels in the ratio. Cold-start and whole-process figures (`setup_s`,
`peak_rss_mb`) stay with `bench/run.py`.

The ops are the bench's. From `protocol_sim`, per plant: the timed
`rate_sweep` (N=12, deltas -0.25, 0 and 0.25, 200 trials, seed 0), the
set-up's warm-up sweep (N=4, delta 0, 10 trials, seed 1) and
`simulate_individual` (10 000 trials, seed 1). From `decompose_ladder`,
the rungs (`ki_decompose` then `verify`, plant seeds 1000 + rung, 3
states, seed 1). From `cli_corpus`, `cli COMMAND INPUT`: `cli.main` on
`decompose`, `measures`, `verify --decomposition` and `remove-redundancy`
with `-o`, for two inputs that each tree writes once into its own work
directory: `commuting-d8` (three jointly diagonal states on C^8, the
family of the corpus's op tail) and the planted `2x2,1x3`. A report
echoes its input path, so the answer reads the work directory as a fixed
token. Each `--op` picks one of them by the name that `--list` prints;
with none, all run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import math
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SWEEP_PLANTS = ("2x1,1x2", "3x1,2x2")
LADDER = ("2x1,1x2", "3x1,2x2", "3x2,2x1,1x3", "4x2,3x1")
BOOTSTRAP = 2000


def load_package(src: Path, name: str):
    """Import the `kidecomp` package under `src` as the top-level package `name`."""
    pkg = src / "kidecomp"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _load_tool(name: str):
    """Import `tools/NAME.py` by its path."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unload_package(name: str) -> None:
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]


def _blocks(text: str) -> tuple[tuple[int, int], ...]:
    return tuple(tuple(int(x) for x in part.split("x")) for part in text.split(","))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _sweep_answer(runs) -> str:
    return _digest(*(x for r in runs for x in (r.fidelities.tobytes(), r.qubit_rate_used)))


def _individual_answer(result) -> str:
    trials, summary = result
    arrays = (trials.state, trials.block, trials.ebits, trials.conditional_fidelity)
    return _digest(*(a.tobytes() for a in arrays), summary)


def _rung_answer(result) -> str:
    d, report = result
    return _digest([(b.n, b.k) for b in d.blocks], [c.name for c in report.checks if not c.ok])


def _protocol(text: str, call, answer):
    """An op on the bench's `protocol_sim` plant `text`: `call(protocols, e, d)`."""

    def build(k, workdir):
        e = k.oracles.planted_ensemble(k.oracles.PlantSpec(blocks=_blocks(text), num_states=3, seed=1))[0]
        d = k.decompose.ki_decompose(e)
        return lambda: call(k.protocols, e, d), answer

    return build


def _rung(rung: int, text: str):
    def build(k, workdir):
        e = k.oracles.planted_ensemble(k.oracles.PlantSpec(blocks=_blocks(text), num_states=3, seed=1000 + rung))[0]

        def run():
            d = k.decompose.ki_decompose(e, seed=1)
            return d, k.decompose.verify(d, e, seed=1)

        return run, _rung_answer

    return build


def _commuting(k):
    """The corpus's commuting d=8 ensemble (`report_corpus.commuting_ensemble`)."""
    probs, states = _load_tool("report_corpus").commuting_ensemble()
    return k.ensemble.Ensemble(probs=probs, states=states)


def _planted(k):
    return k.oracles.planted_ensemble(k.oracles.PlantSpec(blocks=_blocks("2x2,1x3"), num_states=3, seed=1))[0]


# the CLI ops' input ensembles, built and written once per tree
CLI_INPUTS = {"commuting-d8": _commuting, "2x2,1x3": _planted}
CLI_COMMANDS = ("decompose", "measures", "verify", "remove-redundancy")


def _cli(command: str, label: str):
    """`cli.main([command, input, -o output])` on the input file `label`, which this tree
    wrote into its own work directory; `verify` reads a decomposition written there by
    this tree's `decompose`. The answer digests the output bytes with the work directory
    (which reports echo in their input paths) replaced by a fixed token."""

    def build(k, workdir):
        cli = importlib.import_module(f"{k.__name__}.cli")
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"{label}.json"
        if not path.exists():
            k.ensemble.save_ensemble(path, CLI_INPUTS[label](k))
        out = workdir / f"{command}-{label}.out"
        argv = [command, str(path), "-o", str(out)]
        if command == "verify":
            dec = workdir / f"{label}.dec.json"
            if cli.main(["decompose", str(path), "-o", str(dec)]):
                raise RuntimeError(f"decompose {label} failed")
            argv += ["--decomposition", str(dec)]

        def answer(code):
            return _digest(code, out.read_bytes().replace(str(workdir).encode(), b"WORKDIR"))

        return lambda: cli.main(argv), answer

    return build


PROTOCOL_CALLS = {
    "rate_sweep": (lambda p, e, d: p.rate_sweep(e, d, 12, (-0.25, 0.0, 0.25), trials=200, seed=0), _sweep_answer),
    "rate_sweep warm-up": (lambda p, e, d: p.rate_sweep(e, d, 4, (0.0,), trials=10, seed=1), _sweep_answer),
    "simulate_individual": (lambda p, e, d: p.simulate_individual(e, d, trials=10_000, seed=1), _individual_answer),
}
# each op builds, per tree, its call and the function that digests the call's answer
OPS = {f"{kind} {t}": _protocol(t, *call) for t in SWEEP_PLANTS for kind, call in PROTOCOL_CALLS.items()}
OPS.update({f"decompose+verify {t}": _rung(r, t) for r, t in enumerate(LADDER)})
OPS.update({f"cli {c} {label}": _cli(c, label) for label in CLI_INPUTS for c in CLI_COMMANDS})


def _timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _peak(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def block_bootstrap(ratios: np.ndarray) -> tuple[float, float]:
    """95% interval of the median ratio by a moving-block bootstrap (BOOTSTRAP resamples, seeded).

    The machine's load drifts from round to round, so neighbouring rounds
    are alike; resampling single rounds as if independent gave intervals
    that excluded 1 on unchanged code. Each resample instead strings
    together runs of `block` consecutive rounds, `block` = ceil(R^(1/3))
    for R rounds, started at uniformly drawn rounds, and is cut to R.
    """
    count = len(ratios)
    block = min(count, math.ceil(count ** (1 / 3)))
    starts = np.random.default_rng(0).integers(0, count - block + 1, size=(BOOTSTRAP, -(-count // block)))
    draws = ratios[(starts[:, :, None] + np.arange(block)).reshape(BOOTSTRAP, -1)[:, :count]]
    lo, hi = np.percentile(np.median(draws, axis=1), [2.5, 97.5])
    return float(lo), float(hi)


def paired(run_a, run_b, rounds: int) -> dict:
    """ABBA rounds of two calls, each already warmed by one call: the median B/A ratio,
    its bootstrap 95% interval, the median seconds per call and one traced peak per side."""
    ratios, times_a, times_b = [], [], []
    for r in range(rounds):
        # A B B A, then B A A B: each side runs first, last and right after itself equally often
        if r % 2 == 0:
            a1, b1, b2, a2 = _timed(run_a), _timed(run_b), _timed(run_b), _timed(run_a)
        else:
            b1, a1, a2, b2 = _timed(run_b), _timed(run_a), _timed(run_a), _timed(run_b)
        ratios.append((b1 + b2) / (a1 + a2))
        times_a += [a1, a2]
        times_b += [b1, b2]
    lo, hi = block_bootstrap(np.array(ratios))
    return {
        "ratio": float(np.median(ratios)),
        "low": lo,
        "high": hi,
        "a_s": statistics.median(times_a),
        "b_s": statistics.median(times_b),
        "a_peak_mb": _peak(run_a) / 2**20,
        "b_peak_mb": _peak(run_b) / 2**20,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perf_gate.py", description="Paired in-process timing against a git revision.")
    parser.add_argument("rev", nargs="?")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--op", action="append", choices=list(OPS), help="an op to run (repeatable; default: all)")
    parser.add_argument("--list", action="store_true", help="print the op names and exit")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(OPS))
        return 0
    names = args.op or list(OPS)
    if args.rev is None or args.rounds < 1:
        parser.print_usage(sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="perf_gate_") as tmp:
        if not _load_tool("corpus_gate").extract_src(args.rev, Path(tmp)):
            return 2
        try:
            k_a, k_b = load_package(Path(tmp) / "src", "kidecomp_a"), load_package(ROOT / "src", "kidecomp_b")
            print(
                f"{'op':<36} {'B/A':>6} {'95% interval':>16} {'A s':>9} {'B s':>9} "
                f"{'A peak MB':>10} {'B peak MB':>10} {'answer':>7}"
            )
            for name in names:
                (run_a, answer_a), (run_b, answer_b) = (
                    OPS[name](k, Path(tmp) / "work" / k.__name__) for k in (k_a, k_b)
                )
                same = answer_a(run_a()) == answer_b(run_b())  # the warm-up call of each side
                r = paired(run_a, run_b, args.rounds)
                print(
                    f"{name:<36} {r['ratio']:6.3f} [{r['low']:6.3f}, {r['high']:6.3f}] "
                    f"{r['a_s']:9.4f} {r['b_s']:9.4f} {r['a_peak_mb']:10.2f} {r['b_peak_mb']:10.2f} "
                    f"{'same' if same else 'differs':>7}"
                )
        finally:
            unload_package("kidecomp_a")
            unload_package("kidecomp_b")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
