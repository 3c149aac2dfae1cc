"""The benchmark's workloads: seeded inputs, the list of operations one pass runs
(`ops`), and the correctness oracle for every operation.

Every call into kidecomp goes through a module attribute
(`decompose.ki_decompose`, not a name imported here), so the traced run
sees it. An `Op` is timed around `run()` only; `answer()` turns the raw
result into a JSON-able value (floats rounded to 9 significant digits)
whose digest must repeat for the same `key`, and `check()` returns a
failure reason or None.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from kidecomp import cli, decompose, ensemble, measures, oracles, protocols
from kidecomp.ensemble import Ensemble
from kidecomp.oracles import PlantSpec

MEASURE_TOL = 1e-6  # I_C, I_NC, I_R against the oracle
RESIDUAL_TOL = 1e-8  # additivity, reconstruction and mixture residuals
FIDELITY_TOL = 1e-9
EBIT_STDERRS = 5.0


@dataclass
class Op:
    kind: str
    key: str
    run: Callable[[], Any]
    answer: Callable[[Any], Any]
    check: Callable[[Any], str | None]


def r9(x: float) -> float:
    return float(f"{x:.9g}")


def parse_blocks(text: str) -> tuple[tuple[int, int], ...]:
    return tuple(tuple(int(v) for v in part.split("x")) for part in text.split(","))


def _shapes(blocks) -> list[list[int]]:
    return sorted([int(b.n), int(b.k)] for b in blocks)


def _shannon(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def _expected_from_truth(truth, e: Ensemble) -> dict:
    m = measures.info_measures(truth, e)
    return {
        "shapes": _shapes(truth.blocks),
        "I_C": m.info_classical,
        "I_NC": m.info_nonclassical,
        "I_R": m.info_redundant,
    }


def _measure_mismatch(got: dict, expected: dict) -> str | None:
    for name in ("I_C", "I_NC", "I_R"):
        if abs(got[name] - expected[name]) > MEASURE_TOL:
            return f"{name} {got[name]!r} differs from the oracle {expected[name]!r}"
    return None


# ---------------------------------------------------------------------------
# decompose_ladder

LADDER = ("2x1,1x2", "3x1,2x2", "3x2,2x1,1x3", "4x2,3x1")
LADDER_STATES = 3
# The ladder's plants are fixed (plant seed 1000 * LADDER_PLANT_SEED +
# rung); the workload seed drives the probe seed of `ki_decompose` and
# the channel seeds of `verify`. The cost of a d=11 rung, and whether it
# finishes at all, depend on the plant: with 2 OpenBLAS threads the
# `4x2,3x1` plants of workload seeds 7 and 1041457616 raise
# "SVD did not converge" in `linalg.orthonormalize_hs`, and with 1 thread
# the second takes 190 s where plant 1003 takes 14 s (BASELINE.md, "Known
# failures"). Per-seed plants would make a run's work, and its pass or
# fail, a draw.
LADDER_PLANT_SEED = 1


class DecomposeLadder:
    """`ki_decompose`, `info_measures` and `verify` on one planted ensemble per rung."""

    def __init__(self, seed: int, workdir: Path, shapes=LADDER):
        self.seed = seed
        self.rungs = []
        for r, text in enumerate(shapes):
            seed_r = 1000 * LADDER_PLANT_SEED + r
            spec = PlantSpec(blocks=parse_blocks(text), num_states=LADDER_STATES, seed=seed_r)
            e, truth = oracles.planted_ensemble(spec)
            self.rungs.append((f"d={e.dim} {text}", e, _expected_from_truth(truth, e)))
        self.ops = [self._op(label, e, expected) for label, e, expected in self.rungs]
        # Warm-up on the two small rungs only: a first d=11 call takes as
        # long as a repeat (9.49 s against 9.28-9.63 s for 4x2,3x1 with
        # 2 BLAS threads), as
        # its 394 MB U factor is mapped afresh on every call.
        for op in self.ops[:2]:
            op.run()

    def _op(self, label: str, e: Ensemble, expected: dict) -> Op:
        seed = self.seed

        def run():
            d = decompose.ki_decompose(e, seed=seed)
            return d, measures.info_measures(d, e), decompose.verify(d, e, seed=seed)

        def answer(raw):
            d, m, report = raw
            return {
                "shapes": _shapes(d.blocks),
                "I_C": r9(m.info_classical),
                "I_NC": r9(m.info_nonclassical),
                "I_R": r9(m.info_redundant),
                "additivity_ok": m.additivity_residual <= RESIDUAL_TOL,
                "verify_failed": [c.name for c in report.checks if not c.ok],
            }

        def check(ans):
            if ans["shapes"] != expected["shapes"]:
                return f"block shapes {ans['shapes']} differ from the plant {expected['shapes']}"
            if not ans["additivity_ok"]:
                return "additivity residual above tolerance"
            if ans["verify_failed"]:
                return f"verify failed: {ans['verify_failed']}"
            return _measure_mismatch(ans, expected)

        return Op(kind=label, key=label, run=run, answer=answer, check=check)


# ---------------------------------------------------------------------------
# protocol_sim

PROTOCOL_PLANTS = ("2x1,1x2", "3x1,2x2")
# A sweep's cost and peak memory are set by its rare failure branches
# (an eigvalsh of up to 4096 x 4096 on the 3-dim block), so they vary
# with the plant and the trial stream: plants drawn per workload seed
# took a 3x1,2x2 sweep from 1 s to 15 s, and streams of one plant from
# 0.4 s to 3.8 s. Plants and the sweep stream are therefore fixed, so
# every run does the same sweep work; the workload seed drives the
# simulate_individual streams, whose cost does not depend on it.
PROTOCOL_PLANT_SEED = 1
SWEEP_SEED = 0
INDIVIDUAL_TRIALS = 10_000
SWEEP_MESSAGES = 12
SWEEP_DELTAS = (-0.25, 0.0, 0.25)
SWEEP_TRIALS = 200


class ProtocolSim:
    """`simulate_individual` and `rate_sweep` on two decompositions built in set-up."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cases = []
        for text in PROTOCOL_PLANTS:
            spec = PlantSpec(blocks=parse_blocks(text), num_states=3, seed=PROTOCOL_PLANT_SEED)
            e, _ = oracles.planted_ensemble(spec)
            self.cases.append((text, e, decompose.ki_decompose(e)))
        for _, e, d in self.cases:  # warm-up
            protocols.simulate_individual(e, d, trials=100, seed=seed)
            protocols.rate_sweep(e, d, 4, (0.0,), trials=10, seed=seed)
        self.ops = [self._individual(text, e, d, seed) for text, e, d in self.cases]
        self.ops += [self._sweep(text, e, d, SWEEP_SEED) for text, e, d in self.cases]

    @staticmethod
    def _individual(text, e, d, sim_seed) -> Op:
        def answer(raw):
            s = raw[1]
            gap = abs(s.mean_ebits - s.ebits_consumed_expected)
            return {
                "mean_ebits": r9(s.mean_ebits),
                "stderr_ebits": r9(s.stderr_ebits),
                "ebits_within_stderrs": gap <= EBIT_STDERRS * s.stderr_ebits or gap <= 1e-12,
                "fidelity_ok": s.min_conditional_fidelity >= 1.0 - FIDELITY_TOL,
                "mixture_ok": s.mixture_residual <= RESIDUAL_TOL,
            }

        def check(ans):
            bad = [k for k in ("ebits_within_stderrs", "fidelity_ok", "mixture_ok") if not ans[k]]
            return f"simulate_individual checks failed: {bad}" if bad else None

        return Op(
            kind="simulate_individual",
            key=f"{text}/individual/{sim_seed}",
            run=lambda: protocols.simulate_individual(e, d, trials=INDIVIDUAL_TRIALS, seed=sim_seed),
            answer=answer,
            check=check,
        )

    @staticmethod
    def _sweep(text, e, d, sim_seed) -> Op:
        def answer(runs):
            return {
                "deltas": [r.delta for r in runs],
                "f_bar": [r9(r.f_bar) for r in runs],
                "qubit_rate": [r9(r.qubit_rate_used) for r in runs],
            }

        def check(ans):
            f = ans["f_bar"]
            if any(b < a for a, b in zip(f, f[1:])):
                return f"f_bar {f} decreases as delta grows"
            return None

        return Op(
            kind="rate_sweep",
            key=f"{text}/sweep/{sim_seed}",
            run=lambda: protocols.rate_sweep(
                e, d, SWEEP_MESSAGES, SWEEP_DELTAS, trials=SWEEP_TRIALS, seed=sim_seed
            ),
            answer=answer,
            check=check,
        )


# ---------------------------------------------------------------------------
# cli_corpus

COMMANDS = ("decompose", "measures", "verify", "remove-redundancy")
# (family, shape or ambient dim, number of states, extra ambient dims)
CORPUS_RECIPES = (
    [("planted", s, m, 0) for s, m in (
        ("2x1", 2), ("2x1,1x1", 3), ("2x1,1x2", 3), ("1x1,1x2", 2), ("3x1", 2), ("2x2", 3),
        ("3x1,1x2", 4), ("2x1,2x1", 4), ("2x3", 2), ("3x2", 3), ("3x1,2x1", 5), ("4x1", 2),
        ("2x2,1x3", 6), ("2x4", 3), ("3x1,2x2", 3), ("2x1,1x1,1x2", 5),
    )]
    + [("padded", s, m, x) for s, m, x in (
        ("2x1", 2, 2), ("2x1,1x2", 3, 2), ("3x1", 2, 3), ("2x2", 3, 1), ("3x1,1x2", 4, 2),
        ("2x1,1x1", 3, 3), ("3x2", 2, 1), ("1x1,1x2", 2, 4),
    )]
    + [("single_mixed", d, 1, 0) for d in range(2, 9)]
    + [("ket0_plus", 2, 2, 0)]
    + [("commuting", d, m, 0) for d, m in ((2, 2), (3, 3), (4, 4), (5, 2), (6, 5), (7, 6), (8, 3))]
)
CORPUS_COPIES = 6


def _random_unitary(dim: int, rng: np.random.Generator, cols: int | None = None) -> np.ndarray:
    z = rng.standard_normal((dim, cols or dim)) + 1j * rng.standard_normal((dim, cols or dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugate(u: np.ndarray, states) -> np.ndarray:
    return np.stack([u @ s @ u.conj().T for s in states])


def corpus_ensemble(recipe, rng: np.random.Generator) -> tuple[Ensemble, dict]:
    """One corpus input and its oracle: block shapes and the three information parts."""
    family, shape, m, extra = recipe
    if family in ("planted", "padded"):
        spec = PlantSpec(blocks=parse_blocks(shape), num_states=m, seed=int(rng.integers(2**31)))
        e, truth = oracles.planted_ensemble(spec)
        expected = _expected_from_truth(truth, e)
        if family == "padded":  # rank-deficient support inside a larger ambient space
            v = _random_unitary(e.dim + extra, rng, cols=e.dim)
            e = Ensemble(probs=e.probs, states=_conjugate(v, e.states))
        return e, expected
    if family == "single_mixed":  # one state: every block merges into one redundant factor
        lam = np.arange(1, shape + 1) + 0.5 * rng.random(shape)
        lam /= lam.sum()
        u = _random_unitary(shape, rng)
        e = Ensemble(probs=[1.0], states=_conjugate(u, [np.diag(lam)]))
        return e, {"shapes": [[1, shape]], "I_C": 0.0, "I_NC": 0.0, "I_R": _shannon(lam)}
    if family == "ket0_plus":
        ket0 = np.array([[1, 0], [0, 0]], dtype=complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        e = Ensemble(probs=[0.5, 0.5], states=[ket0, plus])
        s = _shannon(np.linalg.eigvalsh(0.5 * (ket0 + plus)))
        return e, {"shapes": [[2, 1]], "I_C": 0.0, "I_NC": s, "I_R": 0.0}
    if family == "commuting":  # jointly diagonal states: purely classical
        w = 0.05 + rng.random((m, shape))
        w /= w.sum(axis=1, keepdims=True)
        probs = 0.2 + rng.random(m)
        probs /= probs.sum()
        u = _random_unitary(shape, rng)
        e = Ensemble(probs=probs, states=_conjugate(u, [np.diag(row) for row in w]))
        return e, {"shapes": [[1, 1]] * shape, "I_C": _shannon(probs @ w), "I_NC": 0.0, "I_R": 0.0}
    raise ValueError(f"unknown corpus family {family!r}")


class CliCorpus:
    """In-process `kidecomp.cli.main` calls over hundreds of small ensemble files."""

    def __init__(self, seed: int, workdir: Path, copies=CORPUS_COPIES):
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.ops = []
        for copy in range(copies):
            for r, recipe in enumerate(CORPUS_RECIPES):
                idx = len(self.ops)
                e, expected = corpus_ensemble(recipe, rng)
                path = str(workdir / f"in{idx:04d}.json")
                ensemble.save_ensemble(path, e)
                command = COMMANDS[(r + copy) % len(COMMANDS)]
                argv = [command, path, "-o", str(workdir / f"out{idx:04d}.json")]
                if command == "verify":
                    dec = str(workdir / f"dec{idx:04d}.json")
                    cli.main(["decompose", path, "-o", dec])
                    argv += ["--decomposition", dec]
                self.ops.append(self._op(f"{idx:04d} {recipe[0]} {command}", command, argv, expected))
        for op in self.ops[:8]:  # warm-up
            op.run()

    @staticmethod
    def _op(key: str, command: str, argv: list[str], expected: dict) -> Op:
        out_path = argv[3]

        def answer(code):
            try:
                with open(out_path, encoding="utf-8") as fh:
                    return {"exit": code, "output": fh.read()}
            except FileNotFoundError:
                return {"exit": code, "output": ""}

        def check(ans):
            if ans["exit"] != 0:
                return f"exit code {ans['exit']}"
            doc = json.loads(ans["output"])
            if command == "remove-redundancy":
                want = sum(n for n, _ in expected["shapes"])
                return None if doc["dim"] == want else f"reduced dim {doc['dim']} != {want}"
            result, residuals = doc["result"], doc["residuals"]
            if command == "verify":
                return None if result["ok"] else "verify report not ok"
            if command == "decompose":
                shapes = sorted([b["n"], b["k"]] for b in result["blocks"])
                if shapes != expected["shapes"]:
                    return f"block shapes {shapes} differ from the oracle {expected['shapes']}"
                return None if residuals["reconstruction_max"] <= RESIDUAL_TOL else "reconstruction residual"
            if residuals["entropy_additivity"] > RESIDUAL_TOL:
                return "additivity residual above tolerance"
            got = {
                "I_C": result["info_classical"],
                "I_NC": result["info_nonclassical"],
                "I_R": result["info_redundant"],
            }
            return _measure_mismatch(got, expected)

        return Op(kind=command, key=key, run=lambda: cli.main(argv), answer=answer, check=check)


WORKLOADS = {
    "decompose_ladder": DecomposeLadder,
    "protocol_sim": ProtocolSim,
    "cli_corpus": CliCorpus,
}
