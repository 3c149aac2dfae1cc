"""Run tier-1 against named one-line mutants of `src/` and report the ones it misses.

    python3 tools/mutation_gate.py

Each mutant is one substitution in one file: an old text that must occur
there exactly once and the new text that replaces it, with a reason when
the mutant is known to be equivalent (no test can tell it apart). Every
old text is counted first; one that does not match exactly once exits 2
before anything runs.

Per run, the files that tier-1 reads (`src/`, `tests/`, and the README,
`bench/`, `tools/` and `pyproject.toml` that some tests open) are copied
into a temporary directory, and `python -m pytest -q -x` runs there with
that copy's `src/` on PYTHONPATH and one BLAS thread. It skips
`tests/test_mutation_gate.py`, which matches every old text against the
tree and so would fail on any mutant. The unmutated copy runs first:
when it fails, every mutant would read killed, so the tool exits 2. Then
each mutant runs in a fresh copy with its substitution applied, and one
line prints its name, `killed` or `survives`, the seconds tier-1 took
and the first failing test. The exit status is 1 when a mutant that is
not marked equivalent survives, and 0 otherwise.

The tool is not part of tier-1; `tests/test_mutation_gate.py` checks that
every substitution still matches exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TREE = ("src", "tests", "bench", "tools", "README.md", "pyproject.toml")
SELF_TEST = "tests/test_mutation_gate.py"  # fails on any mutant, so no run collects it
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
PROTOCOLS = "src/kidecomp/protocols.py"
ORACLES = "src/kidecomp/oracles.py"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    equivalent: str | None = None  # why no test can kill it, for a mutant that should survive


MUTANTS = (
    # the probe's eigenvalue clusters split at relative gaps above tol, not sqrt(tol)
    Mutant("cluster_gap_tol", "src/kidecomp/algebra.py", "gap = np.sqrt(tol) *", "gap = tol *"),
    # the support keeps eigenvalues above tol itself, not above tol times the largest
    Mutant("support_cut_absolute", "src/kidecomp/ensemble.py", "keep = rank_cut(lam, tol)", "keep = lam > tol"),
    # I_R drops K eigenvalues below 1e-3 of the largest
    Mutant(
        "i_r_entropy_cut_1e-3",
        "src/kidecomp/measures.py",
        "von_neumann_entropy(b.rho_K, tol)",
        "von_neumann_entropy(b.rho_K, 1e-3)",
    ),
    # verify's pass threshold for reconstruction, weights and channels
    Mutant("verify_thr_1e-4", "src/kidecomp/decompose.py", "thr = max(tol, 1e-8)", "thr = max(tol, 1e-4)"),
    # ki_decompose's guard on the reconstruction of its own form
    Mutant("form_guard_1e-3", "src/kidecomp/decompose.py", "max(tol, 1e4 * np.finfo(float).eps) *", "1e-3 *"),
    # a block weight at or below tol is no longer cut to 0
    Mutant("weight_cut_none", "src/kidecomp/decompose.py", "q = np.where(weight > tol, weight, 0.0)", "q = weight"),
    Mutant("weight_cut_zero", "src/kidecomp/decompose.py", "np.where(weight > tol,", "np.where(weight > 0,"),
    # the merge's weight-ratio test
    Mutant("ratio_1e-2", "src/kidecomp/decompose.py", "/ qb) > tol:", "/ qb) > 1e-2:"),
    # the merge's residual test of the J states
    Mutant("resid_1e-4", "src/kidecomp/decompose.py", "if resid > tol *", "if resid > 1e-4 *"),
    # I_R from log2 k in place of the entropy of rho_K
    Mutant("i_r_log2_k", "src/kidecomp/measures.py", "von_neumann_entropy(b.rho_K, tol)", "np.log2(b.k)"),
    # verify's weight-row check reads a hundredth of its residual
    Mutant(
        "weight_rows_loose",
        "src/kidecomp/decompose.py",
        "within_thr(weight_rows())",
        "within_thr(weight_rows() / 100)",
    ),
    # the support refuses only a state with no trace on it at all
    Mutant("support_trace_zero", "src/kidecomp/ensemble.py", "traces <= tol", "traces <= 0"),
    # the Shannon entropy keeps every positive entry
    Mutant("shannon_cut_zero", "src/kidecomp/measures.py", "keep = p[p > tol]", "keep = p[p > 0]"),
    # two different stacks share the first stack's eigen-frame
    Mutant("shared_frame_always", "src/kidecomp/algebra.py", "same = b_mats is a_mats", "same = True"),
    # a mixed block's failure branch of exactly MIXED_SUBSPACE_CAP dimensions is refused
    Mutant("mixed_cap_inclusive", PROTOCOLS, "plan.dim > MIXED_SUBSPACE_CAP:", "plan.dim >= MIXED_SUBSPACE_CAP:"),
    # the block protocol runs zero trials
    Mutant("sweep_trials_zero", PROTOCOLS, "if trials < 1 or n_messages < 1:", "if trials < 0 or n_messages < 1:"),
    # the failure branch keeps every positive eigenvalue, round-off ones too
    Mutant(
        "failure_cut_zero",
        PROTOCOLS,
        "lam[rank_cut(lam, plan.dim * np.finfo(float).eps)]",
        "lam[lam > 0]",
    ),
    # a block counts as pure at purity 1 - 1e-3, whatever tol is
    Mutant("purity_loose", PROTOCOLS, "purity >= 1.0 - tol", "purity >= 1.0 - 1e-3"),
    # the compression budget rounds down a rate that falls short of an integer by round-off
    Mutant("budget_guard_zero", PROTOCOLS, "(entropy + delta) + _BOUNDARY_GUARD", "(entropy + delta)"),
    # the desk-scale guard refuses a configuration of exactly DESK_SCALE_QUBITS
    Mutant("desk_guard_inclusive", PROTOCOLS, "> DESK_SCALE_QUBITS:", ">= DESK_SCALE_QUBITS:"),
    # a swap counts as keeping the subspace when it keeps any one partial-class sequence
    Mutant("swap_closure_any", PROTOCOLS, ".all(axis=1)", ".any(axis=1)"),
    # the plant guard counts the returned state stack only, not what the draws hold
    Mutant(
        "plant_count_stack_only",
        ORACLES,
        "max(320 + 16 * len(ns) ** 2, held + max(check, 64 * total**2))",
        "16 * total**2",
    ),
    # one channel's Kraus stack is built however large its working set
    Mutant("channel_cap_dropped", ORACLES, "if row > algebra.MAX_STACK_BYTES:", "if False:"),
)


def mismatches(mutants) -> list[str]:
    """One line per mutant whose old text does not occur exactly once in its file."""
    out = []
    for m in mutants:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            out.append(f"{m.name}: {m.old!r} occurs {count} times in {m.path}")
    return out


def _copy_tree(dest: Path) -> None:
    for name in TREE:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest / name)


def run_tier1(mutant: Mutant | None) -> tuple[bool, float, str]:
    """Tier-1 on a fresh copy with `mutant` applied (None: unmutated): whether it passed,
    its seconds and its first failing test."""
    with tempfile.TemporaryDirectory(prefix="mutation_gate_") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            target = tree / mutant.path
            target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src")}
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", f"--ignore={SELF_TEST}"],
            cwd=tree,
            env=env,
            capture_output=True,
            text=True,
        )
        seconds = time.perf_counter() - start
    failed = (line.split(" - ")[0] for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR")))
    return done.returncode == 0, seconds, next(failed, "")


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    if problems := mismatches(MUTANTS):
        print("\n".join(problems), file=sys.stderr)
        return 2
    passed, seconds, first = run_tier1(None)
    print(f"{'unmutated':22s} {'passes' if passed else 'fails':9s} {seconds:6.1f} s  {first}", flush=True)
    if not passed:
        return 2
    start, missed = time.perf_counter(), []
    for m in MUTANTS:
        passed, seconds, first = run_tier1(m)
        verdict = "survives" if passed else "killed"
        note = f"equivalent: {m.equivalent}" if passed and m.equivalent else first
        print(f"{m.name:22s} {verdict:9s} {seconds:6.1f} s  {note}", flush=True)
        if passed and not m.equivalent:
            missed.append(m.name)
    print(f"{len(missed)} non-equivalent mutants survive; mutants took {time.perf_counter() - start:.0f} s")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
