"""Time the decomposition on the scale list and write the figures as JSON.

    python3 tools/scale_run.py [--out BENCH_scale.json]

Runs in one process with one BLAS thread, on this tree's `src/`. Each
input of `INPUTS` is a planted ensemble (`planted_ensemble`, plant seed
`PLANT_SEED`). Per input the script records the best of `runs` wall
times of `ki_decompose` (seed 0) and of `verify` (default options), the
`tracemalloc` peak of one more `ki_decompose` call, the shape and the
seconds of the split's nullspace solve (the first `nullspace` call of a
`ki_decompose` call; the script wraps `kidecomp.algebra.nullspace`, so
the library is unchanged), the number and total seconds of all nullspace
solves of one call, and whether the block shapes found equal the
plant's. An input that stops with a package error, or runs out of
memory, records the error's class as its outcome, the message, the
stage it stopped in (`plant`, `ki_decompose` or `verify`) and the
seconds of the call that stopped; the next input runs as usual. The
file also carries an environment stamp: BLAS threads, numpy and Python
versions, CPU count and the load average before and after the run. The
README lists every field.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":  # one BLAS thread, set before numpy loads, and this tree's package
    os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

from kidecomp import algebra  # noqa: E402
from kidecomp.decompose import ki_decompose, verify  # noqa: E402
from kidecomp.errors import KidecompError  # noqa: E402
from kidecomp.oracles import PlantSpec, planted_ensemble  # noqa: E402

PLANT_SEED = 1


class ScaleInput(NamedTuple):
    name: str
    blocks: tuple[tuple[int, int], ...]
    num_states: int
    runs: int = 2  # timed calls per stage; the figure is the best of them


INPUTS = (
    ScaleInput("d=52 8x4,6x2,4x2, 50 states", ((8, 4), (6, 2), (4, 2)), 50),
    ScaleInput("d=52 8x4,6x2,4x2, 200 states", ((8, 4), (6, 2), (4, 2)), 200),
    ScaleInput("d=128 32x4, 3 states", ((32, 4),), 3),
    ScaleInput("d=128 classical (128 1x1), 4 states", ((1, 1),) * 128, 4),
    ScaleInput("d=256 64x4, 3 states", ((64, 4),), 3, runs=1),
    ScaleInput("d=256 classical (256 1x1), 4 states", ((1, 1),) * 256, 4, runs=1),
)


@contextmanager
def nullspace_calls(calls: list):
    """Append (shape, seconds) of each `kidecomp.algebra.nullspace` call to `calls` inside the block."""
    real = algebra.nullspace

    def timed(a, *args, **kwargs):
        start = time.perf_counter()
        out = real(a, *args, **kwargs)
        calls.append((list(a.shape), time.perf_counter() - start))
        return out

    algebra.nullspace = timed
    try:
        yield
    finally:
        algebra.nullspace = real


def _shapes(blocks) -> dict[str, int]:
    """Block count per `nxk` shape, in descending (n, k) order."""
    return {f"{n}x{k}": c for (n, k), c in sorted(collections.Counter((b.n, b.k) for b in blocks).items(), reverse=True)}


def run_input(inp: ScaleInput) -> dict:
    """The figures of one input; the stages run in order and stop at the first error."""
    dim = sum(n * k for n, k in inp.blocks)
    row = {"input": inp.name, "dim": dim, "num_states": inp.num_states, "runs": inp.runs, "outcome": "ok"}
    stage, start = "plant", time.perf_counter()
    try:
        e, truth = planted_ensemble(PlantSpec(blocks=inp.blocks, num_states=inp.num_states, seed=PLANT_SEED))
        row["plant_s"] = time.perf_counter() - start
        stage, best, split = "ki_decompose", [], []
        for _ in range(inp.runs):
            calls = []
            with nullspace_calls(calls):
                start = time.perf_counter()
                d = ki_decompose(e)
                best.append(time.perf_counter() - start)
            split.append(calls)
        row["ki_decompose_s"] = min(best)
        row["split_stack"] = split[0][0][0]
        row["split_nullspace_s"] = min(calls[0][1] for calls in split)
        row["nullspace_calls"] = len(split[0])
        row["nullspace_s"] = min(sum(s for _, s in calls) for calls in split)
        row["shapes"] = _shapes(d.blocks)
        row["shapes_match"] = row["shapes"] == _shapes(truth.blocks)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            ki_decompose(e)
            row["ki_decompose_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        stage, best = "verify", []
        for _ in range(inp.runs):
            start = time.perf_counter()
            report = verify(d, e)
            best.append(time.perf_counter() - start)
        row["verify_s"] = min(best)
        row["verify_ok"] = report.ok
    except (KidecompError, MemoryError) as exc:
        row.update(outcome=type(exc).__name__, stage=stage, error=str(exc), failed_after_s=time.perf_counter() - start)
    return row


def environment() -> dict:
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "load_average": list(os.getloadavg()),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Time the decomposition on the scale list.")
    parser.add_argument("--out", default="BENCH_scale.json", help="JSON file to write (default: %(default)s)")
    args = parser.parse_args(argv)
    env = environment()
    rows = []
    for inp in INPUTS:
        rows.append(r := run_input(inp))
        figures = f"ki_decompose {r['ki_decompose_s']:.2f} s" if "ki_decompose_s" in r else r["error"]
        print(f"{inp.name:40s} {r['outcome']:18s} {figures}", flush=True)
    env["load_average_after"] = list(os.getloadavg())
    Path(args.out).write_text(json.dumps({"environment": env, "plant_seed": PLANT_SEED, "inputs": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
