"""kidecomp benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload decompose_ladder --seed 1 --seconds 28 --trace 0

Load model: a closed loop with one caller. One process and one thread
issue the workload's operations back to back; a pass runs the
workload's operation list once. The number of passes is fixed by
`--seconds` and the workload's nominal pass time (`NOMINAL_PASS_S`), so
every run of one workload times each operation the same number of
times. BLAS runs one thread, fixed before numpy loads.

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
sets up once under the tracer, runs the traced passes that fit half of
`--seconds`, then one untraced reference pass over the same inputs; an
untraced answer that differs from the traced one counts as a failure.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric
by name and unit. `bench/out/` receives the full result (environment
stamp included) and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
HELD_OUT_SEED = 7919  # never used while writing a change; checks a claim afterwards
# set-ups per run; the 0.2-s ones are repeated more, as one takes few samples of the machine
SETUP_REPEATS = {"decompose_ladder": 9, "protocol_sim": 9, "cli_corpus": 3}
# Wall time of one pass at the seed commit on a shared 2-core VM with one
# BLAS thread; with `--seconds` it fixes how many passes a run makes,
# independent of timing.
NOMINAL_PASS_S = {"decompose_ladder": 19.0, "protocol_sim": 1.9, "cli_corpus": 4.9}
STAGE_TOLERANCE = 0.02  # all ladder stages, self rows included, within 2% of the wall time
NAMED_COVERAGE_MIN = 0.9  # named stages without the self rows, on the largest rungs
DOMINANT_SHARE_MIN = 0.5  # commutant + center_basis, on the largest rungs


def blas_threads() -> int:
    """One BLAS thread. On a shared 2-core VM, 2 threads made the spread
    over five seeds of `protocol_sim`'s times 0.26-0.28 of the median,
    against 0.11 with one; on its small matrices the process used 1.7
    times its wall time in CPU, so the second thread mostly spun."""
    return 1


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Sample:
    pass_index: int
    position: int
    kind: str
    seconds: float
    failure: str | None


def answer_digest(answer) -> str:
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()


def judge(op, raw, seen: dict) -> str | None:
    """Failure reason for one operation's result, or None.

    `seen` maps an operation key to the digest of its first answer and
    the oracle's verdict on it. A repeat must give the same digest and
    takes the same verdict.
    """
    digest = answer_digest(answer := op.answer(raw))
    if op.key not in seen:
        seen[op.key] = (digest, op.check(answer))
    elif seen[op.key][0] != digest:
        return "answer differs from an earlier run of the same input"
    return seen[op.key][1]


def passes_for(workload_name: str, seconds: float) -> int:
    return max(1, int(seconds / NOMINAL_PASS_S[workload_name] + 0.5))


def run_passes(workload, passes: int, seen: dict, tracer=None):
    """`passes` closed-loop passes over `workload.ops`; returns (samples, pass wall times)."""
    samples, pass_times = [], []
    for p in range(passes):
        t_pass = time.perf_counter()
        for pos, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op = f"{p}:{pos}"
            t0, dt = time.perf_counter(), None
            try:
                raw = op.run()
                dt = time.perf_counter() - t0
                failure = judge(op, raw, seen)
            except Exception as exc:  # a raising operation or oracle is a counted failure, not a crash
                dt = time.perf_counter() - t0 if dt is None else dt
                failure = f"{type(exc).__name__}: {exc}"
            samples.append(Sample(p, pos, op.kind, dt, failure))
        pass_times.append(time.perf_counter() - t_pass)
    return samples, pass_times


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond); with fewer than 20
    samples no percentile qualifies and the maximum is returned as p100.
    """
    xs = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(pct / 100 * len(xs))
        if len(xs) - rank >= 10:
            return pct, xs[rank - 1], len(xs) - rank
    return 100.0, xs[-1], 0


def best_seconds(samples: list[Sample]) -> dict[int, float]:
    """Fastest time of each list position over the run's passes.

    Noise from other tenants of a shared machine only adds time (one
    10k-trial simulate_individual call ranged 0.41-0.76 s within 25 s
    in one process on a shared 2-core VM), so each operation's fastest
    repeat is the steadiest estimate of its cost.
    """
    best: dict[int, float] = {}
    for s in samples:
        best[s.position] = min(s.seconds, best.get(s.position, math.inf))
    return best


def end_to_end(samples: list[Sample], setup_times: list[float]) -> dict:
    best = list(best_seconds(samples).values())
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (sum(best), "s"),
        "op_tail_ms": (1e3 * tail(best)[1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# each workload's own name for a shared metric, printed beside it
ALIASES = {
    "decompose_ladder": {"pass_s": "ladder_s"},
    "cli_corpus": {"op_tail_ms": "cli_op_tail_ms"},
}


def workload_details(name: str, samples: list[Sample]) -> dict:
    """Figures of one workload that the shared end-to-end metrics do not give."""
    failed = sum(s.failure is not None for s in samples)
    best = best_seconds(samples)
    pct, _, beyond = tail(list(best.values()))
    out = {
        "failed_frac": (failed / len(samples), f"ratio ({failed} of {len(samples)} ops)"),
        "op_tail_percentile": (pct, f"percentile ({beyond} of {len(best)} operations beyond it)"),
    }
    kinds = {s.position: s.kind for s in samples}

    def kind_best(kind: str) -> list[float]:
        return [t for pos, t in best.items() if kinds[pos] == kind]

    if name == "decompose_ladder":
        for pos, t in best.items():
            out[f"rung {kinds[pos]}"] = (t, "s")
    elif name == "protocol_sim":
        from workloads import INDIVIDUAL_TRIALS

        ind = kind_best("simulate_individual")
        out["individual_trials_per_s"] = (INDIVIDUAL_TRIALS * len(ind) / sum(ind), "1/s")
        out["sweep_s"] = (sum(kind_best("rate_sweep")), "s")
    elif name == "cli_corpus":
        out["cli_ops_per_s"] = (len(best) / sum(best.values()), "1/s")
        out["cli_op_p50_ms"] = (1e3 * statistics.median(best.values()), "ms")
        for kind in dict.fromkeys(kinds.values()):
            out[f"p50 {kind}"] = (1e3 * statistics.median(kind_best(kind)), "ms")
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from the traced passes

# (metric, unit, better)
PER_LAYER = [
    ("algebra.commutant.s", "s", "lower"),
    ("algebra.commutant.peak_mb", "MB", "lower"),
    ("algebra.commutant_dim", "count", "lower"),
    ("algebra.center_basis.s", "s", "lower"),
    ("algebra.center_basis.peak_mb", "MB", "lower"),
    ("algebra.center_dim", "count", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.nullspace.s", "s", "lower"),
    ("linalg.nullspace.rows_max", "count", "lower"),
    ("linalg.nullspace.u_bytes_max", "bytes", "lower"),
    ("algebra.generate_algebra.calls", "count", "lower"),
    ("algebra.generate_algebra.s", "s", "lower"),
    ("algebra.dim", "count", "lower"),
    ("linalg.orthonormalize_hs.calls", "count", "lower"),
    ("linalg.orthonormalize_hs.s", "s", "lower"),
    ("algebra.irrep_decompose.s", "s", "lower"),
    ("decompose.ki_decompose.s", "s", "lower"),
    ("decompose.mergeable.calls", "count", "lower"),
    ("decompose.mergeable.hit_ratio", "ratio", "higher"),
    ("decompose.verify.s", "s", "lower"),
    ("oracles.random_form2_channel.calls", "count", "lower"),
    ("oracles.random_form2_channel.s", "s", "lower"),
    ("ensemble.read_ensemble.s", "s", "lower"),
    ("ensemble.require_valid.s", "s", "lower"),
    ("ensemble.support_restrict.s", "s", "lower"),
    ("decompose.decomposition_to_doc.s", "s", "lower"),
    ("decompose.read_decomposition.s", "s", "lower"),
    ("decompose.remove_redundancy.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.commands.decompose", "count", "higher"),
    ("cli.commands.measures", "count", "higher"),
    ("cli.commands.verify", "count", "higher"),
    ("cli.commands.remove-redundancy", "count", "higher"),
    ("measures.info_measures.s", "s", "lower"),
    ("measures.fidelity.calls", "count", "lower"),
    ("measures.fidelity.s", "s", "lower"),
    ("protocols.simulate_individual.s", "s", "lower"),
    ("protocols.simulate_individual.trials", "count", "higher"),
    ("protocols.simulate_asymptotic.calls", "count", "lower"),
    ("protocols.simulate_asymptotic.s", "s", "lower"),
    ("protocols.rate_sweep.s", "s", "lower"),
    ("oracles.planted_ensemble.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def per_layer(tracer, traced_passes: int, overhead_s: float) -> dict:
    """Per-pass self times and counts over the traced passes; set-up spans only for planted_ensemble.

    Self time is a span minus its direct child spans. Counts are per
    pass, so they repeat exactly for a fixed seed; `*_max` and
    `*.peak_mb` are maxima over the run.
    """
    self_s = defaultdict(float)
    planted_setup_s = 0.0
    calls = defaultdict(int)
    info_sum = defaultdict(float)
    info_max = defaultdict(float)
    for span, ns in zip(tracer.spans, tracer.self_ns()):
        if span.op == "setup":
            if span.name == "oracles.planted_ensemble":
                planted_setup_s += ns / 1e9
            continue
        self_s[span.name] += ns / 1e9
        calls[span.name] += 1
        for key, value in span.info.items():
            if key == "command":
                calls[f"cli.commands.{value}"] += 1
            else:
                info_sum[f"{span.name}.{key}"] += float(value)
                info_max[f"{span.name}.{key}"] = max(info_max[f"{span.name}.{key}"], float(value))
    n = traced_passes
    merge_calls = calls["decompose.mergeable"]
    values = {
        "algebra.commutant.peak_mb": info_max["algebra.commutant.peak_bytes"] / 2**20,
        "algebra.commutant_dim": info_sum["algebra.commutant.dim"] / n,
        "algebra.center_basis.peak_mb": info_max["algebra.center_basis.peak_bytes"] / 2**20,
        "algebra.center_dim": info_sum["algebra.center_basis.dim"] / n,
        "linalg.nullspace.rows_max": info_max["linalg.nullspace.rows"],
        "linalg.nullspace.u_bytes_max": info_max["linalg.nullspace.u_bytes"],
        "algebra.dim": info_sum["algebra.generate_algebra.dim"] / n,
        "decompose.mergeable.hit_ratio": (
            info_sum["decompose.mergeable.hit"] / merge_calls if merge_calls else 0.0
        ),
        "protocols.simulate_individual.trials": info_sum["protocols.simulate_individual.trials"] / n,
        "oracles.planted_ensemble.s": planted_setup_s,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".s"):
            value = self_s[name[: -len(".s")]] / n
        else:  # ".calls" and "cli.commands.<command>"
            value = calls[name.removesuffix(".calls")] / n
        out[name] = (value, unit)
    return out


LADDER_STAGES = (
    "support_restrict",
    "generate_algebra",
    "commutant",
    "center_basis",
    "irrep_decompose (self)",
    "ki_decompose (self)",
    "info_measures",
    "verify",
)


REQUIRED_STAGES = ("support_restrict", "generate_algebra", "commutant", "center_basis")


def rung_dim(label: str) -> int:
    return int(label.split()[0].removeprefix("d="))


def ladder_stages(tracer, samples: list[Sample], dominant_dim: int = 11) -> list[dict]:
    """Per-operation stage table of the traced ladder passes, with its checks.

    Stages are inclusive span times, except the two "(self)" rows which
    subtract the named stages nested in them, so all rows sum to the
    three top-level calls of the operation. Each row lists its
    `problems`: a required stage without a span, all rows off the wall
    time by more than STAGE_TOLERANCE, and on rungs of dimension
    `dominant_dim` or more, named stages (self rows left out) covering
    less than NAMED_COVERAGE_MIN of the wall time or commutant +
    center_basis less than DOMINANT_SHARE_MIN of it.
    """
    children = defaultdict(list)
    top = defaultdict(dict)
    for i, span in enumerate(tracer.spans):
        if span.parent >= 0:
            children[span.parent].append(i)
        elif span.op != "setup":
            top[span.op][span.name.split(".")[1]] = i

    def child(i: int, name: str) -> tuple[float, int]:
        found = [tracer.spans[c].duration for c in children[i] if tracer.spans[c].name.endswith("." + name)]
        return sum(found), len(found)

    rows = []
    for s in samples:
        spans = top.get(f"{s.pass_index}:{s.position}", {})
        if s.failure is not None or len(spans) != 3:
            continue
        ki = spans["ki_decompose"]
        irrep = next(c for c in children[ki] if tracer.spans[c].name == "algebra.irrep_decompose")
        found = {
            "support_restrict": child(ki, "support_restrict"),
            "generate_algebra": child(ki, "generate_algebra"),
            "commutant": child(irrep, "commutant"),
            "center_basis": child(irrep, "center_basis"),
        }
        stage_ns = {k: ns for k, (ns, _) in found.items()}
        stage_ns["irrep_decompose (self)"] = (
            tracer.spans[irrep].duration - stage_ns["commutant"] - stage_ns["center_basis"]
        )
        stage_ns["ki_decompose (self)"] = (
            tracer.spans[ki].duration
            - tracer.spans[irrep].duration
            - stage_ns["support_restrict"]
            - stage_ns["generate_algebra"]
        )
        stage_ns["info_measures"] = tracer.spans[spans["info_measures"]].duration
        stage_ns["verify"] = tracer.spans[spans["verify"]].duration
        stages = {k: stage_ns[k] / 1e9 for k in LADDER_STAGES}
        coverage = sum(stages.values()) / s.seconds
        named = sum(v for k, v in stages.items() if not k.endswith("(self)")) / s.seconds
        share = (stages["commutant"] + stages["center_basis"]) / s.seconds
        problems = [f"no {k} span" for k in REQUIRED_STAGES if found[k][1] == 0]
        if abs(coverage - 1.0) > STAGE_TOLERANCE:
            problems.append(f"stages cover {coverage:.3f} of the wall time")
        if rung_dim(s.kind) >= dominant_dim:
            if named < NAMED_COVERAGE_MIN:
                problems.append(f"named stages cover {named:.3f} of the wall time")
            if share < DOMINANT_SHARE_MIN:
                problems.append(f"commutant + center_basis take {share:.3f} of the wall time")
        rows.append(
            {
                "rung": s.kind,
                "wall_s": s.seconds,
                "stages_s": stages,
                "coverage": coverage,
                "named_coverage": named,
                "commutant_center_share": share,
                "problems": problems,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# environment stamp


def git_commit() -> str:
    """HEAD of the enclosing git checkout, read without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kidecomp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int, threads: int) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {
        "git_commit": git_commit(),
        "source_sha256_16": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "load": "closed loop, 1 caller, 1 thread issuing operations",
    }


# ---------------------------------------------------------------------------
# entry point


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up and measure one workload; returns the full result document."""
    import workloads
    from tracing import Tracer

    cls = workloads.WORKLOADS[workload_name]
    seen: dict = {}
    if not trace:
        setup_times = []
        for _ in range(SETUP_REPEATS[workload_name]):
            t0 = time.perf_counter()
            workload = cls(seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        passes = passes_for(workload_name, seconds)
        samples, _ = run_passes(workload, passes, seen)
        metrics = end_to_end(samples, setup_times)
        details = workload_details(workload_name, samples)
        extra = {"passes": passes}
    else:
        tracer = Tracer()
        with tracer.installed():
            workload = cls(seed, workdir)
            samples, pass_times = run_passes(workload, passes_for(workload_name, seconds / 2), seen, tracer)
        untraced, ref_times = run_passes(workload, 1, seen)
        overhead = statistics.median(pass_times) - ref_times[0]
        metrics = per_layer(tracer, len(pass_times), overhead)
        extra = {"traced_passes": len(pass_times), "untraced_pass_s": ref_times[0]}
        if workload_name == "decompose_ladder":
            extra["stages"] = ladder_stages(tracer, samples)
        details = workload_details(workload_name, samples)
        samples = untraced + samples
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{workload_name}-seed{seed}-spans.json")
    failures = [f"{s.kind}: {s.failure}" for s in samples if s.failure is not None]
    return {
        "environment": environment(seed, blas_threads()),
        "workload": workload_name,
        "trace": int(trace),
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures[:50],
        "metrics": metrics,
        "details": details,
        "answers_sha256": answer_digest(sorted(seen.items())),
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("decompose_ladder", "protocol_sim", "cli_corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads  # read once, when numpy loads BLAS
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kidecomp
    except ImportError as exc:
        print(f"error: cannot import kidecomp from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(kidecomp.__file__).resolve().parent.parent != src.resolve():
        print(f"error: kidecomp loaded from {kidecomp.__file__}, not {src}", file=sys.stderr)
        return 2

    # a fixed path, so CLI reports (which echo their input path) repeat across runs
    workdir = OUT_DIR / f"work-{args.workload}-seed{args.seed}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    for key, value in result["environment"].items():
        print(f"# {key}: {value}")
    aliases = ALIASES.get(args.workload, {}) if not args.trace else {}
    for name, (value, unit) in {**result["details"], **result["metrics"]}.items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"{label} = {value:.6g} {unit}")
    for row in result.get("stages", []):
        stages = " ".join(f"{k}={v:.4f}" for k, v in row["stages_s"].items())
        print(
            f"stages {row['rung']}: wall={row['wall_s']:.4f}s coverage={row['coverage']:.4f}"
            f" named={row['named_coverage']:.4f} {stages}"
        )
        print(f"stage check {row['rung']}: {'; '.join(row['problems']) or 'ok'}")
    for failure in result["failures"][:10]:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
