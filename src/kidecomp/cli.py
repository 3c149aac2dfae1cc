"""Command-line front end.

Every report is a JSON (or flattened text) document with the shape
{"version", "config", "result", "residuals"}; numeric values are
printed with 12 significant digits and runs are byte-reproducible for
a fixed config and seed. Ensemble outputs (remove-redundancy, gen) are
written in the ensemble file format at full precision instead.

Exit codes: 0 success, 2 parse/validation failure, 3 numerical failure,
4 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .decompose import (
    decomposition_to_doc,
    ki_decompose,
    read_decomposition,
    remove_redundancy,
    verify,
)
from .ensemble import load_ensemble, save_ensemble, validate, write_ensemble
from .errors import (
    ConfigTooLarge,
    ConvergenceFailure,
    DegenerateSample,
    DimensionOverflow,
    FormViolation,
    KidecompError,
    NotHermitian,
    NotPSD,
    ParseError,
    RejectionExhausted,
    ValidationError,
)
from .measures import info_measures
from .oracles import PlantSpec, planted_ensemble
from .protocols import AsymptoticConfig, rate_sweep, simulate_asymptotic, simulate_individual

_NUMERICAL = (DegenerateSample, FormViolation, ConvergenceFailure, DimensionOverflow, NotHermitian, NotPSD)
_CONFIG = (ConfigTooLarge, RejectionExhausted)


@dataclass
class CliConfig:
    command: str
    input_path: str | None = None
    output_path: str | None = None
    tol: float = 1e-9
    seed: int = 0
    trials: int = 10_000
    n_messages: int = 8
    delta: float = 0.25
    deltas: tuple[float, ...] = (-0.25, 0.0, 0.25)
    fmt: str = "json"
    decomposition_path: str | None = None
    channels: int = 20
    env_dim: int = 2
    blocks: tuple[tuple[int, int], ...] = ()
    num_states: int = 3

    def echo(self) -> dict:
        # output path excluded: it does not affect the computation and
        # would break byte-level comparison of otherwise identical runs
        out = {
            "command": self.command,
            "input": self.input_path,
            "tol": self.tol,
            "seed": self.seed,
            "format": self.fmt,
        }
        if self.command in ("simulate-individual", "simulate-asymptotic", "rate-sweep"):
            out["trials"] = self.trials
        if self.command in ("simulate-asymptotic", "rate-sweep"):
            out["n_messages"] = self.n_messages
        if self.command == "simulate-asymptotic":
            out["delta"] = self.delta
        if self.command == "rate-sweep":
            out["deltas"] = list(self.deltas)
        if self.command == "verify":
            out["decomposition"] = self.decomposition_path
            out["channels"] = self.channels
            out["env_dim"] = self.env_dim
        if self.command == "gen":
            out["blocks"] = [f"{n}x{k}" for n, k in self.blocks]
            out["num_states"] = self.num_states
        return out


def _round12(obj):
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return repr(obj)  # strict-JSON safe
        return float(f"{obj:.12g}")
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _flatten(prefix: str, obj, lines: list[str]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, lines)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, lines)
    else:
        lines.append(f"{prefix} = {obj}")


def _emit_report(cfg: CliConfig, result, residuals) -> None:
    report = {
        "version": __version__,
        "config": cfg.echo(),
        "result": result,
        "residuals": residuals,
    }
    report = _round12(report)
    if cfg.fmt == "json":
        text = json.dumps(report, indent=1) + "\n"
    else:
        lines: list[str] = []
        _flatten("", report, lines)
        text = "\n".join(lines) + "\n"
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _decompose_input(cfg: CliConfig):
    e = load_ensemble(cfg.input_path, cfg.tol)
    return e, ki_decompose(e, seed=cfg.seed, tol=cfg.tol)


def run(cfg: CliConfig) -> int:
    """Execute one command; raises package errors for main() to map."""
    if cfg.command == "decompose":
        e, d = _decompose_input(cfg)
        recon = max(float(np.linalg.norm(d.reconstruct(i) - e.states[i])) for i in range(len(e)))
        _emit_report(cfg, decomposition_to_doc(d), {"reconstruction_max": recon})
        return 0

    if cfg.command == "measures":
        e, d = _decompose_input(cfg)
        m = info_measures(d, e, cfg.tol)
        _emit_report(cfg, m.to_dict(), {"entropy_additivity": m.additivity_residual})
        return 0

    if cfg.command == "simulate-individual":
        e, d = _decompose_input(cfg)
        _, summary = simulate_individual(e, d, trials=cfg.trials, seed=cfg.seed, tol=cfg.tol)
        _emit_report(
            cfg,
            summary.to_dict(),
            {
                "mixture": summary.mixture_residual,
                "min_conditional_fidelity_gap": 1.0 - summary.min_conditional_fidelity,
            },
        )
        return 0

    if cfg.command == "simulate-asymptotic":
        e, d = _decompose_input(cfg)
        run_ = simulate_asymptotic(
            e,
            d,
            AsymptoticConfig(
                n_messages=cfg.n_messages, delta=cfg.delta, trials=cfg.trials, seed=cfg.seed
            ),
            cfg.tol,
        )
        _emit_report(cfg, run_.to_dict(), {})
        return 0

    if cfg.command == "rate-sweep":
        e, d = _decompose_input(cfg)
        runs = rate_sweep(
            e, d, cfg.n_messages, cfg.deltas, trials=cfg.trials, seed=cfg.seed, tol=cfg.tol
        )
        _emit_report(cfg, {"table": [r.to_dict() for r in runs]}, {})
        return 0

    if cfg.command == "remove-redundancy":
        e, d = _decompose_input(cfg)
        reduced = remove_redundancy(d, e)
        if cfg.output_path:
            save_ensemble(cfg.output_path, reduced)
        else:
            sys.stdout.write(write_ensemble(reduced).decode("utf-8"))
        return 0

    if cfg.command == "verify":
        e = load_ensemble(cfg.input_path, cfg.tol)
        if cfg.decomposition_path:
            with open(cfg.decomposition_path, "rb") as fh:
                d = read_decomposition(fh.read())
        else:
            d = ki_decompose(e, seed=cfg.seed, tol=cfg.tol)
        report = verify(
            e=e, d=d, tol=cfg.tol, channels=cfg.channels, env_dim=cfg.env_dim, seed=cfg.seed
        )
        worst = max((c.residual for c in report.checks if c.residual == c.residual), default=0.0)
        _emit_report(cfg, report.to_dict(), {"worst_residual": worst})
        return 0  # failing checks are data, not an error

    if cfg.command == "gen":
        if not cfg.output_path:
            raise ValueError("gen requires -o/--output for the ensemble file")
        spec = PlantSpec(blocks=cfg.blocks, num_states=cfg.num_states, seed=cfg.seed)
        e, truth = planted_ensemble(spec, cfg.tol)
        report_ok = validate(e, cfg.tol).ok
        save_ensemble(cfg.output_path, e)
        sidecar = _truth_path(cfg.output_path)
        truth_report = _round12(
            {
                "version": __version__,
                "config": cfg.echo(),
                "result": decomposition_to_doc(truth),
                "residuals": {"ensemble_valid": report_ok},
            }
        )
        with open(sidecar, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(truth_report, indent=1) + "\n")
        return 0

    raise ValueError(f"unknown command {cfg.command!r}")


def _truth_path(output_path: str) -> str:
    if output_path.endswith(".json"):
        return output_path[: -len(".json")] + ".truth.json"
    return output_path + ".truth.json"


def _parse_blocks(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for part in text.split(","):
        part = part.strip().lower()
        try:
            n, k = part.split("x")
            out.append((int(n), int(k)))
        except ValueError as exc:
            raise ValueError(f"bad block spec {part!r}; expected like 2x1") from exc
    return tuple(out)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; config errors are exit 4
        raise ValueError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: `parse_args` leaves it unchanged."""
    p = _Parser(prog="kidecomp", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("input", help="ensemble file")
        sp.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("json", "text"), default="json")

    common(sub.add_parser("decompose", help="canonical block decomposition"))
    common(sub.add_parser("measures", help="information split and entanglement costs"))

    sp = sub.add_parser("simulate-individual", help="per-message protocol with ebit ledger")
    common(sp)
    sp.add_argument("--trials", type=int, default=10_000)

    sp = sub.add_parser("simulate-asymptotic", help="block compression protocol")
    common(sp)
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("-N", "--messages", type=int, default=8, dest="messages")
    sp.add_argument("--delta", type=float, default=0.25)

    sp = sub.add_parser("rate-sweep", help="block protocol over a list of rate slacks")
    common(sp)
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("-N", "--messages", type=int, default=8, dest="messages")
    sp.add_argument("--deltas", default="-0.25,0,0.25", help="comma-separated slack values")

    sp = sub.add_parser("remove-redundancy", help="drop the shared redundant factors")
    common(sp)

    sp = sub.add_parser("verify", help="check a decomposition against its ensemble")
    common(sp)
    sp.add_argument("--decomposition", default=None, help="decomposition file (else recompute)")
    sp.add_argument("--channels", type=int, default=20)
    sp.add_argument("--env-dim", type=int, default=2, dest="env_dim")

    sp = sub.add_parser("gen", help="planted ensemble with ground-truth sidecar")
    common(sp, needs_input=False)
    sp.add_argument("--blocks", required=True, help="block shapes, e.g. 2x1,1x2")
    sp.add_argument("--num-states", type=int, default=3, dest="num_states")
    return p


def _config_from_args(args) -> CliConfig:
    cfg = CliConfig(command=args.command)
    cfg.input_path = getattr(args, "input", None)
    cfg.output_path = args.output
    cfg.tol = args.tol
    cfg.seed = args.seed
    cfg.fmt = args.format
    if hasattr(args, "trials"):
        cfg.trials = args.trials
    if hasattr(args, "messages"):
        cfg.n_messages = args.messages
    if hasattr(args, "delta"):
        cfg.delta = args.delta
    if hasattr(args, "deltas"):
        cfg.deltas = tuple(float(x) for x in str(args.deltas).split(","))
    if hasattr(args, "decomposition"):
        cfg.decomposition_path = args.decomposition
    if hasattr(args, "channels"):
        cfg.channels = args.channels
    if hasattr(args, "env_dim"):
        cfg.env_dim = args.env_dim
    if hasattr(args, "blocks"):
        cfg.blocks = _parse_blocks(args.blocks)
    if hasattr(args, "num_states"):
        cfg.num_states = args.num_states
    if cfg.tol <= 0:
        raise ValueError("tol must be positive")
    if cfg.trials < 1 or cfg.n_messages < 1:
        raise ValueError("trials and messages must be at least 1")
    return cfg


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        return run(cfg)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (_CONFIG + (ValueError, OSError)) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 4
    except KidecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
