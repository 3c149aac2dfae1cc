"""Command-line front end.

Every report is a JSON (or flattened text) document with the shape
{"version", "config", "result", "residuals"}; numeric values are
printed with 12 significant digits and runs are byte-reproducible for
a fixed config and seed. Ensemble outputs (remove-redundancy, gen) are
written in the ensemble file format at full precision instead. Every
JSON document goes through the package's one writer
(`ensemble._to_json`), which writes what `json.dumps(indent=1)` would.

Each call reads and checks its input once: a command that runs
`ki_decompose` parses the ensemble without validating it, as
`ki_decompose` validates; `verify --decomposition` validates as it reads.

Exit codes: 0 success, 2 parse/validation failure, 3 numerical failure,
4 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import __version__
from .decompose import (
    decomposition_to_doc,
    ki_decompose,
    read_decomposition,
    remove_redundancy,
    verify,
)
from .ensemble import _parse_ensemble, _round_float, _to_json, load_ensemble, save_ensemble, validate, write_ensemble
from .errors import (
    ConfigTooLarge,
    ConvergenceFailure,
    DegenerateSample,
    FormViolation,
    KidecompError,
    NotHermitian,
    NotPSD,
    ParseError,
    RejectionExhausted,
    ValidationError,
)
from .linalg import DEFAULT_TOL
from .measures import info_measures
from .oracles import PlantSpec, planted_ensemble
from .protocols import rate_sweep, simulate_asymptotic, simulate_individual

_NUMERICAL = (DegenerateSample, FormViolation, ConvergenceFailure, NotHermitian, NotPSD)
_CONFIG = (ConfigTooLarge, RejectionExhausted, MemoryError)  # MemoryError: a refused allocation
_DIGITS = 12  # significant digits of a report's floats, in the JSON and the text format alike


def _flatten(prefix: str, obj, lines: list[str]) -> None:
    """The text format: one `path = value` line per leaf, floats at `_DIGITS` significant digits."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, lines)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, lines)
    elif isinstance(obj, float):
        lines.append(f"{prefix} = {_round_float(obj, f'%.{_DIGITS}g')}")
    else:
        lines.append(f"{prefix} = {obj}")


def _report_text(cfg: argparse.Namespace, result, residuals, fmt: str) -> str:
    report = {"version": __version__, "config": _echo(cfg), "result": result, "residuals": residuals}
    if fmt == "json":
        return _to_json(report, digits=_DIGITS) + "\n"
    lines: list[str] = []
    _flatten("", report, lines)
    return "\n".join(lines) + "\n"


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Command handlers: each returns its report's (result, residuals), or None
# when it writes its own output. They call the package functions through this
# module's globals, so a wrapper rebound there (as the traced bench does)
# sees every call.


def _decompose_input(cfg: argparse.Namespace):
    with open(cfg.input, "rb") as fh:
        e = _parse_ensemble(fh.read())  # not validated here: ki_decompose validates it
    return e, ki_decompose(e, seed=cfg.seed, tol=cfg.tol)


def _decompose(cfg):
    e, d = _decompose_input(cfg)
    return decomposition_to_doc(d, e.probs), {"reconstruction_max": d.reconstruction_residual(e)}


def _measures(cfg):
    e, d = _decompose_input(cfg)
    m = info_measures(d, e, cfg.tol)
    return m.to_dict(), {"entropy_additivity": m.additivity_residual}


def _simulate_individual(cfg):
    e, d = _decompose_input(cfg)
    _, s = simulate_individual(e, d, trials=cfg.trials, seed=cfg.seed, tol=cfg.tol)
    gap = 1.0 - s.min_conditional_fidelity
    return s.to_dict(), {"mixture": s.mixture_residual, "min_conditional_fidelity_gap": gap}


def _simulate_asymptotic(cfg):
    e, d = _decompose_input(cfg)
    run_ = simulate_asymptotic(e, d, cfg.n_messages, cfg.delta, trials=cfg.trials, seed=cfg.seed, tol=cfg.tol)
    return run_.to_dict(), {}


def _rate_sweep(cfg):
    e, d = _decompose_input(cfg)
    runs = rate_sweep(e, d, cfg.n_messages, cfg.deltas, trials=cfg.trials, seed=cfg.seed, tol=cfg.tol)
    return {"table": [r.to_dict() for r in runs]}, {}


def _remove_redundancy(cfg):
    e, d = _decompose_input(cfg)
    _write(cfg.output, write_ensemble(remove_redundancy(d, e)).decode("utf-8"))


def _verify(cfg):
    if cfg.decomposition:  # no ki_decompose runs, so the ensemble is validated as it is read
        e = load_ensemble(cfg.input, cfg.tol)
        with open(cfg.decomposition, "rb") as fh:
            d = read_decomposition(fh.read())
    else:
        e, d = _decompose_input(cfg)
    report = verify(e=e, d=d, tol=cfg.tol, channels=cfg.channels, env_dim=cfg.env_dim, seed=cfg.seed)
    worst = float(np.max([c.residual for c in report.checks]))  # NaN when any residual is NaN
    return report.to_dict(), {"worst_residual": worst}  # failing checks are data, not an error


def _gen(cfg):
    if not cfg.output:
        raise ValueError("gen requires -o/--output for the ensemble file")
    spec = PlantSpec(blocks=cfg.blocks, num_states=cfg.num_states, seed=cfg.seed)
    e, truth = planted_ensemble(spec, cfg.tol)
    valid = validate(e, cfg.tol).ok
    save_ensemble(cfg.output, e)
    # the sidecar is JSON whatever --format says: it is read back as a decomposition
    sidecar = _report_text(cfg, decomposition_to_doc(truth, e.probs), {"ensemble_valid": valid}, "json")
    _write(cfg.output.removesuffix(".json") + ".truth.json", sidecar)


def run(cfg: argparse.Namespace) -> int:
    """Execute one command; raises package errors for main() to map."""
    report = _COMMANDS[cfg.command][2](cfg)
    if report is not None:
        _write(cfg.output, _report_text(cfg, *report, cfg.format))
    return 0


def _parse_blocks(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for part in text.split(","):
        part = part.strip().lower()
        try:
            n, k = part.split("x")
            out.append((int(n), int(k)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad block spec {part!r}; expected like 2x1") from None
    return tuple(out)


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_finite(x) for x in text.split(","))


def _positive(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# Every option once: config key -> (flags, add_argument keywords). The key
# is the parsed attribute and the report's config key; reports echo the
# options of their command in this order.
_OPTIONS = {
    "input": (("input",), {"help": "ensemble file"}),
    "output": (("-o", "--output"), {"default": None, "help": "output path (default stdout)"}),
    "tol": (("--tol",), {"type": _positive, "default": DEFAULT_TOL}),
    "seed": (("--seed",), {"type": int, "default": 0}),
    "format": (("--format",), {"choices": ("json", "text"), "default": "json"}),
    "trials": (("--trials",), {"type": _count, "default": 10_000}),
    "n_messages": (("-N", "--messages"), {"type": _count, "default": 8}),
    "delta": (("--delta",), {"type": _finite, "default": 0.25}),
    "deltas": (("--deltas",), {"type": _floats, "default": "-0.25,0,0.25", "help": "comma-separated slack values"}),
    "decomposition": (("--decomposition",), {"default": None, "help": "decomposition file (else recompute)"}),
    "channels": (("--channels",), {"type": _count, "default": 20}),
    "env_dim": (("--env-dim",), {"type": _count, "default": 2}),
    "blocks": (("--blocks",), {"type": _parse_blocks, "required": True, "help": "block shapes, e.g. 2x1,1x2"}),
    "num_states": (("--num-states",), {"type": int, "default": 3}),
}
_COMMON = ("input", "output", "tol", "seed", "format")
_BLOCK = _COMMON + ("trials", "n_messages")
# command -> (help, its options, its handler)
_COMMANDS = {
    "decompose": ("canonical block decomposition", _COMMON, _decompose),
    "measures": ("information split and entanglement costs", _COMMON, _measures),
    "simulate-individual": ("per-message protocol with ebit ledger", _COMMON + ("trials",), _simulate_individual),
    "simulate-asymptotic": ("block compression protocol", _BLOCK + ("delta",), _simulate_asymptotic),
    "rate-sweep": ("block protocol over a list of rate slacks", _BLOCK + ("deltas",), _rate_sweep),
    "remove-redundancy": ("drop the shared redundant factors", _COMMON, _remove_redundancy),
    "verify": (
        "check a decomposition against its ensemble", _COMMON + ("decomposition", "channels", "env_dim"), _verify
    ),
    "gen": ("planted ensemble with ground-truth sidecar", _COMMON[1:] + ("blocks", "num_states"), _gen),
}


def _echo(cfg: argparse.Namespace) -> dict:
    """The report's config block: the command, then its options in `_OPTIONS` order."""
    shown = {"command": cfg.command}
    for key in _OPTIONS:
        # the output path is never echoed: it does not affect the computation
        # and would break byte-level comparison of otherwise identical runs
        if key != "output" and key in vars(cfg):
            shown[key] = getattr(cfg, key)
    if "blocks" in shown:
        shown["blocks"] = [f"{n}x{k}" for n, k in shown["blocks"]]
    return shown


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only plain decimals such as -1 or -0.5 for negative
        # numbers, so "--deltas -0.4,0.1" or "--delta -1e-3" would read as a
        # missing value. No flag here looks like a number, so every token that
        # starts "-digit" or "-.digit" is a value. Subparsers are built from
        # this class and read tokens the same way.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # argparse default exits 2; config errors are exit 4
        raise ValueError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: `parse_args` leaves it unchanged."""
    p = _Parser(prog="kidecomp", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for command, (text, keys, _) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        sp.set_defaults(input=None)  # gen reads no ensemble; its reports echo input null
        for key in keys:
            flags, kwargs = _OPTIONS[key]
            if flags[0].startswith("-"):
                kwargs = dict(kwargs, dest=key)
            sp.add_argument(*flags, **kwargs)
    return p


def main(argv=None) -> int:
    try:
        return run(_build_parser().parse_args(argv))
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
