"""Compare two `report_corpus.py` trees field by field.

    python3 tools/compare_corpus.py A B

Both trees must have been written into the same OUTDIR path (reports
echo their input paths). Every report, JSON or the `key = value` text
format, is flattened to `path -> value`. Numbers may differ: the script
prints how many files differ and the largest absolute difference of
each field class, with the file and field where it occurs, then the
largest difference of every field that moved. The classes are

- residual: `residuals.*` and `checks[*].residual`;
- gauge: block isometries, `rho_J`, `rho_J_avg`, the support frame and
  ensemble matrices (the plant and the reduced states of
  `remove-redundancy`), which a change of basis inside a block moves;
- invariant: every other number (`n`, `k`, `p`, `q`, `rho_K`, the
  information measures, the simulator results).

The exit status is 1 when the file sets, the exit codes or stderr in
`codes.txt`, or any non-numeric field (`ok`, check names, details,
paths) differ, or when a number is finite on one side only; it is 0
otherwise, whatever the numeric differences.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

GAUGE = frozenset({"isometry", "rho_J", "rho_J_avg", "frame", "matrix"})
_INDEX = re.compile(r"\[\d+\]")


def _flatten(value, path: str, out: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{path}[{i}]", out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[path] = float(value)
    else:
        out[path] = value


def _fields(text: str) -> dict:
    """`path -> value` of one report: floats for numbers, anything else as read."""
    out: dict = {}
    try:
        _flatten(json.loads(text), "", out)
        return out
    except json.JSONDecodeError:
        pass
    for i, line in enumerate(text.splitlines()):
        key, sep, value = line.partition(" = ")
        if not sep:
            out[f"line {i + 1}"] = line
            continue
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


def _codes(text: str) -> dict:
    """`codes.txt` as call name -> "exit N; stderr ...", compared verbatim."""
    return dict(line.split(": ", 1) for line in text.splitlines() if line)


def field_class(path: str) -> str:
    names = _INDEX.sub("", path).split(".")
    if names[0] == "residuals" or names[-1] == "residual":
        return "residual"
    if GAUGE.intersection(names):
        return "gauge"
    return "invariant"


def compare(a: Path, b: Path) -> tuple[list[str], dict, set[str]]:
    """Structural differences, numeric differences {(class, command, field): (diff, where)}, and differing files."""
    problems: list[str] = []
    moved: dict = {}
    differing: set[str] = set()
    files_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    problems += [f"only in {a}: {name}" for name in sorted(files_a - files_b)]
    problems += [f"only in {b}: {name}" for name in sorted(files_b - files_a)]
    for name in sorted(files_a & files_b):
        text_a = (a / name).read_text(encoding="utf-8")
        text_b = (b / name).read_text(encoding="utf-8")
        if text_a == text_b:
            continue
        differing.add(name)
        if name == "codes.txt":
            codes_a, codes_b = _codes(text_a), _codes(text_b)
            problems += [
                f"codes.txt {call}: {codes_a.get(call)!r} against {codes_b.get(call)!r}"
                for call in sorted(codes_a.keys() | codes_b.keys())
                if codes_a.get(call) != codes_b.get(call)
            ]
            continue
        fields_a, fields_b = _fields(text_a), _fields(text_b)
        command = Path(name).name.split(".")[0]
        for path in sorted(fields_a.keys() | fields_b.keys()):
            va, vb = fields_a.get(path), fields_b.get(path)
            if va == vb:
                continue
            if not (isinstance(va, float) and isinstance(vb, float)) or not (math.isfinite(va) and math.isfinite(vb)):
                problems.append(f"{name} {path}: {va!r} against {vb!r}")
                continue
            key = (field_class(path), command, _INDEX.sub("[]", path))
            diff = abs(va - vb)
            if key not in moved or diff > moved[key][0]:
                moved[key] = (diff, f"{name} {path}")
    return problems, moved, differing


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (Path(p) for p in argv)
    problems, moved, differing = compare(a, b)
    total = len({p for p in a.rglob("*") if p.is_file()})
    print(f"{len(differing)} of {total} files differ")
    for cls in ("invariant", "gauge", "residual"):
        rows = {k: v for k, v in moved.items() if k[0] == cls}
        if not rows:
            print(f"{cls}: no difference")
            continue
        diff, where = max(rows.values())
        print(f"{cls}: largest |diff| {diff:.3g} at {where}")
    for (cls, command, field), (diff, _) in sorted(moved.items(), key=lambda kv: (kv[0][0], -kv[1][0])):
        print(f"  {cls:9s} {command:20s} {field:40s} {diff:.3g}")
    print(f"{len(problems)} non-numeric differences")
    for line in problems[:20]:
        print(f"  {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
