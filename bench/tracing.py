"""Spans around the calls into each kidecomp module, recorded from outside the package.

`Tracer.installed()` rebinds every traced public function at each
module attribute that holds it (the defining module and every module
that imported it by name), so the library's own code calls the traced
version and nothing under `src/` changes. Bindings are restored on exit.

A span records its name, start and end (`perf_counter_ns`), the index
of its parent span (-1 at top level) and the operation id the harness
set when the call began. Spans stay in memory until `write()`.
`tracemalloc` runs only inside the spans named in `MEMORY_TRACED`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# layer (module) -> public functions whose calls are recorded
TRACED = {
    "ensemble": ("read_ensemble", "require_valid", "support_restrict"),
    "linalg": ("nullspace", "orthonormalize_hs"),
    "algebra": ("generate_algebra", "commutant", "center_basis", "irrep_decompose"),
    "decompose": (
        "ki_decompose",
        "mergeable",
        "verify",
        "decomposition_to_doc",
        "read_decomposition",
        "remove_redundancy",
    ),
    "measures": ("info_measures", "fidelity"),
    "oracles": ("planted_ensemble", "random_form2_channel"),
    "protocols": ("simulate_individual", "simulate_asymptotic", "rate_sweep"),
    "cli": ("main",),
}
MEMORY_TRACED = frozenset({"algebra.commutant", "algebra.center_basis"})


def _nullspace_counts(args, kwargs, result):
    rows = int(args[0].shape[0])
    # full_matrices=True materializes a rows x rows complex128 U factor
    return {"rows": rows, "u_bytes": 16 * rows * rows}


# computed counts attached to a span from its arguments and result
COUNTS = {
    "linalg.nullspace": _nullspace_counts,
    "algebra.generate_algebra": lambda a, k, r: {"dim": r.size},
    "algebra.commutant": lambda a, k, r: {"dim": r.size},
    "algebra.center_basis": lambda a, k, r: {"dim": len(r)},
    "decompose.mergeable": lambda a, k, r: {"hit": r is not None},
    "protocols.simulate_individual": lambda a, k, r: {"trials": r[1].trials},
    "cli.main": lambda a, k, r: {"command": (a[0] if a else k["argv"])[0]},
}


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    op: str
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        counts = COUNTS.get(name)
        memory = name in MEMORY_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0, 0, parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            mem = memory and not tracemalloc.is_tracing()
            if mem:
                tracemalloc.start()
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                if mem:
                    span.info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if counts is not None:
                span.info.update(counts(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind the traced functions in every loaded kidecomp module."""
        import kidecomp

        originals = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"kidecomp.{layer}"]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        modules = [kidecomp] + [m for k, m in sys.modules.items() if k.startswith("kidecomp.")]
        rebound = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])
                    rebound.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in rebound:
                setattr(module, attr, value)

    def self_ns(self) -> list[int]:
        """Per-span self time: duration minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
