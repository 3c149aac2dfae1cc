"""Run the corpus gate of a refactor against one git revision.

    python3 tools/corpus_gate.py REV

Extracts REV's `src/` into a temporary directory (`git archive REV src`),
then runs this tree's `tools/report_corpus.py` twice into the same OUTDIR
path: once with REV's `src/` on PYTHONPATH and once with this tree's,
moving the output aside after each run (reports echo their input paths,
so both runs must write to one path). It then prints
`tools/compare_corpus.py`'s report, whose first line is the number of
differing files, and exits with compare's status: 0 when only numbers
moved, 1 on any other difference. A byte-identical corpus prints
"0 of N files differ".
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def extract_src(rev: str, dest: Path) -> bool:
    """Extract REV's `src/` into the directory `dest` (`git archive REV src | tar -x`).

    On an unknown revision, print git's message to stderr and return False.
    """
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
        return False
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return True


def _report(src: Path, outdir: Path, dest: Path) -> None:
    """Write the corpus with `src` on PYTHONPATH into `outdir`, then move it to `dest`."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, str(TOOLS / "report_corpus.py"), str(outdir)], env=env, check=True)
    outdir.rename(dest)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="corpus_gate_") as tmp:
        tmp = Path(tmp)
        (tmp / "rev").mkdir()
        if not extract_src(argv[0], tmp / "rev"):
            return 2
        outdir = tmp / "corpus"
        _report(tmp / "rev" / "src", outdir, tmp / "a")
        _report(ROOT / "src", outdir, tmp / "b")
        compare = subprocess.run([sys.executable, str(TOOLS / "compare_corpus.py"), str(tmp / "a"), str(tmp / "b")])
        return compare.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
