"""The CLI's observable bytes, pinned: ``scripts/cli_digest.py`` against ``cli_digest.txt``.

The digest prints one line per invocation of a fixed list (every leaf of
the ``sldl`` command tree, its error paths and every ``--help`` screen):
the sha256 of stdout and of stderr, the exit code and the argv. A change
that keeps every report byte leaves the file as it is. A change meant to
move bytes regenerates the file with

    python scripts/cli_digest.py > tests/cli_digest.txt

and lists every moved line, with the reason it moved, in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cli_digest_matches_the_committed_lines():
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "cli_digest.py")],
                         capture_output=True, text=True, check=True, timeout=300)
    got = run.stdout.splitlines()
    want = (ROOT / "tests" / "cli_digest.txt").read_text(encoding="utf-8").splitlines()
    moved = [f"- {w}\n+ {g}" for w, g in zip(want, got) if w != g]
    assert not moved, "\n".join(moved)
    assert len(got) == len(want)
