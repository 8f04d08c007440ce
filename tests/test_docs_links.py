"""README, EXPERIMENTS, DESIGN and docs/ keep their intra-repo links intact."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_repo_docs_links_resolve():
    """No broken intra-repo links in README, EXPERIMENTS, DESIGN or docs
    (same check CI runs)."""
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs_links.py"),
         *(str(REPO / name) for name in ("README.md", "EXPERIMENTS.md",
                                         "DESIGN.md", "docs"))],
        capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
