#!/usr/bin/env python3
"""Fail on broken intra-repo links in markdown files.

Scans ``[text](target)`` links in the given markdown files (default:
README.md and docs/*.md), resolves each relative target against the
linking file's directory, and exits nonzero listing every target that
does not exist.  External links (http/https/mailto) and pure in-page
anchors (``#section``) are skipped; a ``path#anchor`` target is checked
for the *path* only - anchor rot inside an existing file is out of
scope.  Inline code spans and fenced code blocks are ignored so
documented syntax examples can't false-positive.

Usage::

    python tools/check_docs_links.py [files-or-dirs...]

Run by CI on every push (see .github/workflows/ci.yml) and by
``tests/test_docs_links.py::test_repo_docs_links_resolve`` so doc rot
fails tier-1 locally too.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE = re.compile(r"^(```|~~~)")
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def markdown_targets(path: Path) -> list[tuple[int, str]]:
    """(line number, link target) pairs outside code fences/spans."""
    targets = []
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        # Drop inline code spans so `[x](y)` examples are not links.
        stripped = re.sub(r"`[^`]*`", "", line)
        for match in LINK.finditer(stripped):
            targets.append((lineno, match.group(1)))
    return targets


def broken_links(path: Path) -> list[tuple[int, str]]:
    """Intra-repo link targets of ``path`` that do not resolve."""
    broken = []
    for lineno, target in markdown_targets(path):
        if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            broken.append((lineno, target))
    return broken


def collect_files(args: list[str]) -> list[Path]:
    if not args:
        args = ["README.md", "docs"]
    files: list[Path] = []
    for arg in args:
        p = Path(arg)
        if p.is_dir():
            files.extend(sorted(p.glob("**/*.md")))
        elif p.exists():
            files.append(p)
        else:
            print(f"check_docs_links: no such file: {arg}", file=sys.stderr)
            sys.exit(2)
    return files


def main(argv: list[str]) -> int:
    failures = 0
    for path in collect_files(argv):
        for lineno, target in broken_links(path):
            print(f"{path}:{lineno}: broken link -> {target}")
            failures += 1
    if failures:
        print(f"{failures} broken intra-repo link(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
