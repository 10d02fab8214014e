#!/usr/bin/env python
"""Fail on broken relative links in README.md and docs/ (stdlib only).

Scans every Markdown file for inline links and images
(``[text](target)`` / ``![alt](target)``) and reference definitions
(``[label]: target``).  External targets (``http(s)://``, ``mailto:``)
are skipped; everything else is resolved relative to the containing file
and must exist inside the repository.  A ``#fragment`` on a Markdown
target — another file's (``solver.md#backends``) or the page's own
(``#running-a-fleet``) — must name one of that file's headings by its
GitHub anchor slug.

Run:  python tools/check_docs_links.py
Exit: 0 when every link resolves, 1 otherwise (each break on stderr).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Inline links/images.  [text](target "title") — target ends at the
#: first whitespace or closing paren; nested parens are not used in
#: this repo's docs.
INLINE = re.compile(r"!?\[[^\]]*\]\(\s*<?([^)<>\s]+)>?(?:\s+\"[^\"]*\")?\s*\)")
#: Reference-style definitions: [label]: target
REFERENCE = re.compile(r"^\s*\[[^\]]+\]:\s+<?(\S+?)>?\s*$", re.MULTILINE)
#: Fenced code blocks — links inside them are examples, not links.
FENCE = re.compile(r"```.*?```", re.DOTALL)

#: ATX headings; an optional closing run of ``#`` is not part of the text.
HEADING = re.compile(r"^#{1,6}[ \t]+(.*?)(?:[ \t]+#+)?[ \t]*$", re.MULTILINE)
#: Inline links/images inside a heading render as their text.
LINK_TEXT = re.compile(r"!?\[([^\]]*)\]\([^)]*\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def doc_files() -> list[Path]:
    files = [REPO / "README.md"]
    files.extend(sorted((REPO / "docs").rglob("*.md")))
    return [f for f in files if f.is_file()]


def targets_in(text: str) -> list[str]:
    text = FENCE.sub("", text)
    found = INLINE.findall(text)
    found.extend(REFERENCE.findall(text))
    return found


def slug(heading: str) -> str:
    """GitHub's anchor for a heading: link text kept, HTML tags dropped,
    lowercased, punctuation other than ``-``/``_`` removed, spaces to
    hyphens."""
    text = re.sub(r"<[^>]+>", "", LINK_TEXT.sub(r"\1", heading))
    return re.sub(r"[^\w\- ]", "", text.strip().lower()).replace(" ", "-")


def anchors(path: Path) -> set[str]:
    """The anchor of every heading in ``path``; a repeated slug gets
    ``-1``, ``-2``, ... as on GitHub."""
    counts: dict[str, int] = {}
    found = set()
    text = FENCE.sub("", path.read_text(encoding="utf-8"))
    for heading in HEADING.findall(text):
        base = slug(heading)
        found.add(f"{base}-{counts[base]}" if base in counts else base)
        counts[base] = counts.get(base, 0) + 1
    return found


def check_file(path: Path, root: Path = REPO) -> list[str]:
    errors = []
    where = path.relative_to(root)
    for target in targets_in(path.read_text(encoding="utf-8")):
        if target.startswith(SKIP_PREFIXES):
            continue
        file_part, _, fragment = target.partition("#")
        resolved = (path.parent / file_part).resolve() if file_part else path
        try:
            resolved.relative_to(root)
        except ValueError:
            errors.append(f"{where}: link escapes the repository: {target}")
            continue
        if not resolved.exists():
            errors.append(
                f"{where}: broken link: {target} "
                f"(resolved to {resolved.relative_to(root)})"
            )
        elif (
            fragment
            and resolved.suffix == ".md"
            and fragment not in anchors(resolved)
        ):
            errors.append(f"{where}: broken anchor: {target}")
    return errors


def main() -> int:
    files = doc_files()
    errors = [error for path in files for error in check_file(path)]
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {len(files)} file(s): "
          f"{'OK' if not errors else f'{len(errors)} broken link(s)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
