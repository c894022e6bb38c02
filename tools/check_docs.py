#!/usr/bin/env python3
"""Documentation checker: intra-repo links, anchors, code includes.

Run from anywhere::

    python tools/check_docs.py [files...]

With no arguments it checks ``README.md`` and every ``docs/*.md``.
Exit code 0 means clean; 1 means at least one problem, each printed as
``file:line: message``.  Stdlib only — runs in the docs CI job.

Checks
------

1. **Intra-repo links** — every ``[text](target)`` whose target is not
   an external URL must resolve to an existing file or directory,
   relative to the markdown file containing it.
2. **Anchors** — ``[text](#section)`` and ``[text](file.md#section)``
   must name a real heading in the target document (GitHub-style
   slugs: lowercased, punctuation dropped, spaces to hyphens).
3. **Code includes** — fenced blocks wrapped in include markers must
   match the named region of the source file *verbatim*, so the docs
   cannot drift from runnable code::

       <!-- include: examples/quickstart.py from="class X" to="def main" -->
       ```python
       class X: ...
       ```
       <!-- /include -->

   The region spans from the first line starting with ``from`` up to
   (excluding) the next line starting with ``to``, trailing blank
   lines stripped.
4. **Test citations** — every ``tests/<file>.py::<name>`` must name an
   existing file (relative to the repo root) that contains
   ``def <name>``.  The citation may break across lines after ``::``.
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``[text](target)`` — not preceded by ``!`` (images are still files,
#: but they resolve the same way; the negative lookbehind only guards
#: against matching the inner half of ``![alt](img)`` twice).
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")

INCLUDE_RE = re.compile(
    r'<!--\s*include:\s*(?P<path>\S+)'
    r'\s+from="(?P<from>[^"]+)"\s+to="(?P<to>[^"]+)"\s*-->\s*\n'
    r'```[^\n]*\n(?P<body>.*?)```',
    re.DOTALL)

#: ``tests/<file>.py::<name>``, possibly broken across lines after ``::``.
TEST_REF_RE = re.compile(r"(?<![\w/])(tests/[\w/]+\.py)::\s*(\w+)")

EXTERNAL = ("http://", "https://", "mailto:")


def slugify(heading: str) -> str:
    """GitHub-style heading slug (the anchor a ``#link`` points at)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(markdown: str) -> set[str]:
    slugs: set[str] = set()
    in_code = False
    for line in markdown.splitlines():
        if line.lstrip().startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        match = re.match(r"#{1,6}\s+(.*)", line)
        if match:
            slugs.add(slugify(match.group(1)))
    return slugs


def strip_code_blocks(markdown: str) -> str:
    """Blank out fenced code (links inside examples are not links)."""
    out, in_code = [], False
    for line in markdown.splitlines():
        if line.lstrip().startswith("```"):
            in_code = not in_code
            out.append("")
            continue
        out.append("" if in_code else line)
    return "\n".join(out)


def extract_region(source: str, start: str, stop: str) -> str | None:
    """Lines from the first one starting with ``start`` up to (not
    including) the next one starting with ``stop``; None if either
    marker is missing."""
    lines = source.splitlines(keepends=True)
    begin = next((i for i, line in enumerate(lines)
                  if line.startswith(start)), None)
    if begin is None:
        return None
    end = next((i for i in range(begin + 1, len(lines))
                if lines[i].startswith(stop)), None)
    if end is None:
        return None
    return "".join(lines[begin:end]).rstrip("\n") + "\n"


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def check_links(md_path: pathlib.Path, text: str,
                problems: list[str]) -> None:
    own_slugs = heading_slugs(text)
    scannable = strip_code_blocks(text)
    for match in LINK_RE.finditer(scannable):
        target = match.group(1)
        line = line_of(scannable, match.start())
        if target.startswith(EXTERNAL):
            continue
        path_part, _, anchor = target.partition("#")
        if path_part:
            resolved = (md_path.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(f"{md_path}:{line}: dangling link "
                                f"target {target!r}")
                continue
            if anchor:
                if resolved.suffix != ".md":
                    problems.append(f"{md_path}:{line}: anchor on "
                                    f"non-markdown target {target!r}")
                    continue
                slugs = heading_slugs(resolved.read_text())
                if anchor not in slugs:
                    problems.append(f"{md_path}:{line}: dangling anchor "
                                    f"{target!r}")
        elif anchor and anchor not in own_slugs:
            problems.append(f"{md_path}:{line}: dangling anchor "
                            f"#{anchor}")


def check_includes(md_path: pathlib.Path, text: str,
                   problems: list[str]) -> None:
    for match in INCLUDE_RE.finditer(text):
        line = line_of(text, match.start())
        source_path = (md_path.parent / match.group("path")).resolve()
        if not source_path.exists():
            problems.append(f"{md_path}:{line}: include source "
                            f"{match.group('path')!r} missing")
            continue
        region = extract_region(source_path.read_text(),
                                match.group("from"), match.group("to"))
        if region is None:
            problems.append(
                f"{md_path}:{line}: include markers "
                f'from="{match.group("from")}" to="{match.group("to")}" '
                f"not found in {match.group('path')}")
            continue
        if match.group("body") != region:
            problems.append(
                f"{md_path}:{line}: include drifted from "
                f"{match.group('path')} — update the fenced block to "
                f"the current source")


def check_test_refs(md_path: pathlib.Path, text: str, problems: list[str],
                    root: pathlib.Path = ROOT) -> None:
    for match in TEST_REF_RE.finditer(text):
        line = line_of(text, match.start())
        path, name = match.groups()
        test_file = root / path
        if not test_file.is_file():
            problems.append(f"{md_path}:{line}: cited test file {path!r} "
                            f"missing")
        elif not re.search(rf"\bdef {name}\b", test_file.read_text()):
            problems.append(f"{md_path}:{line}: cited test "
                            f"{path}::{name} not defined")


def check_file(md_path: pathlib.Path, problems: list[str]) -> None:
    text = md_path.read_text()
    check_links(md_path, text, problems)
    check_includes(md_path, text, problems)
    check_test_refs(md_path, text, problems)


def default_files() -> list[pathlib.Path]:
    files = [ROOT / "README.md"]
    files += sorted((ROOT / "docs").glob("*.md"))
    return [f for f in files if f.exists()]


def main(argv: list[str]) -> int:
    files = ([pathlib.Path(a).resolve() for a in argv]
             if argv else default_files())
    problems: list[str] = []
    for md_path in files:
        check_file(md_path, problems)
    for problem in problems:
        print(problem)
    print(f"checked {len(files)} file(s): "
          f"{'FAIL' if problems else 'ok'} ({len(problems)} problem(s))")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
