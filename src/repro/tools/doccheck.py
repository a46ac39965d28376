"""Execute the Python code blocks in the docs — docs that drift fail.

Extracts every fenced ````` ```python ````` block from the given
markdown files (default: the README quickstart, ``docs/API.md``,
``docs/DEFENSES.md``, ``docs/ORACLE.md`` and ``docs/OBSERVABILITY.md``)
and executes each one in a fresh namespace, with the working
directory pointed at a throwaway temp dir so examples may write
journals and artifacts freely.  Any exception, a block that does not
even parse included, fails the run with the ``file:line`` of the
offending block, and the blocks after it still run: that is what keeps
the prose examples permanently in sync with the code.

A block can opt out by preceding its fence with an HTML comment
containing ``doccheck: skip`` (for fragments that are deliberately
not self-contained).  Non-Python fences (```bash`` etc.) are ignored.

Usage::

    python -m repro.tools.doccheck                # the default doc set
    python -m repro.tools.doccheck docs/FOO.md    # specific files
    python -m repro.tools.doccheck --list         # show blocks, don't run
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

_ROOT = Path(__file__).resolve().parents[3]

#: Files checked when none are given on the command line.
DEFAULT_DOCS = ("README.md", "docs/API.md", "docs/DEFENSES.md",
                "docs/ORACLE.md", "docs/OBSERVABILITY.md")

#: Comment text that exempts the following code block.
SKIP_MARKER = "doccheck: skip"


@dataclass
class CodeBlock:
    """One fenced Python block lifted out of a markdown file."""

    path: str
    #: 1-based line of the first code line (not the fence).
    lineno: int
    source: str
    skipped: bool = False

    @property
    def location(self) -> str:
        """``file:line`` anchor for error messages."""
        return f"{self.path}:{self.lineno}"


def extract_blocks(text: str, path: str) -> List[CodeBlock]:
    """All ```python fences in *text*, with skip markers honoured."""
    blocks: List[CodeBlock] = []
    lines = text.splitlines()
    in_block = False
    skip_next = False
    start = 0
    buffer: List[str] = []
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not in_block:
            if stripped.startswith("```python"):
                in_block = True
                start = number + 1
                buffer = []
            elif stripped:
                skip_next = SKIP_MARKER in stripped
            continue
        if stripped == "```":
            blocks.append(CodeBlock(path=path, lineno=start,
                                    source="\n".join(buffer) + "\n",
                                    skipped=skip_next))
            in_block = False
            skip_next = False
        else:
            buffer.append(line)
    return blocks


def extract_file(path: Path, root: Path = _ROOT) -> List[CodeBlock]:
    """Blocks of one markdown file, with repo-relative labels."""
    try:
        label = str(path.resolve().relative_to(root))
    except ValueError:
        label = str(path)
    return extract_blocks(path.read_text(), label)


def run_block(block: CodeBlock, cwd: str) -> Optional[str]:
    """Execute one block; returns the formatted error, or ``None``."""
    namespace = {"__name__": "__doccheck__"}
    previous = os.getcwd()
    try:
        os.chdir(cwd)
        code = compile(block.source, block.location, "exec")
        exec(code, namespace)  # noqa: S102 - executing our own docs
    except Exception:
        return traceback.format_exc()
    finally:
        os.chdir(previous)
    return None


def check_paths(paths: Sequence[Path]) -> List[str]:
    """Run every runnable block in *paths*; returns failure lines."""
    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="doccheck-") as tmp:
        for path in paths:
            for block in extract_file(path):
                if block.skipped:
                    print(f"  skip {block.location}")
                    continue
                print(f"  run  {block.location}")
                error = run_block(block, tmp)
                if error is not None:
                    failures.append(
                        f"{block.location} failed:\n{error}")
    return failures


def main(argv=None) -> int:
    """CLI entry point: run (or ``--list``) the blocks in *paths*."""
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="markdown files to check (default: "
                             + ", ".join(DEFAULT_DOCS) + ")")
    parser.add_argument("--list", action="store_true",
                        help="list the blocks without running them")
    args = parser.parse_args(argv)

    paths = args.paths or [_ROOT / name for name in DEFAULT_DOCS]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        for path in missing:
            print(f"no such file: {path}", file=sys.stderr)
        return 2

    if args.list:
        for path in paths:
            for block in extract_file(Path(path)):
                state = "skip" if block.skipped else "run"
                first = block.source.splitlines()[0] \
                    if block.source.strip() else "<empty>"
                print(f"{state:4} {block.location}  {first}")
        return 0

    failures = check_paths([Path(p) for p in paths])
    if failures:
        print(f"\n{len(failures)} doc block(s) failed:",
              file=sys.stderr)
        for failure in failures:
            print(failure, file=sys.stderr)
        return 1
    print("all doc blocks executed cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
