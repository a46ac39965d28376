"""The scheduler's contract in ``docs/ARCHITECTURE.md`` ("Scheduler and
fast-forward") names the test behind each rule and each probe answer
as ``tests/<path>.py::<name>``.  Every test it names must exist, as a
top-level function of that file, or the page cites a proof that is
gone."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HEADING = "## Scheduler and fast-forward\n"
REFERENCE = re.compile(r"tests/[\w/]+\.py::\w+")


def _section() -> str:
    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
    start = text.index(HEADING)
    end = text.find("\n## ", start + len(HEADING))
    return text[start:] if end < 0 else text[start:end]


def _exists(reference: str) -> bool:
    path, name = reference.split("::")
    source = ROOT / path
    if not source.is_file():
        return False
    tree = ast.parse(source.read_text(), filename=path)
    return any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name == name for node in tree.body)


def test_every_cited_test_exists():
    references = sorted(set(REFERENCE.findall(_section())))
    # Three rules and two tables of five rows, each citing a test.
    assert len(references) >= 13
    missing = [ref for ref in references if not _exists(ref)]
    assert not missing, "cited but missing: " + ", ".join(missing)
