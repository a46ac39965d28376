"""The executable-docs runner: extraction, skip markers, failures."""

from pathlib import Path

from repro.tools import doccheck

SAMPLE = """\
# Title

Some prose.

```python
x = 1 + 1
assert x == 2
```

```bash
echo not python
```

<!-- doccheck: skip -->
```python
this is not even python
```

```python
raise RuntimeError("broken example")
```
"""


def test_extract_blocks_finds_python_fences_only():
    blocks = doccheck.extract_blocks(SAMPLE, "sample.md")
    assert len(blocks) == 3
    assert blocks[0].source == "x = 1 + 1\nassert x == 2\n"
    assert blocks[0].lineno == 6
    assert not blocks[0].skipped
    assert blocks[1].skipped
    assert not blocks[2].skipped
    assert blocks[2].location == "sample.md:20"


def test_skip_marker_only_covers_the_next_block():
    text = ("<!-- doccheck: skip -->\n```python\na\n```\n\n"
            "```python\nb = 1\n```\n")
    first, second = doccheck.extract_blocks(text, "x.md")
    assert first.skipped and not second.skipped


def test_run_block_success_and_failure(tmp_path):
    ok, skip, bad = doccheck.extract_blocks(SAMPLE, "sample.md")
    assert doccheck.run_block(ok, str(tmp_path)) is None
    error = doccheck.run_block(bad, str(tmp_path))
    assert error is not None
    assert "RuntimeError: broken example" in error
    assert "sample.md:20" in error


def test_run_block_restores_cwd(tmp_path):
    import os
    before = os.getcwd()
    block = doccheck.CodeBlock(path="x.md", lineno=1,
                               source="open('scratch.txt', 'w')"
                                      ".write('hi')\n")
    assert doccheck.run_block(block, str(tmp_path)) is None
    assert os.getcwd() == before
    # the example wrote into the sandbox dir, not the repo
    assert (tmp_path / "scratch.txt").exists()


def test_check_paths_reports_failures(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(SAMPLE)
    failures = doccheck.check_paths([doc])
    assert len(failures) == 1
    assert "broken example" in failures[0]


def test_check_paths_passes_clean_file(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("```python\nvalue = 40 + 2\n```\n")
    assert doccheck.check_paths([doc]) == []


def test_unparsable_block_is_reported_and_later_blocks_still_run(
        tmp_path):
    """A block that does not parse is one ``file:line failed`` entry,
    not a crash, and the blocks after it still run."""
    marker = tmp_path / "ran.txt"
    doc = tmp_path / "doc.md"
    doc.write_text("```python\n...run the attack...\n```\n\n"
                   "```python\n"
                   f"open({str(marker)!r}, 'w').write('ok')\n"
                   "```\n")
    failures = doccheck.check_paths([doc])
    assert len(failures) == 1
    assert failures[0].startswith(f"{doc}:2 failed:")
    assert "SyntaxError" in failures[0]
    assert marker.read_text() == "ok"


def test_default_docs_contain_runnable_blocks():
    """Every default doc (what CI executes) must keep at least one
    runnable Python block — extraction only, no execution."""
    root = doccheck._ROOT
    for name in doccheck.DEFAULT_DOCS:
        blocks = doccheck.extract_file(Path(root / name))
        runnable = [b for b in blocks if not b.skipped]
        assert runnable, f"{name} has no runnable python blocks"
