"""Docs health: the checker passes on the repo, catches real rot in
isolation, and every public export carries a docstring."""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_docs  # noqa: E402


# -- the repo's own docs are clean ------------------------------------------------


def test_repo_docs_pass_the_checker(capsys):
    assert check_docs.main([]) == 0
    out = capsys.readouterr().out
    assert "ok (0 problem(s))" in out


def test_readme_and_docs_exist():
    assert (ROOT / "README.md").exists()
    assert (ROOT / "docs" / "architecture.md").exists()
    assert (ROOT / "docs" / "determinism.md").exists()


def test_readme_embeds_checked_quickstart_includes():
    text = (ROOT / "README.md").read_text()
    includes = list(check_docs.INCLUDE_RE.finditer(text))
    assert len(includes) >= 2
    assert all(m.group("path") == "examples/quickstart.py"
               for m in includes)


# -- the checker catches rot (unit tests on tmp trees) ----------------------------


def _run(tmp_path, name="doc.md"):
    problems = []
    check_docs.check_file(tmp_path / name, problems)
    return problems


def test_dangling_file_link_is_reported(tmp_path):
    (tmp_path / "doc.md").write_text("see [x](missing.md)\n")
    problems = _run(tmp_path)
    assert len(problems) == 1 and "dangling link" in problems[0]


def test_valid_relative_link_passes(tmp_path):
    (tmp_path / "other.md").write_text("# Hello World\n")
    (tmp_path / "doc.md").write_text(
        "[a](other.md) [b](other.md#hello-world) also [c](.)\n")
    assert _run(tmp_path) == []


def test_dangling_anchor_is_reported(tmp_path):
    (tmp_path / "other.md").write_text("# Hello\n")
    (tmp_path / "doc.md").write_text(
        "# Top\n[ok](#top) [bad](#nope) [worse](other.md#nope)\n")
    problems = _run(tmp_path)
    assert len(problems) == 2
    assert all("dangling anchor" in p for p in problems)


def test_heading_slugs_ignore_code_and_punctuation(tmp_path):
    (tmp_path / "doc.md").write_text(
        "# The `epoch` barrier: lifecycle!\n"
        "```\n# not a heading\n```\n"
        "[ok](#the-epoch-barrier-lifecycle)\n")
    assert _run(tmp_path) == []


def test_links_inside_code_blocks_are_ignored(tmp_path):
    (tmp_path / "doc.md").write_text(
        "```\n[not a link](nowhere.md)\n```\n")
    assert _run(tmp_path) == []


def test_external_links_are_skipped(tmp_path):
    (tmp_path / "doc.md").write_text(
        "[a](https://example.com/x) [b](http://e.com#frag)\n")
    assert _run(tmp_path) == []


def test_include_in_sync_passes(tmp_path):
    (tmp_path / "src.py").write_text(
        "import os\n\ndef alpha():\n    return 1\n\n\ndef omega():\n"
        "    return 2\n")
    (tmp_path / "doc.md").write_text(
        '<!-- include: src.py from="def alpha" to="def omega" -->\n'
        "```python\ndef alpha():\n    return 1\n```\n"
        "<!-- /include -->\n")
    assert _run(tmp_path) == []


def test_drifted_include_is_reported(tmp_path):
    (tmp_path / "src.py").write_text(
        "def alpha():\n    return 999\n\ndef omega():\n    pass\n")
    (tmp_path / "doc.md").write_text(
        '<!-- include: src.py from="def alpha" to="def omega" -->\n'
        "```python\ndef alpha():\n    return 1\n```\n"
        "<!-- /include -->\n")
    problems = _run(tmp_path)
    assert len(problems) == 1 and "drifted" in problems[0]


def test_missing_include_marker_is_reported(tmp_path):
    (tmp_path / "src.py").write_text("def alpha():\n    pass\n")
    (tmp_path / "doc.md").write_text(
        '<!-- include: src.py from="def alpha" to="def omega" -->\n'
        "```python\nx\n```\n<!-- /include -->\n")
    problems = _run(tmp_path)
    assert len(problems) == 1 and "not found" in problems[0]


def test_missing_include_source_is_reported(tmp_path):
    (tmp_path / "doc.md").write_text(
        '<!-- include: gone.py from="a" to="b" -->\n```\nx\n```\n'
        "<!-- /include -->\n")
    problems = _run(tmp_path)
    assert len(problems) == 1 and "missing" in problems[0]


def test_test_citations_must_name_a_defined_test(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text(
        "def test_here():\n    pass\n")
    text = ("`tests/test_x.py::test_here` and `tests/test_x.py::\n"
            "  test_here` are fine; `tests/test_x.py::test_gone` and\n"
            "`tests/test_y.py::\n  test_here` are not.\n")
    problems = []
    check_docs.check_test_refs(tmp_path / "doc.md", text, problems,
                               root=tmp_path)
    assert len(problems) == 2
    assert ":2:" in problems[0] and "test_gone not defined" in problems[0]
    assert ":3:" in problems[1] and "test_y.py" in problems[1]


def test_checker_cli_fails_on_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.md"
    bad.write_text("[x](missing.md)\n")
    assert check_docs.main([str(bad)]) == 1
    assert "dangling link" in capsys.readouterr().out


# -- every public export documents itself -----------------------------------------


def test_every_public_export_has_a_docstring():
    import repro

    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        doc = getattr(obj, "__doc__", None)
        if not doc or not doc.strip():
            undocumented.append(name)
    assert not undocumented, (
        f"exports missing docstrings: {undocumented}")


@pytest.mark.parametrize("name", ["World", "ShardedWorld",
                                  "ProcShardedWorld", "WorldJournal",
                                  "resume_world", "serialization_stats"])
def test_core_docstrings_state_their_contract(name):
    import repro

    doc = getattr(repro, name).__doc__
    assert doc is not None
    # The docstring pass gave each of these an explicit contract
    # section, not just a one-liner.
    assert "Args:" in doc or "Returns" in doc, name
