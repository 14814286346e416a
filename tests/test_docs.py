"""Documentation health: internal links resolve, the quickstart runs.

The CI docs job runs exactly this file.  Two guarantees:

* every relative markdown link in ``README.md`` and ``docs/*.md``
  points at a file that exists in the repository (external ``http(s)``
  links and pure anchors are skipped; ``file.md#anchor`` checks the
  file part), so the docs index cannot rot silently as files move;
* the README's quickstart code block actually executes against the
  current API — the snippet is the first thing a new user copies.
"""

import re
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent

#: ``[text](target)`` pairs; targets with spaces/newlines are malformed
#: markdown and would fail the existence check below anyway.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.S)


def doc_files():
    files = [REPO / "README.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return files


@pytest.mark.parametrize("path", doc_files(), ids=lambda p: p.name)
def test_internal_links_resolve(path):
    text = path.read_text()
    targets = LINK.findall(text)
    assert targets, f"{path.name} has no links at all (regex broken?)"
    for target in targets:
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        file_part = target.split("#", 1)[0]
        resolved = (path.parent / file_part).resolve()
        assert resolved.exists(), (
            f"{path.relative_to(REPO)} links to missing file {target!r}"
        )


def test_readme_quickstart_snippet_runs(capsys):
    text = (REPO / "README.md").read_text()
    blocks = PYTHON_BLOCK.findall(text)
    assert blocks, "README.md lost its quickstart python block"
    exec(compile(blocks[0], "<README quickstart>", "exec"), {})
    out = capsys.readouterr().out
    assert "95% CI" in out


def test_docs_mention_current_toggles():
    """The cheatsheet names must match the real API (guards renames)."""
    import repro
    import repro.algebra

    readme = (REPO / "README.md").read_text()
    for name in ("set_columnar_enabled", "set_shard_count"):
        assert name in readme
    assert hasattr(repro, "set_shard_count")
    assert hasattr(repro.algebra, "set_columnar_enabled")


def test_every_benchmark_result_is_json():
    """CI artifacts are uniform: no text-only result files.

    Human-readable ``.txt`` tables may sit next to a ``.json``, but
    every archived result must have the machine-readable form.
    """
    results = REPO / "benchmarks" / "results"
    txt = {p.stem for p in results.glob("*.txt")}
    json_names = {p.stem for p in results.glob("*.json")}
    assert txt <= json_names, (
        f"text-only benchmark results without JSON: {sorted(txt - json_names)}"
    )
