"""Docs gate: the README/docs link graph must stay intact in tier-1 too.

CI runs ``tools/check_links.py`` as its own step; this suite makes the same
guarantee locally (and unit-tests the checker, so the gate itself cannot rot
into a silent no-op).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO_ROOT / "tools" / "check_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_links", module)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


class TestRepoDocs:
    def test_front_door_files_exist(self):
        assert (REPO_ROOT / "README.md").is_file()
        for page in ("architecture", "serving", "compute-core",
                     "storage-engine"):
            assert (REPO_ROOT / "docs" / f"{page}.md").is_file(), page

    def test_readme_and_docs_have_no_broken_links(self):
        problems = []
        for path in checker.collect_targets([]):
            problems.extend(checker.check_file(path))
        assert problems == []

    def test_docs_pages_cross_link_each_other(self):
        """The deep-dive pages and the overview must form one graph."""
        docs = REPO_ROOT / "docs"
        serving = (docs / "serving.md").read_text(encoding="utf-8")
        architecture = (docs / "architecture.md").read_text(encoding="utf-8")
        assert "architecture.md" in serving
        assert "storage-engine.md" in serving
        for page in ("compute-core.md", "storage-engine.md", "serving.md"):
            assert page in architecture, f"architecture.md must link {page}"
        for page in ("compute-core.md", "storage-engine.md"):
            text = (docs / page).read_text(encoding="utf-8")
            assert "serving.md" in text or "architecture.md" in text, (
                f"{page} must link into the new overview/serving docs"
            )

    def test_readme_links_every_docs_page(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for page in ("architecture", "serving", "compute-core",
                     "storage-engine"):
            assert f"docs/{page}.md" in readme, f"README must link docs/{page}.md"


class TestCheckerItself:
    def test_missing_target_is_reported(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [gone](missing.md)", encoding="utf-8")
        problems = checker.check_file(page)
        assert len(problems) == 1
        assert "missing.md" in problems[0]

    def test_bad_anchor_is_reported(self, tmp_path):
        target = tmp_path / "target.md"
        target.write_text("# Real Heading\n", encoding="utf-8")
        page = tmp_path / "page.md"
        page.write_text(
            "[ok](target.md#real-heading) [bad](target.md#not-there)",
            encoding="utf-8",
        )
        problems = checker.check_file(page)
        assert len(problems) == 1
        assert "not-there" in problems[0]

    def test_same_file_anchor_and_externals(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "# My Title\n[up](#my-title) [out](https://example.com/x) "
            "[broken](#nope)\n",
            encoding="utf-8",
        )
        problems = checker.check_file(page)
        assert len(problems) == 1
        assert "#nope" in problems[0]

    def test_links_inside_code_fences_are_ignored(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "```\n[not a link](nowhere.md)\n```\nreal text\n", encoding="utf-8"
        )
        assert checker.check_file(page) == []

    def test_slugify_matches_github_rules(self):
        assert checker.slugify("The async serving front-end") == "the-async-serving-front-end"
        assert checker.slugify("Request coalescing (`AsyncAnalysisService`)") == (
            "request-coalescing-asyncanalysisservice"
        )
        assert checker.slugify("Tests and benchmarks") == "tests-and-benchmarks"
