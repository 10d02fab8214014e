"""The docs link checker validates ``#fragment``s against heading slugs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_docs_links.py"


def _checker():
    spec = importlib.util.spec_from_file_location("check_docs_links", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_slug_matches_github_anchors():
    slug = _checker().slug
    assert slug("Running a fleet") == "running-a-fleet"
    assert slug("The `solver_spec` field (ILP)") == "the-solver_spec-field-ilp"
    assert slug("[Solver](solver.md) notes") == "solver-notes"


def test_good_and_broken_anchors(tmp_path):
    checker = _checker()
    root = tmp_path.resolve()
    (root / "solver.md").write_text(
        "# Solver\n\n## Backends\n\n```\n## Not a heading\n```\n\n## Backends\n"
    )
    page = root / "index.md"
    page.write_text(
        "# Index\n\n## Running a fleet\n\n"
        "[ok](solver.md#backends) [dup](solver.md#backends-1) "
        "[here](#running-a-fleet) [file](solver.md)\n"
        "[gone](solver.md#presolve) [fenced](solver.md#not-a-heading) "
        "[nowhere](#nowhere)\n"
    )
    errors = checker.check_file(page, root)
    assert errors == [
        "index.md: broken anchor: solver.md#presolve",
        "index.md: broken anchor: solver.md#not-a-heading",
        "index.md: broken anchor: #nowhere",
    ]
