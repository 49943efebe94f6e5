"""Docs stay honest: links resolve, public surfaces are documented.

The documentation pass (DESIGN.md architecture map, EXPERIMENTS.md
claims table, README subsystem index) only helps if it cannot rot.
These tests pin the load-bearing parts: every relative markdown link
points at a real file, every claim in EXPERIMENTS.md names a bench
that exists, and every public entry point of `repro.faults` and
`repro.core` carries a docstring.
"""

import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.analysis
import repro.core
import repro.faults
import repro.obs
import repro.service
import repro.tracing
import repro.validation
from repro.core import policy
from repro.obs.events import TargetDecision

REPO = Path(__file__).resolve().parent.parent


def test_markdown_links_resolve():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_links.py")],
        capture_output=True, text=True)
    assert proc.returncode == 0, f"broken links:\n{proc.stderr}"


def test_readme_indexes_every_subsystem():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for package in ("repro.sim", "repro.core", "repro.validation",
                    "repro.obs", "repro.faults", "repro.service"):
        assert package in readme, \
            f"README subsystem index is missing {package}"


def test_experiments_claims_link_to_existing_benches():
    text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert "test_extension_interference.py" in text
    # Every bench file the doc mentions must exist on disk.
    for line in text.splitlines():
        for token in line.split("`"):
            if token.startswith("benchmarks/") and token.endswith(".py"):
                assert (REPO / token).exists(), f"missing bench: {token}"


def test_examples_are_documented_and_smoke_capable():
    examples = sorted((REPO / "examples").glob("*.py"))
    assert examples, "examples/ directory is empty"
    for example in examples:
        text = example.read_text(encoding="utf-8")
        assert text.startswith('"""'), \
            f"{example.name} is missing a module docstring"
    tour = (REPO / "examples" / "resilience_tour.py").read_text(
        encoding="utf-8")
    assert "--smoke" in tour


@pytest.mark.parametrize(
    "module",
    [repro.faults, repro.core, repro.obs, repro.tracing,
     repro.analysis, repro.validation, repro.service],
    ids=["repro.faults", "repro.core", "repro.obs", "repro.tracing",
         "repro.analysis", "repro.validation", "repro.service"])
def test_public_entry_points_have_docstrings(module):
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if hasattr(obj, "__origin__"):
            continue  # typing aliases (e.g. FaultSpec) can't hold docs
        if not (inspect.getdoc(obj) or "").strip():
            undocumented.append(name)
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if callable(member) or isinstance(member, property):
                    if not (inspect.getdoc(member) or "").strip():
                        undocumented.append(f"{name}.{attr}")
    assert not undocumented, \
        f"undocumented public entry points: {sorted(undocumented)}"


def test_every_module_has_a_docstring():
    missing = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        text = path.read_text(encoding="utf-8").lstrip()
        if text and not text.startswith(('"""', "'''", 'r"""')):
            missing.append(str(path.relative_to(REPO)))
    assert not missing, f"modules without a docstring: {missing}"


def test_decision_reasons_match_the_policy():
    # The record's docstring names every reason a decision can carry;
    # the API doc's reason table names every reason a service round
    # can emit. Both must track the policy's own tuples.
    doc = inspect.getdoc(TargetDecision) or ""
    paragraph = doc[doc.index("reason:"):doc.index("before / after:")]
    assert set(re.findall(r'"([a-z-]+)"', paragraph)) == \
        set(policy.REASONS)
    api = (REPO / "docs" / "api.md").read_text(encoding="utf-8")
    section = api[api.index("### Decision reasons"):]
    section = section[:section.index("\n#", 1)]
    table = re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.MULTILINE)
    assert sorted(table) == sorted(policy.ROUND_REASONS)
