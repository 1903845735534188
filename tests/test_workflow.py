"""Every test node the CI workflow names by hand exists.

The long-profile step lists tests as tests/<file>.py::<name>.  pytest
given a node ID that names nothing reports an error, not a failure of
this suite, so a renamed or deleted test would drop out of that step
unnoticed until the workflow runs.  Each such ID must name a test
function defined at the top level of its file.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
NODE = re.compile(r"(tests/[\w/]+\.py)::(\w+)")


def _stale(text: str, root: Path) -> list:
    """The node IDs in text whose file defines no top-level function of
    that name, or does not exist."""
    stale, defined = [], {}
    for path, name in NODE.findall(text):
        if path not in defined:
            source = root / path
            defined[path] = {
                node.name for node in ast.parse(source.read_text()).body
                if isinstance(node, ast.FunctionDef)} \
                if source.is_file() else set()
        if name not in defined[path]:
            stale.append(f"{path}::{name}")
    return stale


def test_workflow_names_only_defined_tests():
    text = WORKFLOW.read_text()
    assert NODE.search(text), "the workflow names no test node"
    assert _stale(text, ROOT) == []


def test_check_flags_a_renamed_test_and_a_missing_file(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text(
        "def test_kept():\n    pass\n\n\nclass C:\n"
        "    def test_method(self):\n        pass\n")
    text = ("tests/test_a.py::test_kept tests/test_a.py::test_gone "
            "tests/test_a.py::test_method tests/test_b.py::test_kept")
    assert _stale(text, tmp_path) == [
        "tests/test_a.py::test_gone", "tests/test_a.py::test_method",
        "tests/test_b.py::test_kept"]
