"""Checks on the source text itself: a module or class body defines each name once, and CI runs tests only.

A second ``def``, ``class`` or assignment of a name silently replaces the
first, so code written against the first one runs against the second.  A
check written inline in the CI workflow runs only on a CI runner, where no
local ``pytest`` run sees it fail; so the workflow starts Python for pytest
alone, and every check lives in a test module.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
PYTHON = re.compile(r"\bpython[\d.]*\s+(-c\b|-(?=\s|$)|<<)")  # a -c program, or a program read from stdin


def defined_names(node: ast.stmt) -> list[str]:
    """The names a statement of a module or class body binds by ``def``, ``class`` or plain assignment; a
    property's setter or deleter redefines its getter on purpose and binds none."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        accessor = any(isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter") for d in node.decorator_list)
        return [] if accessor else [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def redefinitions(tree: ast.Module) -> list[str]:
    """``name (line, line)`` for each name that one module or class body defines twice."""
    found = []
    bodies = [("", tree.body)] + [(f"{node.name}.", node.body) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for prefix, body in bodies:
        lines: dict[str, list[int]] = {}
        for node in body:
            for name in defined_names(node):
                lines.setdefault(name, []).append(node.lineno)
        found += [f"{prefix}{name} {tuple(at)}" for name, at in lines.items() if len(at) > 1]
    return found


def test_the_check_finds_a_redefinition():
    source = "def f(): pass\nclass C:\n    g = 1\n    def g(self): pass\n    @property\n    def h(self): pass\n"
    source += "    @h.setter\n    def h(self, value): pass\nf: int = 2\n"
    assert redefinitions(ast.parse(source)) == ["f (1, 9)", "C.g (3, 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_each_name_is_defined_once(path):
    assert redefinitions(ast.parse(path.read_text(), str(path))) == []


def inline_programs(workflow: str) -> list[str]:
    """Each line of a workflow that starts Python on a program of its own, not on pytest."""
    return [
        line.strip()
        for line in workflow.splitlines()
        if (match := PYTHON.search(line)) and not (match[1] == "-c" and "pytest" in line)
    ]


def test_the_check_finds_inline_programs():
    workflow = """steps:
      - name: No scipy
        run: python -c "import pytest; pytest.main([])"
      - name: A heredoc
        run: |
          python - <<'EOF'
          print(1)
          EOF
"""
    assert inline_programs(workflow) == ["python - <<'EOF'"]


def test_the_workflow_starts_python_only_for_pytest():
    assert inline_programs(WORKFLOW.read_text()) == []
