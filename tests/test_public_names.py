"""Every public top-level function and class of kgadapters has a caller in the
program (src/kgadapters) or in the benchmark (perfbench/), not only in tests,
and every public method, property and dataclass field of its classes is read
there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = sorted((ROOT / "src" / "kgadapters").glob("*.py"))
CALLERS = PROGRAM + sorted((ROOT / "perfbench").glob("*.py"))

# public name -> why it stays although only tests reach it
ALLOWED = {
    "gradcheck": "verification tool: the float64 finite-difference check of every "
                 "backward formula, which the gradient tests run",
    "run_transfer_benchmark": "pinned by ABLATION_SHA256 in test_golden.py and not "
                              "yet exposed as a CLI command",
}


def public_definitions() -> list[tuple[str, str]]:
    """(file name, name) of every public top-level function and class."""
    return [(path.name, node.name) for path in PROGRAM
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_members() -> list[tuple[str, str, str]]:
    """(file name, class, member) of every public method, property and
    annotated class attribute (a dataclass field) of a top-level class."""
    members = []
    for path in PROGRAM:
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_"):
                    members.append((path.name, cls.name, name))
    return members


def loaded_names(node_types=(ast.Name, ast.Attribute)) -> set[str]:
    """Every name read as one of `node_types` (a Name or an Attribute) in the
    program or the benchmark."""
    names = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, node_types) and isinstance(node.ctx, ast.Load):
                names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    used = loaded_names()
    unused = [f"{file}: {name}" for file, name in public_definitions()
              if name not in used and name not in ALLOWED]
    assert not unused, f"public names that only tests reach: {', '.join(unused)}"


def test_allow_list_holds_only_names_without_a_caller():
    used = loaded_names()
    defined = {name for _, name in public_definitions()}
    assert set(ALLOWED) <= defined - used


def test_every_public_member_is_read_outside_the_tests():
    """A member counts as read wherever an attribute of its name is loaded,
    so a dead member whose name another class's member uses goes unseen."""
    used = loaded_names(ast.Attribute)
    unread = [f"{file}: {cls}.{name}" for file, cls, name in public_members()
              if name not in used]
    assert not unread, f"public members that only tests read: {', '.join(unread)}"
