"""Every public top-level function and class of kgadapters has a caller in the
program (src/kgadapters) or in the benchmark (perfbench/), not only in tests,
every public method, property and dataclass field of its classes is read
there, every defaulted parameter of its public top-level functions is
passed there, and every parameter of every function and lambda of the
program, and every local name its functions assign, is read in its body."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = sorted((ROOT / "src" / "kgadapters").glob("*.py"))
CALLERS = PROGRAM + sorted((ROOT / "perfbench").glob("*.py"))

# public name -> why it stays although only tests reach it
ALLOWED = {
    "gradcheck": "verification tool: the float64 finite-difference check of every "
                 "backward formula, which the gradient tests run",
}

# (function, defaulted parameter) -> why it stays although no call in the
# program or the benchmark passes it
DEFAULTS_ALLOWED = {
    ("gradcheck", "eps"): "verification tool: the gradient tests choose the "
                          "finite-difference step of each check",
    ("build_hook", "fusion_record"): "the hook's record of fusion attention weights per "
                                     "layer, kept for the planned report of them in "
                                     "the run directory (ROADMAP, observability)",
    ("main", "argv"): "the CLI entry point: the console script calls it bare, so "
                      "argparse reads sys.argv, and a caller in the same process "
                      "passes its own argument vector",
}

# (function, parameter) -> why it stays although the function never reads it
UNREAD_ALLOWED = {
    ("label_seq", "lang"): "the benchmark's oracle (perfbench/oracle.py) passes it; it "
                           "goes with the next change to the benchmark",
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


def defaulted_parameters() -> list[tuple[str, str, str, int | None]]:
    """(file name, function, parameter, position) of every parameter with a
    default of a public top-level function; keyword-only ones have no
    position."""
    found = []
    for path in PROGRAM:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            for i in range(len(positional) - len(args.defaults), len(positional)):
                found.append((path.name, node.name, positional[i].arg, i))
            found += [(path.name, node.name, a.arg, None)
                      for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in the program or the benchmark, by the called name."""
    calls: dict[str, list[ast.Call]] = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether the call passes the parameter, by keyword, by position or
    through a * or ** argument."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """A default that no call overrides is a constant, or an option only a
    test sets."""
    calls = calls_by_name()
    unpassed = [f"{file}: {fn}({name})" for file, fn, name, position in defaulted_parameters()
                if (fn, name) not in DEFAULTS_ALLOWED
                and not any(passes(c, name, position) for c in calls.get(fn, []))]
    assert not unpassed, f"defaulted parameters no call passes: {', '.join(unpassed)}"


def test_default_allow_list_holds_only_unpassed_parameters():
    calls = calls_by_name()
    positions = {(fn, name): position for _, fn, name, position in defaulted_parameters()}
    for key in DEFAULTS_ALLOWED:
        assert key in positions, key
        assert not any(passes(c, key[1], positions[key]) for c in calls.get(key[0], [])), key


def function_bodies():
    """(file name, node, function name, the Names its body holds, nested
    functions included) of every function and lambda of the program; a
    lambda's function name is "<lambda>"."""
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                body = [node.body] if isinstance(node, ast.Lambda) else node.body
                yield (path.name, node, getattr(node, "name", "<lambda>"),
                       [n for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)])


def unread_parameters() -> list[tuple[str, int, str, str]]:
    """(file name, line, function, parameter) of every parameter of a function
    or lambda of the program that its body never loads."""
    found = []
    for file, node, fn, names in function_bodies():
        loaded = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
        found += [(file, node.lineno, fn, x.arg) for x in params if x.arg not in loaded]
    return found


def test_every_parameter_is_read():
    """A parameter no body reads is an input that changes nothing."""
    unread = [f"{file}:{line}: {fn}({name})" for file, line, fn, name in unread_parameters()
              if (fn, name) not in UNREAD_ALLOWED]
    assert not unread, f"parameters their function never reads: {', '.join(unread)}"


def test_unread_allow_list_holds_only_unread_parameters():
    unread = {(fn, name) for _, _, fn, name in unread_parameters()}
    assert set(UNREAD_ALLOWED) <= unread


def unread_locals() -> list[tuple[str, int, str, str]]:
    """(file name, line, function, name) of every name a function or lambda
    of the program assigns, `_` aside, that its body never loads."""
    found = []
    for file, _, fn, names in function_bodies():
        loaded = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        found += [(file, n.lineno, fn, n.id) for n in names
                  if isinstance(n.ctx, ast.Store) and n.id not in loaded | {"_"}]
    return found


def test_every_assigned_local_is_read():
    """A local no line reads is a computation whose result changes nothing."""
    unread = [f"{file}:{line}: {fn}: {name}" for file, line, fn, name in unread_locals()]
    assert not unread, f"locals their function never reads: {', '.join(unread)}"
