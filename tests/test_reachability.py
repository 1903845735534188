"""Every public name in src/osnmasim is reached by the program itself.

A public module-level function or class, or a public method or property
of a public class, must be referenced somewhere in src/osnmasim outside
its own definition, or stand in ALLOWLIST with the reason it stays.  A
reference is by name alone: a bare name or an attribute for a module-level
definition, an attribute for a class member.  So a same-named reference to
something else counts too, and the check errs toward passing.  It runs in
one direction only: an allowlisted name that the program comes to use, or
that the benchmark's probes stop importing, fails nothing here.

An error class whose body is only its docstring adds nothing but its
type, so some except clause in src/osnmasim must name it; otherwise its
raises belong to the class it derives from.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "osnmasim"

_PROBE = "imported by perfbench/probes.py, which times it"
ALLOWLIST = {
    "pages.decode_page": _PROBE,
    "pages.encode_page": _PROBE,
    "pages.assemble_round": _PROBE,
    "pages.Subframe.pages": _PROBE,
    "scenario.live_events": _PROBE,
    "mack.compute_tag": _PROBE,
    "mack.build_auth_message": _PROBE,
    "tesla.TeslaChain.key_at": _PROBE,
    "navdata.subframe_nav_data": _PROBE,
    "pages.reseal_raw": "acceptance criterion 2 reseals the captured "
                        "pages through it to reproduce the forged ones",
}


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _definitions(trees) -> dict:
    """Each public definition's dotted name, its node, and the reference
    kinds that reach it."""
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            defs[f"{module}.{node.name}"] = node, (ast.Name, ast.Attribute)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        defs[f"{module}.{node.name}.{item.name}"] = \
                            item, (ast.Attribute,)
    return defs


def _name(ref) -> str:
    return ref.id if isinstance(ref, ast.Name) else ref.attr


def _unreached(trees) -> list:
    refs = [node for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unreached = []
    for qualname, (node, kinds) in _definitions(trees).items():
        inside = {id(n) for n in ast.walk(node)}
        if not any(isinstance(ref, kinds) and _name(ref) == node.name
                   and id(ref) not in inside for ref in refs):
            unreached.append(qualname)
    return unreached


def _uncaught_bare_errors(trees) -> list:
    """The classes whose body is one docstring and that no except clause
    names, by dotted name."""
    caught = {_name(ref) for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and node.type
              for ref in ast.walk(node.type)
              if isinstance(ref, (ast.Name, ast.Attribute))}
    return [f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.bases
            and len(node.body) == 1 and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and node.name not in caught]


def test_every_public_name_is_reached_or_allowlisted():
    unreached = [name for name in _unreached(_trees())
                 if name not in ALLOWLIST]
    assert unreached == [], "public but reached only from outside src: " \
        f"{unreached}; use it, make it private, move it to tests/ or " \
        "allowlist it with its reason"


def test_allowlist_names_public_definitions():
    """An entry outlives no deleted name."""
    defs = _definitions(_trees())
    assert [name for name in ALLOWLIST if name not in defs] == []


def test_check_flags_a_test_only_helper():
    """A public function that nothing in the program calls is flagged, and
    a call from anywhere but its own body clears it."""
    helper = ast.parse("def helper(x):\n    return helper(x - 1)\n")
    assert _unreached({"m": helper}) == ["m.helper"]
    caller = ast.parse("def run():\n    return m.helper(3)\n")
    assert _unreached({"m": helper, "c": caller}) == ["c.run"]
    method = ast.parse("class C:\n    @property\n    def view(self):\n"
                       "        return 1\n\nview = C()\n")
    assert _unreached({"m": method}) == ["m.C.view"]
    assert _unreached({"m": method, "c": ast.parse("m.view.view")}) == []


def test_every_bare_error_class_is_caught_by_name():
    assert _uncaught_bare_errors(_trees()) == [], "an error class that no " \
        "except clause names: raise the class it derives from instead"


def test_check_flags_an_error_class_nothing_catches():
    """A docstring-only subclass is flagged until an except clause names
    it, bare or dotted, alone or in a tuple; a class with a body of its
    own is not."""
    defs = ast.parse('class BadError(ValueError):\n    """Doc."""\n\n\n'
                     'class RowError(ValueError):\n    """Doc."""\n'
                     '    row = None\n')
    assert _uncaught_bare_errors({"m": defs}) == ["m.BadError"]
    for clause in ("BadError", "m.BadError", "(KeyError, m.BadError)"):
        catch = ast.parse(f"try:\n    pass\nexcept {clause}:\n    pass\n")
        assert _uncaught_bare_errors({"m": defs, "c": catch}) == []
