"""The package namespace: its API is its modules, not names re-exported from them, and
every private helper in them has a caller."""
import ast
import types
from pathlib import Path

import embfuse
from embfuse import cli


def test_every_public_attribute_is_a_submodule():
    public = {name: value for name, value in vars(embfuse).items() if not name.startswith("_")}
    assert public["cli"] is cli  # importing a module binds it on the package
    for name, value in public.items():
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"embfuse.{name}"


def test_every_private_definition_has_a_caller():
    """A private top-level name (one leading underscore) is referenced somewhere outside its own
    definition, so no deletion leaves a dead helper behind."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(embfuse.__file__).parent.glob("*.py"))}
    used = []  # (top-level statement, names it references)
    defined = []  # (module, top-level statement, private name it defines)
    for module, tree in trees.items():
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            used.append((stmt, names))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = [t.id for t in (stmt.targets if isinstance(stmt, ast.Assign)
                                          else [stmt.target]) if isinstance(t, ast.Name)]
            else:
                targets = []
            defined += [(module, stmt, name) for name in targets
                        if name.startswith("_") and not name.startswith("__")]
    assert defined
    unused = [f"{module}: {name}" for module, stmt, name in defined
              if not any(name in names for other, names in used if other is not stmt)]
    assert unused == []


def test_cli_writes_through_one_helper():
    """Every open() in cli.py outside ``_write`` reads bytes ("rb"), and ``_write`` holds one,
    so each output file gets its mode, encoding and line ends from one place."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    opens = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "open"]
    helpers = [stmt for stmt in tree.body
               if isinstance(stmt, ast.FunctionDef) and stmt.name == "_write"]
    in_helper = {id(node) for helper in helpers for node in ast.walk(helper)}
    assert len([node for node in opens if id(node) in in_helper]) == 1

    def mode(node):
        given = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        return given[0].value if given and isinstance(given[0], ast.Constant) else None

    stray = [node.lineno for node in opens if id(node) not in in_helper and mode(node) != "rb"]
    assert stray == []
