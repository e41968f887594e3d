"""The error types: one per CLI exit code, all defined in maskquant.errors."""

import ast
import builtins
from pathlib import Path

import maskquant
from maskquant import container, errors


def _raisable(base: ast.expr) -> bool:
    name = ast.unparse(base).rsplit(".", 1)[-1]
    builtin = getattr(builtins, name, None)
    if isinstance(builtin, type) and issubclass(builtin, BaseException):
        return True
    return name.endswith(("Error", "Exception", "Warning"))


def test_the_only_exception_classes_are_the_three_in_errors():
    defined = set()
    for path in sorted(Path(maskquant.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(_raisable(b) for b in node.bases):
                defined.add((path.name, node.name))
    assert defined == {
        ("errors.py", "ConfigError"),
        ("errors.py", "ContainerError"),
        ("errors.py", "ShapeError"),
    }
    assert maskquant.ContainerError is container.ContainerError is errors.ContainerError
