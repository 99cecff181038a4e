"""Every error the package raises itself is a SpecbandError with an exit code."""

import ast
from pathlib import Path

import specband

_BUILTIN_ERRORS = {"ValueError", "KeyError", "IndexError"}


def _builtin_raises(path: Path):
    """(file:line) of each ``raise ValueError/KeyError/IndexError`` in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in _BUILTIN_ERRORS:
                yield f"{path.name}:{node.lineno}"


def test_package_raises_no_builtin_value_key_or_index_error():
    sources = sorted(Path(specband.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    sites = [site for path in sources for site in _builtin_raises(path)]
    assert sites == []
