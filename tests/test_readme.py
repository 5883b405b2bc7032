"""The README's Library section is run as written and names the whole top level."""

import ast
import importlib
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import centorbits

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section():
    """(code, prose) of the Library section: its python block and the text around it."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    return block.group(1), section[: block.start()] + section[block.end():]


def test_library_example_gives_the_values_its_comments_state():
    source, _ = library_section()
    notes = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert repr(value) == notes.get(stmt.end_lineno), ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked


def _package_names() -> set:
    """Every class, function and exception a centorbits module defines."""
    names = set()
    for info in pkgutil.iter_modules(centorbits.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"centorbits.{info.name}")
        names |= {
            name for name, obj in vars(module).items()
            if getattr(obj, "__module__", "") == module.__name__
        }
    return names


def test_top_level_is_what_the_library_section_names():
    source, prose = library_section()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "centorbits"
        for alias in node.names
    }
    mentioned = set(re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", prose)) & _package_names()
    assert set(centorbits.__all__) == imported | mentioned
    assert all(hasattr(centorbits, name) for name in centorbits.__all__)
