"""The README's Library section runs as written and names only public names."""

import ast
import re
from pathlib import Path

import revmul

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
LIBRARY = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_gives_its_annotated_values():
    code = re.search(r"```python\n(.*?)```", LIBRARY, re.S).group(1)
    lines = code.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(code).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.lineno - 1].partition("#")[2].split()
        if comment and comment[0].isdigit():  # "# 117", "# 403 = 26n^2 - 4n + 3"
            assert value == int(comment[0]), ast.unparse(stmt)
        else:  # a verifier's `.ok`
            assert value is True, ast.unparse(stmt)
        checked.append(value)
    assert checked == [117, 403, True, True]


def test_library_paragraph_names_public_functions():
    paragraph = re.search(r"^Builders: .*?(?=\n\n)", LIBRARY, re.S | re.M).group(0)
    assert "Metrics:" in paragraph and "Oracles:" in paragraph
    names = re.findall(r"`(\w+)(?:\([^`]*\))?`", paragraph)
    assert "structural_metrics" in names and "oracle_rotate_right" in names
    assert [name for name in names if name not in revmul.__all__] == []
