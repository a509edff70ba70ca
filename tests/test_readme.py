"""The README's Library and Command line sections run as written, and the
Library section names only public names."""

import ast
import re
import shlex
from pathlib import Path

import revmul
from revmul.cli import main

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


def test_command_line_block_runs_in_order(tmp_path, monkeypatch, capsys):
    block = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```sh\n(.*?)```", block, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in code.splitlines()]
    assert commands and all(argv[0] == "revmul" for argv in commands)
    monkeypatch.chdir(tmp_path)  # `build` writes mul4.rev, which `sim` reads
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
        capsys.readouterr()
