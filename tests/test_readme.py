"""The README's Library and Command line sections run as written, the
Library section names only public names, and its resource table states the
closed forms of `formula_metrics`."""

import ast
import re
import shlex
from pathlib import Path

import revmul
from revmul import formula_metrics
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


def test_resource_table_states_the_closed_forms():
    # Each cell is a polynomial in n, "26n^2-4n+3" read as 26*n**2-4*n+3. The
    # ROR row's delay, 6, holds from n = 2 up; the line above the table gives
    # the 2-line rotate's 3.
    table = LIBRARY.split("Resource accounting", 1)[1].split("\n\n")[1].splitlines()
    header = [cell.strip() for cell in table[0].strip("|").split("|")]
    assert header == ["block", "quantum cost", "ancilla", "staged delay", "gates"]
    fields = ["quantum_cost", "ancilla_inputs", "staged_delay", "gate_count"]
    blocks = {"ADD/NOP": "addnop", "ROR": "ror", "multiplier": "mul"}
    rows = [[cell.strip() for cell in row.strip("|").split("|")] for row in table[2:]]
    assert [row[0] for row in rows] == list(blocks)
    for name, *cells in rows:
        forms = [re.sub(r"(\d)n", r"\1*n", cell).replace("^", "**") for cell in cells]
        for n in range(2, 17):
            want = formula_metrics(blocks[name], n)
            got = [eval(form, {"n": n}) for form in forms]
            assert got == [getattr(want, field) for field in fields], (name, n)


def test_command_line_block_runs_in_order(tmp_path, monkeypatch, capsys):
    block = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```sh\n(.*?)```", block, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in code.splitlines()]
    assert commands and all(argv[0] == "revmul" for argv in commands)
    monkeypatch.chdir(tmp_path)  # `build` writes mul4.rev, which `sim` reads
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
        capsys.readouterr()
