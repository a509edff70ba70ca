import os
import subprocess
import sys
from pathlib import Path

import pytest

import revmul
from revmul.cli import main


def test_build_mul_writes_netlist(tmp_path, capsys):
    out = tmp_path / "mul4.rev"
    assert main(["build", "mul", "--n", "4", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "89 gates" in printed
    assert "quantum cost: 403" in printed
    assert "ancilla inputs: 9" in printed
    assert out.read_text().startswith("rev 1\nqubits 17\n")


def test_build_ror_prints_depth(tmp_path, capsys):
    out = tmp_path / "r.rev"
    assert main(["build", "ror", "--width", "8", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "7 gates" in printed
    assert "asap depth: 6" in printed


def test_build_qasm_format(tmp_path):
    out = tmp_path / "mul2.qasm"
    assert main(["build", "mul", "--n", "2", "--format", "qasm", "--out", str(out)]) == 0
    assert out.read_text().startswith("OPENQASM 2.0;")


def test_build_usage_errors(tmp_path, capsys):
    assert main(["build", "mul", "--n", "0"]) == 2
    assert main(["build", "mul", "--width", "4"]) == 2  # wrong size flag
    err = capsys.readouterr().err
    assert "error" in err


def test_sim_multiplies(tmp_path, capsys):
    path = tmp_path / "mul2.rev"
    main(["build", "mul", "--n", "2", "--out", str(path)])
    capsys.readouterr()
    assert main(["sim", str(path), "--set", "A=3", "--set", "B=3"]) == 0
    assert capsys.readouterr().out.strip() == "P=9 A=3 B=3 Zcin=0"


def test_sim_accepts_hex_and_binary(tmp_path, capsys):
    path = tmp_path / "mul4.rev"
    main(["build", "mul", "--n", "4", "--out", str(path)])
    capsys.readouterr()
    assert main(["sim", str(path), "--set", "A=0x0", "--set", "B=0b1101"]) == 0
    assert "P=0" in capsys.readouterr().out


def test_sim_missing_register_named(tmp_path, capsys):
    path = tmp_path / "mul2.rev"
    main(["build", "mul", "--n", "2", "--out", str(path)])
    capsys.readouterr()
    assert main(["sim", str(path), "--set", "A=3"]) == 2
    assert "register B" in capsys.readouterr().err


def test_sim_trace_prints_stages(tmp_path, capsys):
    path = tmp_path / "r4.rev"
    main(["build", "ror", "--width", "4", "--out", str(path)])
    capsys.readouterr()
    assert main(["sim", str(path), "--set", "P=1", "--trace"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("stage 1:")
    assert lines[-1] == "P=8"


def test_verify_exhaustive_exit_zero(capsys):
    assert main(["verify", "mul", "--n", "4", "--exhaustive"]) == 0
    printed = capsys.readouterr().out
    assert "checked=256" in printed and "ok" in printed


def test_verify_random_echoes_seed(capsys):
    assert main(["verify", "mul", "--n", "16", "--random", "50", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert "seed=7" in first
    assert main(["verify", "mul", "--n", "16", "--random", "50", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first  # same seed, byte-identical output


def test_verify_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("REVMUL_SEED", "13")
    assert main(["verify", "ror", "--width", "15", "--random", "20"]) == 0
    assert "seed=13" in capsys.readouterr().out


def test_verify_ror_exhaustive(capsys):
    assert main(["verify", "ror", "--width", "9", "--exhaustive"]) == 0
    assert "checked=512" in capsys.readouterr().out


def test_verify_default_modes(capsys):
    assert main(["verify", "mul", "--n", "3"]) == 0
    assert "mode=exhaustive" in capsys.readouterr().out
    assert main(["verify", "mul", "--n", "6"]) == 0
    assert "mode=random" in capsys.readouterr().out


def test_verify_exhaustive_cap_is_usage_error(capsys):
    assert main(["verify", "mul", "--n", "16", "--exhaustive"]) == 2


def test_verify_json_output(capsys):
    assert main(["verify", "mul", "--n", "2", "--json"]) == 0
    printed = capsys.readouterr().out
    assert '"ok": true' in printed and '"checked": 16' in printed


def test_compare_markdown_rows(capsys):
    assert main(["compare", "--max-n", "1024", "--which", "ancilla", "--format", "md"]) == 0
    printed = capsys.readouterr().out
    data_rows = [l for l in printed.splitlines() if l.startswith("| ") and "|---" not in l]
    assert len(data_rows) == 10  # header plus nine ladder sizes
    assert "| 1024 | 2049 |" in printed


def test_compare_garbage_all_hundred(capsys):
    assert main(["compare", "--which", "garbage", "--format", "csv"]) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[0] == "n,kotiyal,zhou,imp"
    assert all(line.endswith("100%") for line in printed.strip().splitlines()[1:])


def test_compare_off_ladder_rejected(capsys):
    assert main(["compare", "--max-n", "48"]) == 2


def test_compare_writes_file(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["compare", "--max-n", "8", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "n,ours,kotiyal,zhou,imp_kotiyal,imp_zhou"


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_module_entry_point():
    # the child imports the same revmul as this test, installed or not
    src = str(Path(revmul.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "revmul", "verify", "mul", "--n", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout
