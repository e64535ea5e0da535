"""The one input boundary: every input file and inline JSON text is read, parsed and
refused in `momsym._io`, the same way whatever the locale and however deep the nesting."""

import ast
import json
import os
import subprocess
import sys

import pytest

import momsym
import momsym.cli as cli
from momsym import LaurentSymbol

SRC = os.path.dirname(momsym.__file__)
SECOND_DIFF = LaurentSymbol({0: 2.0, 1: -1.0, -1: -1.0}).to_json()


def _calls(tree):
    """Names of the called functions in tree: `open`, `json.loads` and so on."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                yield f"{func.value.id}.{func.attr}"


def test_only_io_opens_or_parses_input():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert {"_io.py", "cli.py", "matrices.py", "symbols.py"} <= set(modules)
    found = []
    for name in modules:
        if name == "_io.py":
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        found += [f"{name}: {call}" for call in _calls(tree)
                  if call in ("open", "json.load", "json.loads")]
    assert found == []


DEPTH = 200_000  # far past the parser's nesting limit


@pytest.mark.parametrize("entry", ["symbol_file", "matrix_json", "scaling_file",
                                   "scaling_inline"])
def test_deep_nesting_is_parse_error(tmp_path, capsys, entry):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * DEPTH)
    f1 = tmp_path / "f1.json"
    f1.write_text(json.dumps(SECOND_DIFF))
    compare = ["compare", "--n", "7", "--grid", "tau:0,0"]
    argv = {"symbol_file": ["build", "--kind", "toeplitz", "--symbol", str(deep), "--n", "4"],
            "matrix_json": ["spectrum", "--matrix", str(deep)],
            "scaling_file": [*compare, "--symbol", str(f1), "--scaling", str(deep)],
            "scaling_inline": [*compare, "--symbol", str(f1),
                               "--scaling", '{"form":' + "[" * DEPTH]}[entry]
    rc = cli.main([*argv, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error (parse): ") and err.count("\n") == 1
    assert err.endswith(": JSON nested too deeply\n")


def _run_in_c_locale(tmp_path, *argv):
    """The CLI in a child process whose locale encoding is ASCII."""
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.dirname(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "momsym.cli", *argv, "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("entry", ["symbol_file", "scaling_file", "matrix_json"])
def test_input_is_utf8_whatever_the_locale(tmp_path, entry):
    symbol = tmp_path / "f1.json"
    symbol.write_text(json.dumps({**SECOND_DIFF, "note": "é"}, ensure_ascii=False),
                      encoding="utf-8")
    scaling = tmp_path / "g.json"
    scaling.write_text('{"form":"one","x":"é"}', encoding="utf-8")
    matrix = tmp_path / "a.json"
    matrix.write_text('{"rows":1,"cols":1,"data":[[2.0,0.0]],"é":1}', encoding="utf-8")
    if entry == "symbol_file":
        proc = _run_in_c_locale(tmp_path, "build", "--kind", "toeplitz",
                                "--symbol", str(symbol), "--n", "4")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "toeplitz_n4.csv").is_file()
    elif entry == "scaling_file":
        proc = _run_in_c_locale(tmp_path, "compare", "--symbol", str(symbol),
                                "--scaling", str(scaling), "--n", "7", "--grid", "tau:0,0")
        assert proc.returncode == 2
        assert proc.stderr == "error (parse): bad scaling JSON: form 'one' takes no key 'x'\n"
    else:
        proc = _run_in_c_locale(tmp_path, "spectrum", "--matrix", str(matrix))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "spectrum_hermitian.csv").read_text().split() == ["2.0"]
