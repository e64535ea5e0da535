import os
import sys

import numpy as np
import pytest

import cli_command_set

MANIFEST = os.path.join(os.path.dirname(__file__), "cli_command_set.sha256")


def _tree(root):
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def test_command_set_reruns_are_byte_identical(tmp_path):
    first = cli_command_set.run(tmp_path / "a")
    second = cli_command_set.run(tmp_path / "b")
    assert first == second
    tree = _tree(tmp_path / "a")
    assert tree == _tree(tmp_path / "b")
    # the set shows every warning on stderr; no command may raise one
    assert [path for path, text in tree.items()
            if path.endswith("_stderr.txt") and b"Warning:" in text] == []
    # success, malformed input and bad arguments all occur; exit 1 is an uncaught error
    assert {0, 2, 3} <= set(first.values())
    assert [name for name, code in first.items() if code == 1] == []
    assert first["bad_nan_csv_singular"] == 2 and first["bad_s0r0_symbol"] == 2


def _check_manifest(tmp_path):
    with open(MANIFEST) as fh:
        lines = fh.read().splitlines()
    made_on = [line for line in lines if line.startswith("#")]
    here = cli_command_set.header()
    assert made_on == here, (
        "tests/cli_command_set.sha256 was made on another numpy/BLAS build, so its digests "
        "do not apply here.\nmanifest:\n" + "\n".join(made_on) + "\nthis stack:\n"
        + "\n".join(here))
    want = dict(reversed(line.split("  ", 1)) for line in lines if not line.startswith("#"))
    cli_command_set.run(tmp_path)
    got = cli_command_set.digests(tmp_path)
    differ = sorted(path for path in set(want) | set(got) if want.get(path) != got.get(path))
    # the header leaves the CPU out, yet it can move the last digits of dense solves
    assert not differ, (
        f"{len(differ)} paths differ from tests/cli_command_set.sha256 (CPU SIMD here: "
        f"{np.show_config(mode='dicts')['SIMD Extensions']['found']}):\n" + "\n".join(differ))


def test_command_set_matches_manifest(tmp_path, monkeypatch):
    # the dense route: importing scipy.linalg fails, so no solve goes to LAPACK stev
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    _check_manifest(tmp_path)


def test_command_set_matches_manifest_on_band_route(tmp_path):
    # with scipy.linalg loaded, every real tridiagonal solve of any order goes to LAPACK stev
    pytest.importorskip("scipy.linalg")
    _check_manifest(tmp_path)
