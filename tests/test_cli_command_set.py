import os

import cli_command_set


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
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    # success, malformed input and bad arguments all occur
    assert {0, 2, 3} <= set(first.values())
    assert first["bad_nan_csv_singular"] == 2 and first["bad_s0r0_symbol"] == 2
