import argparse
import csv
import json
import math
import os
import shutil
import stat
import subprocess
import sys

import numpy as np
import pytest

import cli_command_set
import momsym
import momsym.cli as cli
from momsym import (LaurentSymbol, NumericError, circulant, read_matrix_csv,
                    read_matrix_json, tau_eigen_grid, tau_matrix, toeplitz,
                    toeplitz_rect)
from momsym._io import atomic_write_text, parse_json


def second_diff():
    return LaurentSymbol({0: 2.0, 1: -1.0, -1: -1.0})


def dump_symbol(path, sym):
    path.write_text(json.dumps(sym.to_json()))
    return str(path)


@pytest.fixture
def f1_path(tmp_path):
    return dump_symbol(tmp_path / "f1.json", second_diff())


@pytest.fixture
def const_path(tmp_path):
    return dump_symbol(tmp_path / "one.json", LaurentSymbol({0: 1.0}))


class TestGridCommand:
    def test_tau_grid_export(self, tmp_path, capsys):
        rc = cli.main(["grid", "--grid", "tau:0,0", "--n", "3", "--out", str(tmp_path)])
        assert rc == 0
        out_path = tmp_path / "grid_tau_0_0_n3.csv"
        assert str(out_path) in capsys.readouterr().out
        got = [float(v) for v in out_path.read_text().split()]
        assert np.allclose(got, tau_eigen_grid(0, 0, 3), atol=0)

    def test_unknown_grid_is_parse_error(self, tmp_path, capsys):
        rc = cli.main(["grid", "--grid", "wobble", "--n", "3", "--out", str(tmp_path)])
        assert rc == 2
        assert "error (parse)" in capsys.readouterr().err

    def test_missing_out_dir_is_created(self, tmp_path):
        out = tmp_path / "fresh" / "deep"
        rc = cli.main(["grid", "--grid", "tau:0,0", "--n", "3", "--out", str(out)])
        assert rc == 0
        assert (out / "grid_tau_0_0_n3.csv").is_file()

    def test_bad_size_is_argument_error(self, tmp_path, capsys):
        rc = cli.main(["grid", "--grid", "circulant", "--n", "-2", "--out", str(tmp_path)])
        assert rc == 3
        assert "error (argument)" in capsys.readouterr().err


class TestBuildCommand:
    def test_toeplitz_csv(self, tmp_path, f1_path):
        rc = cli.main(["build", "--kind", "toeplitz", "--symbol", f1_path,
                       "--n", "4", "--out", str(tmp_path)])
        assert rc == 0
        got = read_matrix_csv(tmp_path / "toeplitz_n4.csv")
        assert np.array_equal(got, toeplitz(second_diff(), 4))

    def test_tau_json_with_corner_weights(self, tmp_path, f1_path):
        rc = cli.main(["build", "--kind", "tau", "--symbol", f1_path, "--n", "5",
                       "--phi", "1", "--format", "json", "--out", str(tmp_path)])
        assert rc == 0
        got = read_matrix_json(tmp_path / "tau_n5_eps0_phi1.json")
        assert np.array_equal(got, tau_matrix(second_diff(), 0, 1, 5))

    def test_circulant(self, tmp_path, f1_path):
        rc = cli.main(["build", "--kind", "circulant", "--symbol", f1_path,
                       "--n", "4", "--out", str(tmp_path)])
        assert rc == 0
        got = read_matrix_csv(tmp_path / "circulant_n4.csv")
        assert np.array_equal(got, circulant(second_diff(), 4))

    def test_rectangular(self, tmp_path, f1_path):
        rc = cli.main(["build", "--kind", "toeplitz-rect", "--symbol", f1_path,
                       "--n", "3", "--m", "2", "--out", str(tmp_path)])
        assert rc == 0
        got = read_matrix_csv(tmp_path / "toeplitz-rect_n3_m2.csv")
        assert np.array_equal(got, toeplitz_rect(second_diff(), 3, 2))

    def test_corner_weight_out_of_range(self, tmp_path, f1_path, capsys):
        rc = cli.main(["build", "--kind", "tau", "--symbol", f1_path, "--n", "4",
                       "--eps", "2", "--out", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize("kind", ["toeplitz", "multilevel", "circulant", "tau"])
    def test_m_refused_outside_toeplitz_rect(self, tmp_path, f1_path, capsys, kind):
        rc = cli.main(["build", "--kind", kind, "--symbol", f1_path,
                       "--n", "4", "--m", "9", "--out", str(tmp_path)])
        assert rc == 3
        assert "--m" in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []

    def test_tau_weights_default_to_zero(self, tmp_path, f1_path):
        rc = cli.main(["build", "--kind", "tau", "--symbol", f1_path, "--n", "5",
                       "--out", str(tmp_path)])
        assert rc == 0
        got = read_matrix_csv(tmp_path / "tau_n5_eps0_phi0.csv")
        assert np.array_equal(got, tau_matrix(second_diff(), 0, 0, 5))

    @pytest.mark.parametrize("kind", ["toeplitz", "multilevel", "circulant", "toeplitz-rect"])
    @pytest.mark.parametrize("flag", ["--eps", "--phi"])
    def test_corner_weights_refused_outside_tau(self, tmp_path, f1_path, capsys, kind, flag):
        m = ["--m", "6"] if kind == "toeplitz-rect" else []
        rc = cli.main(["build", "--kind", kind, "--symbol", f1_path, "--n", "4", *m,
                       flag, "0", "--out", str(tmp_path)])
        assert rc == 3
        assert f"{flag} applies only to tau, not {kind}" in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []

    def test_malformed_symbol_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = cli.main(["build", "--kind", "toeplitz", "--symbol", str(bad),
                       "--n", "4", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--symbol", "--scaling", "--matrix.csv", "--matrix.json"])
    def test_file_that_is_not_utf8_is_parse_error(self, tmp_path, f1_path, capsys, flag):
        flag, _, suffix = flag.partition(".")
        bad = tmp_path / f"bad.{suffix or 'json'}"
        bad.write_bytes(b"\xff\xfe{}")
        if flag == "--matrix":
            argv = ["spectrum", "--matrix", str(bad)]
        else:
            source = ["--symbol", str(bad)] if flag == "--symbol" else ["--symbol", f1_path,
                                                                       "--scaling", str(bad)]
            argv = ["compare", *source, "--n", "7", "--grid", "tau:0,0"]
        rc = cli.main([*argv, "--out", str(tmp_path)])
        assert rc == 2
        assert "codec can't decode byte 0xff" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_hermitian_from_matrix_file(self, tmp_path, f1_path):
        cli.main(["build", "--kind", "toeplitz", "--symbol", f1_path,
                  "--n", "4", "--out", str(tmp_path)])
        rc = cli.main(["spectrum", "--matrix", str(tmp_path / "toeplitz_n4.csv"),
                       "--kind", "hermitian", "--out", str(tmp_path)])
        assert rc == 0
        got = [float(v) for v in (tmp_path / "spectrum_hermitian.csv").read_text().split()]
        want = np.sort(2 - 2 * np.cos(np.arange(1, 5) * math.pi / 5))
        assert np.allclose(got, want, atol=1e-13)

    def test_singular_from_symbol(self, tmp_path):
        x_path = dump_symbol(tmp_path / "x.json", LaurentSymbol({0: 2.25, 1: 1.0}))
        rc = cli.main(["spectrum", "--symbol", x_path, "--build-kind", "toeplitz",
                       "--n", "4", "--kind", "singular", "--out", str(tmp_path)])
        assert rc == 0
        got = [float(v) for v in (tmp_path / "spectrum_singular.csv").read_text().split()]
        assert len(got) == 4 and all(v >= 0 for v in got)

    def test_general_json_output(self, tmp_path):
        shift = dump_symbol(tmp_path / "z.json", LaurentSymbol({1: 1.0}))
        rc = cli.main(["spectrum", "--symbol", shift, "--build-kind", "circulant",
                       "--n", "4", "--kind", "general", "--format", "json",
                       "--out", str(tmp_path)])
        assert rc == 0
        obj = json.loads((tmp_path / "spectrum_general.json").read_text())
        assert obj["kind"] == "general_eig"
        vals = [complex(re, im) for re, im in obj["values"]]
        # fourth roots of unity
        assert np.allclose(sorted(abs(v) for v in vals), np.ones(4), atol=1e-12)

    def test_oversized_build_is_argument_error(self, tmp_path, f1_path, capsys):
        # refused before allocating: the dense result alone would be 1.6e15 bytes
        rc = cli.main(["build", "--kind", "toeplitz", "--symbol", f1_path,
                       "--n", "10000000", "--out", str(tmp_path)])
        assert rc == 3
        assert "physical memory" in capsys.readouterr().err

    def test_missing_input_is_argument_error(self, tmp_path, capsys):
        rc = cli.main(["spectrum", "--kind", "hermitian", "--out", str(tmp_path)])
        assert rc == 3

    def test_symbol_without_n_is_argument_error(self, tmp_path, f1_path, capsys):
        rc = cli.main(["spectrum", "--symbol", f1_path, "--out", str(tmp_path)])
        assert rc == 3
        assert "--symbol needs --n" in capsys.readouterr().err

    @pytest.mark.parametrize("name, flag", cli_command_set.MATRIX_BUILD_FLAGS,
                             ids=[name for name, _ in cli_command_set.MATRIX_BUILD_FLAGS])
    def test_matrix_refuses_build_flags(self, tmp_path, f1_path, capsys, name, flag):
        cli.main(["build", "--kind", "toeplitz", "--symbol", f1_path, "--n", "4",
                  "--out", str(tmp_path)])
        capsys.readouterr()
        rc = cli.main(["spectrum", "--matrix", str(tmp_path / "toeplitz_n4.csv"), *flag,
                       "--out", str(tmp_path)])
        assert rc == 3
        assert f"spectrum --matrix takes no {flag[0]}" in capsys.readouterr().err
        assert not (tmp_path / "spectrum_hermitian.csv").exists()

    @pytest.mark.parametrize("flag", ["--eps", "--phi"])
    def test_corner_weights_refused_for_toeplitz_spectrum(self, tmp_path, f1_path, capsys,
                                                          flag):
        rc = cli.main(["spectrum", "--symbol", f1_path, "--n", "4", flag, "0",
                       "--out", str(tmp_path)])
        assert rc == 3
        assert f"{flag} applies only to tau, not toeplitz" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(cli_command_set.OVERFLOW_INPUTS))
    def test_number_beyond_float_range_is_parse_error(self, tmp_path, capsys, name):
        bad = tmp_path / name
        bad.write_text(cli_command_set.OVERFLOW_INPUTS[name])
        source = ["--matrix", str(bad)] if "matrix" in name else ["--symbol", str(bad),
                                                                  "--n", "3"]
        rc = cli.main(["spectrum", *source, "--out", str(tmp_path)])
        assert rc == 2
        assert "int too large to convert to float" in capsys.readouterr().err

    def test_m_refused_for_square_build_kind(self, tmp_path, f1_path, capsys):
        rc = cli.main(["spectrum", "--symbol", f1_path, "--n", "4", "--m", "9",
                       "--out", str(tmp_path)])
        assert rc == 3
        assert "--m" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_symbol_is_parse_error(self, tmp_path, capsys, token):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(second_diff().to_json()).replace("2.0", token))
        rc = cli.main(["spectrum", "--symbol", str(bad), "--build-kind", "tau",
                       "--n", "5", "--out", str(tmp_path)])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text", [
        ("nan.csv", "1.0+0.0j,nan+0.0j\n2.0+0.0j,1.0+0.0j\n"),
        ("inf.csv", "1.0+0.0j,0.0+infj\n2.0+0.0j,1.0+0.0j\n"),
        ("nan.json", '{"rows":1,"cols":2,"data":[[1.0,0.0],[NaN,0.0]]}'),
        ("inf.json", '{"rows":1,"cols":1,"data":[[0.0,-Infinity]]}'),
    ], ids=["nan_csv", "inf_csv", "nan_json", "inf_json"])
    @pytest.mark.parametrize("kind", ["hermitian", "singular", "general"])
    def test_non_finite_matrix_file_is_parse_error(self, tmp_path, capsys, name, text, kind):
        bad = tmp_path / name
        bad.write_text(text)
        rc = cli.main(["spectrum", "--matrix", str(bad), "--kind", kind,
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / f"spectrum_{kind}.csv").exists()

    @pytest.mark.parametrize("change", [
        {"s": 2, "r": 2},                 # coefficient shape disagrees with s, r
        {"d": 2},                         # k arity disagrees with d
        {"d": 0, "coeffs": []},
        {"s": 0, "r": 0, "coeffs": []},   # used to build an empty matrix
    ], ids=["shape", "arity", "d0", "s0r0"])
    def test_inconsistent_symbol_json_is_parse_error(self, tmp_path, capsys, change):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**second_diff().to_json(), **change}))
        rc = cli.main(["build", "--kind", "toeplitz", "--symbol", str(bad),
                       "--n", "3", "--out", str(tmp_path)])
        assert rc == 2
        assert "error (parse): bad symbol JSON" in capsys.readouterr().err
        assert not (tmp_path / "toeplitz_n3.csv").exists()

    @pytest.mark.parametrize("name, text", cli_command_set.BAD_MATRIX_HEADERS,
                             ids=[name for name, _ in cli_command_set.BAD_MATRIX_HEADERS])
    def test_bad_matrix_json_header_is_parse_error(self, tmp_path, capsys, name, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = cli.main(["spectrum", "--matrix", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "rows and cols must be positive integers" in capsys.readouterr().err
        assert not (tmp_path / "spectrum_hermitian.csv").exists()

    def test_numeric_failure_maps_to_exit_4(self, tmp_path, f1_path, monkeypatch, capsys):
        def boom(a):
            raise NumericError("did not converge")

        monkeypatch.setattr(cli, "eig_hermitian", boom)
        cli.main(["build", "--kind", "toeplitz", "--symbol", f1_path,
                  "--n", "4", "--out", str(tmp_path)])
        rc = cli.main(["spectrum", "--matrix", str(tmp_path / "toeplitz_n4.csv"),
                       "--kind", "hermitian", "--out", str(tmp_path)])
        assert rc == 4
        assert "error (numeric)" in capsys.readouterr().err


class TestCompareCommand:
    def run_compare(self, tmp_path, f1_path, const_path, grid):
        return cli.main([
            "compare",
            "--symbol", f1_path, "--scaling", '{"form":"one"}',
            "--symbol", const_path,
            "--scaling", '{"form":"inverse_power","p":2,"base":"n+1"}',
            "--n", "7", "--grid", grid, "--out", str(tmp_path)])

    def test_matched_grid_reproduces_uniform_defect(self, tmp_path, f1_path,
                                                    const_path, capsys):
        rc = self.run_compare(tmp_path, f1_path, const_path, "tau:0,1")
        assert rc == 0
        out = capsys.readouterr().out
        assert "momentary: max_error=" in out and "glt: max_error=" in out
        h2 = 1.0 / 64
        with open(tmp_path / "compare_glt.csv") as fh:
            rows = list(csv.DictReader(fh))
        errs = [float(r["abs_error"]) for r in rows]
        assert len(errs) == 7
        assert max(abs(e - h2) for e in errs) <= 1e-12
        mom = json.loads((tmp_path / "compare_momentary.json").read_text())
        assert mom["max_error"] <= 1e-13
        assert mom["grid"] == "tau:0,1" and mom["size"] == [7]

    def test_exact_matrix_follows_grid_family(self, tmp_path, f1_path, const_path):
        # tau grids compare against the tau build of the frozen symbol,
        # circulant grids against the circulant build
        from momsym import eig_hermitian, h2xn_dirichlet_neumann

        self.run_compare(tmp_path, f1_path, const_path, "tau:0,1")
        got = json.loads((tmp_path / "compare_momentary.json").read_text())["exact"]
        want = eig_hermitian(h2xn_dirichlet_neumann(7)).values
        assert np.allclose(got, want, atol=1e-14)

        self.run_compare(tmp_path, f1_path, const_path, "circulant")
        got = json.loads((tmp_path / "compare_momentary.json").read_text())["exact"]
        h2 = 1.0 / 64
        fixed = LaurentSymbol({0: 2.0 + h2, 1: -1.0, -1: -1.0})
        want = eig_hermitian(circulant(fixed, 7)).values
        assert np.allclose(got, want, atol=1e-14)

    def test_pinned_exact_grid_exposes_mismatch(self, tmp_path, f1_path,
                                                const_path):
        # matrix pinned to the tau:0,1 algebra, samples taken on tau:0,0:
        # both symbol kinds now miss by O(h) instead of the matched h^2
        rc = cli.main([
            "compare",
            "--symbol", f1_path, "--scaling", '{"form":"one"}',
            "--symbol", const_path,
            "--scaling", '{"form":"inverse_power","p":2,"base":"n+1"}',
            "--n", "15", "--grid", "tau:0,0", "--exact-grid", "tau:0,1",
            "--out", str(tmp_path)])
        assert rc == 0
        h = 1.0 / 16
        for kind in ("momentary", "glt"):
            obj = json.loads((tmp_path / f"compare_{kind}.json").read_text())
            assert h * h < obj["max_error"] < 4 * h

    def test_reruns_are_byte_identical(self, tmp_path, f1_path, const_path):
        self.run_compare(tmp_path, f1_path, const_path, "tau:0,1")
        first = (tmp_path / "compare_momentary.json").read_bytes()
        self.run_compare(tmp_path, f1_path, const_path, "tau:0,1")
        assert (tmp_path / "compare_momentary.json").read_bytes() == first

    def test_scaling_count_mismatch(self, tmp_path, f1_path, capsys):
        rc = cli.main(["compare", "--symbol", f1_path,
                       "--scaling", '{"form":"one"}', "--scaling", '{"form":"one"}',
                       "--n", "4", "--grid", "tau:0,0", "--out", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize("name, text", cli_command_set.BAD_SCALINGS,
                             ids=[name for name, _ in cli_command_set.BAD_SCALINGS])
    def test_bad_scaling_is_parse_error(self, tmp_path, f1_path, capsys, name, text):
        message = {"values_list": "table values must map sizes to numbers",
                   "p_float": "inverse_power p must be an integer, got 1.5",
                   "p_bool": "inverse_power p must be an integer, got True",
                   "p_string": "inverse_power p must be an integer, got '2'",
                   "nan_value": "table values must be finite",
                   "inf_value": "table values must be finite",
                   "empty_product": "a product needs at least one factor",
                   "extra_key": "form 'inverse_power' takes no key 'class_tag'",
                   "table_key_repeated": "table key '07' is not written as '7'",
                   "table_key_space": "table key ' 7' is not written as '7'",
                   "key_repeated": "repeated key 'p'",
                   "value_string": "table values must be numbers, got '1.5'",
                   "value_bool": "table values must be numbers, got True"}[name]
        rc = cli.main(["compare", "--symbol", f1_path, "--scaling", text, "--n", "7",
                       "--grid", "tau:0,0", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error (parse): bad scaling JSON: {message}\n"

    @pytest.mark.parametrize("name, text", cli_command_set.OVERFLOW_SCALINGS,
                             ids=[name for name, _ in cli_command_set.OVERFLOW_SCALINGS])
    def test_overflowing_scaling_is_numeric_error(self, tmp_path, f1_path, capsys, recwarn,
                                                  name, text):
        rc = cli.main(["compare", "--symbol", f1_path, "--scaling", text, "--n", "7",
                       "--grid", "tau:0,0", "--out", str(tmp_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error (numeric): scaling ") and err.count("\n") == 1
        assert "is not finite at size 7" in err
        assert not recwarn.list

    @staticmethod
    def _deep_product(depth, leaf):
        """A product scaling nested depth levels deep around leaf, two unlike factors a
        level.  Written as text: json.dumps itself overflows the stack near the
        parser's limit."""
        text = leaf
        for level in range(depth):
            factor = ('{"form":"table","values":{"7":1.5}}' if level % 2
                      else '{"form":"inverse_power","p":1,"base":"n"}')
            text = '{"form":"product","factors":[%s,%s]}' % (factor, text)
        return text

    def test_deep_product_scaling_is_never_a_crash(self, tmp_path, f1_path, capsys):
        def parses(depth):
            try:
                parse_json(self._deep_product(depth, "{}"))
            except ValueError:
                return False
            return True

        deepest = 330
        while parses(deepest + 1):
            deepest += 1
        finite, overflowing = ('{"form":"table","values":{"7":2.0}}',
                               '{"form":"inverse_power","p":-400,"base":"n"}')
        cases = [(330, finite, 0), (330, overflowing, 4)]
        cases += [(depth, (finite, overflowing)[depth % 2], None)
                  for depth in range(300, deepest + 3)]
        for depth, leaf, want in cases:
            path = tmp_path / "deep.json"
            path.write_text(self._deep_product(depth, leaf))
            rc = cli.main(["compare", "--symbol", f1_path, "--scaling", str(path), "--n", "7",
                           "--grid", "tau:0,0", "--out", str(tmp_path)])
            err = capsys.readouterr().err
            assert rc in (0, 2, 4), (depth, err)
            assert want is None or rc == want
            if rc == 2:
                assert err.endswith(": JSON nested too deeply\n") and depth > deepest - 5


class TestExampleCommand:
    def test_example2_passes(self, tmp_path, capsys):
        rc = cli.main(["example", "2", "--n", "5", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "example 2: all" in out and "claim flags passed" in out
        artifact = tmp_path / "example2_n5.json"
        assert artifact.exists()
        obj = json.loads(artifact.read_text())
        assert obj["passed"] is True

    def test_example3_requires_N(self, tmp_path, capsys):
        rc = cli.main(["example", "3", "--n", "5", "--out", str(tmp_path)])
        assert rc == 3

    def test_example3_with_N(self, tmp_path):
        rc = cli.main(["example", "3", "--n", "5", "--N", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "example3_N2_n5.json").exists()

    def test_example3_conjugate_pairs(self, tmp_path):
        rc = cli.main(["example", "3", "--n", "33", "--N", "16", "--out", str(tmp_path)])
        assert rc == 0

    def test_csv_artifacts(self, tmp_path):
        rc = cli.main(["example", "1", "--n", "7", "--format", "csv",
                       "--out", str(tmp_path)])
        assert rc == 0
        csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert "example1_n7_momentary_matched.csv" in csvs

    def test_example1_defaults_to_dirichlet_neumann(self, tmp_path):
        rc = cli.main(["example", "1", "--n", "7", "--out", str(tmp_path)])
        assert rc == 0
        obj = json.loads((tmp_path / "example1_n7.json").read_text())
        assert obj["params"] == {"bc": "dirichlet_neumann", "n": 7}

    def test_example3_oversized_is_argument_error(self, tmp_path, capsys):
        rc = cli.main(["example", "3", "--N", "100000", "--n", "33", "--out", str(tmp_path)])
        assert rc == 3
        assert ("a dense 6400000 x 6400000 build would exceed physical memory"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_failed_claim_maps_to_exit_5(self, tmp_path, monkeypatch, capsys):
        class FakeReport:
            flags = {"good": True, "bad": False}
            passed = False

            def failed_flags(self):
                return ["bad"]

            def write_artifacts(self, outdir, fmt="json"):
                return []

        monkeypatch.setattr(cli, "run_example", lambda *a, **k: FakeReport())
        rc = cli.main(["example", "1", "--n", "7", "--out", str(tmp_path)])
        assert rc == 5
        assert "FAILED claim: bad" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, text", [
    pytest.param(["grid", "--grid", "circulant", "--n", "4,5"], "--n", "4,5", id="grid"),
    pytest.param(["compare", "--symbol", None, "--n", "4,5", "--grid", "tau:0,0"],
                 "--n", "4,5", id="compare"),
    pytest.param(["example", "2", "--n", "5,9"], "--n", "5,9", id="example2"),
    pytest.param(["example", "3", "--N", "4,6", "--n", "8"], "--N", "4,6", id="example3"),
])
def test_single_size_flag_rejects_a_list(tmp_path, f1_path, capsys, argv, flag, text):
    out = tmp_path / "out"
    rc = cli.main([f1_path if a is None else a for a in argv] + ["--out", str(out)])
    assert rc == 3
    assert f"error (argument): {flag} takes one size, got '{text}'" in capsys.readouterr().err
    assert not out.exists()


# each flag that one build kind or scenario alone reads, and that reader
FLAG_OWNERS = {"--m": "toeplitz-rect", "--eps": "tau", "--phi": "tau", "--N": "example 3",
               "--bc": "example 1"}
# the option of each command that picks its build kind or scenario
KIND_OPTIONS = {"build": "--kind", "spectrum": "--build-kind", "example": "id"}


def _unowned_flag_cases():
    """(argv, flag, kind): each owned flag a command takes, given to each kind or
    scenario of that command that does not read it; found by walking the parser."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    cases = []
    for command, option in KIND_OPTIONS.items():
        actions = {name: a for a in sub.choices[command]._actions
                   for name in a.option_strings or [a.dest]}
        for flag, owner in FLAG_OWNERS.items():
            if flag not in actions:
                continue
            value = (actions[flag].choices or ["1"])[-1]
            for choice in actions[option].choices:
                if command == "example":
                    kind, argv = f"example {choice}", [command, choice, "--n", "5"]
                else:
                    kind, argv = choice, [command, option, choice, "--symbol", None, "--n", "4"]
                if kind != owner:
                    cases.append(pytest.param(argv + [flag, value], flag, kind,
                                              id=f"{command}-{choice}-{flag}"))
    return cases


def test_every_owned_flag_is_walked():
    assert {case.values[1] for case in _unowned_flag_cases()} == set(FLAG_OWNERS)


@pytest.mark.parametrize("argv, flag, kind", _unowned_flag_cases())
def test_owned_flag_refused_elsewhere(tmp_path, f1_path, capsys, argv, flag, kind):
    out = tmp_path / "out"
    rc = cli.main([f1_path if a is None else a for a in argv] + ["--out", str(out)])
    assert rc == 3
    assert (f"error (argument): {flag} applies only to {FLAG_OWNERS[flag]}, not {kind}"
            in capsys.readouterr().err)
    assert not out.exists()


class TestArtifactFiles:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            rc = cli.main(["grid", "--grid", "circulant", "--n", "4", "--out", str(tmp_path)])
        finally:
            os.umask(old)
        assert rc == 0
        assert [p.name for p in tmp_path.iterdir()] == ["grid_circulant_n4.csv"]
        assert stat.S_IMODE((tmp_path / "grid_circulant_n4.csv").stat().st_mode) == mode

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(str(tmp_path / "a.txt"), "x\n")
        assert list(tmp_path.iterdir()) == []


class TestOutDirectory:
    """--out is made at the first artifact written, so a refused command leaves none."""

    def test_refused_spectrum_leaves_no_directory(self, tmp_path, capsys):
        matrix = tmp_path / "upper.csv"
        matrix.write_text("1.0+0.0j,2.0+0.0j\n0.0+0.0j,1.0+0.0j\n")
        out = tmp_path / "out"
        rc = cli.main(["spectrum", "--matrix", str(matrix), "--out", str(out)])
        assert rc == 3
        assert "not Hermitian" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, flags, message", [
        ("tau", ["--eps", "1"], "the tau corner"), ("circulant", [], "the circulant fold")])
    def test_overflowing_build_is_numeric_error(self, tmp_path, capsys, kind, flags, message):
        # finite coefficients whose sum in the build overflows: exit 4 and no file
        big = dump_symbol(tmp_path / "big.json",
                          LaurentSymbol({0: 1e308, 1: 1e308, -1: 1e308}))
        out = tmp_path / "out"
        rc = cli.main(["build", "--kind", kind, "--symbol", big, "--n", "2", *flags,
                       "--out", str(out)])
        assert rc == 4
        assert capsys.readouterr().err == \
            f"error (numeric): {message} overflows in the matrix build\n"
        assert not out.exists()

    def test_out_naming_a_file_is_reported_after_input_checks(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        argv = ["grid", "--grid", "circulant", "--out", str(afile), "--n"]
        assert cli.main([*argv, "-2"]) == 3
        assert "error (argument)" in capsys.readouterr().err
        assert cli.main([*argv, "4"]) == 2
        assert "error (io)" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("momsym") is None,
                    reason="console script not on PATH")
def test_console_script_smoke(tmp_path):
    proc = subprocess.run(["momsym", "grid", "--grid", "circulant", "--n", "4",
                           "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "grid_circulant_n4.csv").exists()


def test_module_entry_point(tmp_path):
    # the child imports the same momsym as this process, installed or not
    src = os.path.dirname(os.path.dirname(momsym.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "momsym.cli", "grid",
                           "--grid", "uniform-open", "--n", "3",
                           "--out", str(tmp_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert (tmp_path / "grid_uniform-open_n3.csv").exists()
