"""A fixed set of CLI commands whose outputs are compared across versions.

Usage:  PYTHONPATH=<checkout>/src python3 tests/cli_command_set.py OUT > MANIFEST

Writes the input symbols and matrix files to OUT/inputs, then runs every
command in-process with `--out .` from its own directory OUT/<name>.  Each
directory receives the command's artifacts plus `_argv.txt`, `_stdout.txt`,
`_stderr.txt` and `_exit.txt`.  Every path in the tree is relative, so
identical behaviour gives identical bytes: compare two checkouts' trees with
`diff -r`.  The script prints the tree's manifest, one sha256 per file in
`sha256sum` format under a header naming the numpy and BLAS build, because
the numbers depend on that build (and on the CPU).  The committed
`tests/cli_command_set.sha256` is this output; a change that alters an
artifact on purpose regenerates it.

The set covers `grid`, `build`, `spectrum`, `compare` and `example 1-4`,
including malformed input (exit 2), bad arguments and flags a command
does not use (exit 3), oversized builds (exit 3) and scalings that overflow
(exit 4).  No command may exit 1, the code of an uncaught error.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import warnings

import numpy as np

from momsym import LaurentSymbol, tau_matrix, write_matrix_csv, write_matrix_json
from momsym.cli import main

# laid out as LaurentSymbol coefficient dicts; written with to_json
_SYMBOLS = {
    "f1": {0: 2.0, 1: -1.0, -1: -1.0},
    "one": {0: 1.0},
    "ns4": {-1: -1.0, 0: 3.0, 1: 0.5, 2: 0.25},
    "wide": {0: 6.0, 1: -4.0, -1: -4.0, 2: 1.0, -2: 1.0},
    "herm_c": {0: 2.0, 1: 1j, -1: -1j},
    "shift": {1: 1.0},
    "isin": {1: 1.0, -1: -1.0},
    "nonsym_tri": {0: 2.0, 1: -1.0, -1: -0.5},
    "lap2": {(0, 0): 4.0, (1, 0): -1.0, (-1, 0): -1.0, (0, 1): -1.0, (0, -1): -1.0},
    "biv": {(0, 0): 2.0, (1, 0): -1.0, (-1, 0): -1.0},
    "blk2": {0: [[2.0, 1.0], [1.0, 2.0]], 1: [[-1.0, 0.0], [0.5, -1.0]],
             -1: [[-1.0, 0.5], [0.0, -1.0]]},
    "rect23": {0: [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]},
    # at n = 4 the pairs (-3, 1), (-2, 2) and (-1, 3) share a residue mod n
    "wrap7": {-3: 0.5 - 0.25j, -2: -1.5, -1: 0.75j, 0: 2.0 + 1.0j, 1: -1.25 + 0.5j,
              2: 0.375, 3: -0.625 - 1.0j},
}

# raw JSON text for inputs that LaurentSymbol refuses to build
_RAW = {
    "nan.json": '{"d": 1, "s": 1, "r": 1, "coeffs": [{"k": [0], "m": [[[NaN, 0.0]]]}]}',
    "shape.json": '{"d": 1, "s": 2, "r": 2, "coeffs": [{"k": [0], "m": [[[2.0, 0.0]]]}]}',
    "arity.json": '{"d": 2, "s": 1, "r": 1, "coeffs": [{"k": [0], "m": [[[2.0, 0.0]]]}]}',
    "d0.json": '{"d": 0, "s": 1, "r": 1, "coeffs": []}',
    "s0r0.json": '{"d": 1, "s": 0, "r": 0, "coeffs": []}',
    "nan.csv": "1.0+0.0j,nan+0.0j\n2.0+0.0j,1.0+0.0j\n",
    "inf.json": '{"rows":1,"cols":1,"data":[[Infinity,0.0]]}',
    "table_missing.json": '{"form": "table", "class_tag": "decaying", "values": {"5": 1.0}}',
    "entry_count.json": '{"rows":2,"cols":2,"data":[[1,0]]}',
}

# matrix JSON whose rows/cols header is not a pair of positive integers; exit 2
BAD_MATRIX_HEADERS = [
    ("negative", '{"rows":-1,"cols":-1,"data":[[1.0,0.0]]}'),
    ("empty", '{"rows":0,"cols":0,"data":[]}'),
    ("float", '{"rows":2.5,"cols":1,"data":[[1.0,0.0],[2.0,0.0]]}'),
    ("bool", '{"rows":true,"cols":true,"data":[[1.0,0.0]]}'),
]
_RAW.update({f"header_{name}.json": text for name, text in BAD_MATRIX_HEADERS})

# a number too large for a float, in a matrix JSON and in a symbol JSON; exit 2
_HUGE = "1" + "0" * 400
OVERFLOW_INPUTS = {
    "overflow_matrix.json": '{"rows":1,"cols":1,"data":[[%s,0.0]]}' % _HUGE,
    "overflow_symbol.json": '{"d": 1, "s": 1, "r": 1, "coeffs": [{"k": [0], "m": [[[%s, 0.0]]]}]}'
                            % _HUGE,
}
_RAW.update(OVERFLOW_INPUTS)

# symbol JSON whose d, s, r or k is not a JSON integer, or that repeats a k; each
# rejected with exit 2 and "bad symbol JSON: ..."
_ONE_COEFF = '"coeffs": [{"k": [0], "m": [[[2.0, 0.0]]]}]}'
BAD_SYMBOLS = [
    ("d_float", '{"d": 1.5, "s": 1, "r": 1, ' + _ONE_COEFF),
    ("s_bool", '{"d": 1, "s": true, "r": 1, ' + _ONE_COEFF),
    ("k_float", '{"d": 1, "s": 1, "r": 1, "coeffs": [{"k": [0], "m": [[[2.0, 0.0]]]}, '
                '{"k": [0.7], "m": [[[-1.0, 0.0]]]}]}'),
    ("k_bool", '{"d": 1, "s": 1, "r": 1, "coeffs": [{"k": [true], "m": [[[2.0, 0.0]]]}]}'),
    ("k_twice", '{"d": 1, "s": 1, "r": 1, "coeffs": [{"k": [1], "m": [[[2.0, 0.0]]]}, '
                '{"k": [1], "m": [[[-1.0, 0.0]]]}]}'),
]
_RAW.update({f"symbol_{name}.json": text for name, text in BAD_SYMBOLS})

# each rejected with exit 2 and "bad scaling JSON: ..."
BAD_SCALINGS = [
    ("values_list", '{"form":"table","values":[1,2]}'),
    ("p_float", '{"form":"inverse_power","p":1.5,"base":"n"}'),
    ("p_bool", '{"form":"inverse_power","p":true,"base":"n"}'),
    ("p_string", '{"form":"inverse_power","p":"2","base":"n"}'),
    ("nan_value", '{"form":"table","values":{"7":NaN}}'),
    ("inf_value", '{"form":"table","values":{"7":Infinity}}'),
    ("empty_product", '{"form":"product","factors":[]}'),
    ("extra_key", '{"form":"inverse_power","p":2,"base":"n","class_tag":"constant"}'),
]

# valid scalings whose value at n = 7 overflows the float range; exit 4
OVERFLOW_SCALINGS = [
    ("power", '{"form":"inverse_power","p":-400,"base":"n"}'),
    ("product", '{"form":"product","factors":[{"form":"inverse_power","p":-200,"base":"n"},'
                '{"form":"inverse_power","p":-200,"base":"n+1"}]}'),
]

_IN = "../inputs/"

# spectrum --matrix refuses every build flag (exit 3, naming it), even one that
# repeats a default
MATRIX_BUILD_FLAGS = [("symbol", ["--symbol", _IN + "f1.json"]), ("n", ["--n", "4"]),
                      ("m", ["--m", "4"]), ("build_kind", ["--build-kind", "toeplitz"]),
                      ("eps", ["--eps", "0"]), ("phi", ["--phi", "1"])]

_SCALED = ["--symbol", _IN + "f1.json", "--scaling", '{"form":"one"}',
           "--symbol", _IN + "one.json",
           "--scaling", '{"form":"inverse_power","p":2,"base":"n+1"}']


def _commands():
    """(directory name, argv without --out) in run order."""
    cmds = []
    for e, p in [(e, p) for e in (-1, 0, 1) for p in (-1, 0, 1)]:
        cmds.append((f"grid_tau_{e}_{p}", ["grid", "--grid", f"tau:{e},{p}", "--n", "7"]))
    cmds += [("grid_circulant", ["grid", "--grid", "circulant", "--n", "8"]),
             ("grid_open7", ["grid", "--grid", "uniform-open", "--n", "7"]),
             ("grid_open8", ["grid", "--grid", "uniform-open", "--n", "8"])]

    builds = [("toeplitz", ["--kind", "toeplitz", "--symbol", _IN + "ns4.json", "--n", "6"]),
              ("circulant", ["--kind", "circulant", "--symbol", _IN + "ns4.json", "--n", "6"]),
              ("multilevel", ["--kind", "multilevel", "--symbol", _IN + "lap2.json",
                              "--n", "3,4"]),
              ("tau", ["--kind", "tau", "--symbol", _IN + "f1.json", "--n", "6",
                       "--eps", "1", "--phi", "-0.5"]),
              ("rect_wide", ["--kind", "toeplitz-rect", "--symbol", _IN + "f1.json",
                             "--n", "4", "--m", "6"]),
              ("rect_tall", ["--kind", "toeplitz-rect", "--symbol", _IN + "f1.json",
                             "--n", "6", "--m", "4"]),
              ("blk2_toeplitz", ["--kind", "toeplitz", "--symbol", _IN + "blk2.json",
                                 "--n", "3"]),
              ("circulant_wrap7", ["--kind", "circulant", "--symbol", _IN + "wrap7.json",
                                   "--n", "4"]),
              # no --eps or --phi: both weights are 0 and named in the file
              ("tau_default", ["--kind", "tau", "--symbol", _IN + "f1.json", "--n", "6"])]
    for name, args in builds:
        for fmt in ("csv", "json"):
            cmds.append((f"build_{name}_{fmt}", ["build"] + args + ["--format", fmt]))

    spectra = [("hermitian_tau", ["--symbol", _IN + "f1.json", "--build-kind", "tau",
                                  "--phi", "1", "--n", "9", "--kind", "hermitian"]),
               ("hermitian_complex", ["--symbol", _IN + "herm_c.json", "--build-kind", "toeplitz",
                                      "--n", "9", "--kind", "hermitian"]),
               ("general_ns4", ["--symbol", _IN + "ns4.json", "--n", "9", "--kind", "general"]),
               ("singular_rect", ["--symbol", _IN + "f1.json", "--build-kind", "toeplitz-rect",
                                  "--n", "5", "--m", "8", "--kind", "singular"])]
    for name, args in spectra:
        for fmt in ("csv", "json"):
            cmds.append((f"spectrum_{name}_{fmt}", ["spectrum"] + args + ["--format", fmt]))
    cmds += [
        ("spectrum_wide", ["spectrum", "--symbol", _IN + "wide.json", "--n", "9",
                           "--kind", "hermitian"]),
        ("spectrum_multilevel", ["spectrum", "--symbol", _IN + "lap2.json",
                                 "--build-kind", "multilevel", "--n", "3,4", "--format", "json"]),
        ("spectrum_shift_circulant", ["spectrum", "--symbol", _IN + "shift.json",
                                      "--build-kind", "circulant", "--n", "8",
                                      "--kind", "general"]),
        ("spectrum_isin_toeplitz", ["spectrum", "--symbol", _IN + "isin.json", "--n", "7",
                                    "--kind", "general"]),
        ("spectrum_isin_circulant", ["spectrum", "--symbol", _IN + "isin.json",
                                     "--build-kind", "circulant", "--n", "8",
                                     "--kind", "general"]),
        ("spectrum_blk2_general", ["spectrum", "--symbol", _IN + "blk2.json", "--n", "4",
                                   "--kind", "general"]),
        ("spectrum_wrap7_circulant", ["spectrum", "--symbol", _IN + "wrap7.json",
                                      "--build-kind", "circulant", "--n", "4",
                                      "--kind", "general"]),
        ("spectrum_readback_csv", ["spectrum", "--matrix", _IN + "tau.csv"]),
        ("spectrum_readback_json", ["spectrum", "--matrix", _IN + "tau.json",
                                    "--kind", "singular"]),
    ]

    for grid in ("tau:0,1", "tau:0,0", "tau:1,1", "circulant", "uniform-open"):
        cmds.append((f"compare_{grid.replace(':', '_').replace(',', '_')}",
                     ["compare"] + _SCALED + ["--n", "9", "--grid", grid]))
    cmds += [
        ("compare_pinned", ["compare"] + _SCALED + ["--n", "9", "--grid", "tau:0,0",
                                                    "--exact-grid", "tau:0,1"]),
        ("compare_wide", ["compare", "--symbol", _IN + "wide.json", "--n", "9",
                          "--grid", "uniform-open"]),
        ("compare_isin_circulant", ["compare", "--symbol", _IN + "isin.json", "--n", "8",
                                    "--grid", "circulant"]),
        ("compare_isin_open", ["compare", "--symbol", _IN + "isin.json", "--n", "7",
                               "--grid", "uniform-open"]),
        ("compare_shift_circulant", ["compare", "--symbol", _IN + "shift.json", "--n", "8",
                                     "--grid", "circulant"]),
    ]

    for bc in ("dirichlet_neumann", "dirichlet", "periodic"):
        cmds.append((f"example1_{bc}", ["example", "1", "--n", "15", "--bc", bc]))
    cmds += [("example2_n12", ["example", "2", "--n", "12"]),
             ("example2_n40", ["example", "2", "--n", "40"]),
             ("example3_N4_n8", ["example", "3", "--N", "4", "--n", "8"]),
             ("example4_n15", ["example", "4", "--n", "15"]),
             ("example4_n31", ["example", "4", "--n", "31"])]
    for big_n in (4, 8, 16, 24):
        cmds.append((f"example3_N{big_n}_n33", ["example", "3", "--N", str(big_n), "--n", "33"]))
    cmds = [(name, argv + ["--format", "both"]) if argv[0] == "example" else (name, argv)
            for name, argv in cmds]

    bad = [
        ("nan_symbol", ["spectrum", "--symbol", _IN + "nan.json", "--build-kind", "tau",
                        "--n", "5"]),
        ("shape_symbol", ["build", "--kind", "toeplitz", "--symbol", _IN + "shape.json",
                          "--n", "3"]),
        ("arity_symbol", ["build", "--kind", "toeplitz", "--symbol", _IN + "arity.json",
                          "--n", "3"]),
        ("d0_symbol", ["build", "--kind", "toeplitz", "--symbol", _IN + "d0.json", "--n", "3"]),
        ("s0r0_symbol", ["build", "--kind", "toeplitz", "--symbol", _IN + "s0r0.json",
                         "--n", "3"]),
        ("nan_csv_hermitian", ["spectrum", "--matrix", _IN + "nan.csv"]),
        ("nan_csv_singular", ["spectrum", "--matrix", _IN + "nan.csv", "--kind", "singular"]),
        ("inf_json_general", ["spectrum", "--matrix", _IN + "inf.json", "--kind", "general"]),
        ("missing_symbol_file", ["build", "--kind", "toeplitz", "--symbol",
                                 _IN + "absent.json", "--n", "3"]),
        ("wide_to_tau", ["build", "--kind", "tau", "--symbol", _IN + "wide.json", "--n", "5"]),
        ("grid_tau_2_0", ["grid", "--grid", "tau:2,0", "--n", "5"]),
        ("grid_unknown", ["grid", "--grid", "wobble", "--n", "5"]),
        ("grid_custom", ["grid", "--grid", "custom", "--n", "5"]),
        ("grid_two_sizes", ["grid", "--grid", "circulant", "--n", "4,5"]),
        ("biv_toeplitz", ["build", "--kind", "toeplitz", "--symbol", _IN + "biv.json",
                          "--n", "3"]),
        ("biv_circulant", ["build", "--kind", "circulant", "--symbol", _IN + "biv.json",
                           "--n", "3"]),
        ("biv_rect", ["build", "--kind", "toeplitz-rect", "--symbol", _IN + "biv.json",
                      "--n", "3", "--m", "2"]),
        ("lap2_multilevel_arity", ["build", "--kind", "multilevel", "--symbol",
                                   _IN + "lap2.json", "--n", "3"]),
        ("nonsym_tau", ["build", "--kind", "tau", "--symbol", _IN + "nonsym_tri.json",
                        "--n", "5"]),
        ("tau_weight_range", ["build", "--kind", "tau", "--symbol", _IN + "f1.json",
                              "--n", "5", "--phi", "2"]),
        ("nonhermitian_spectrum", ["spectrum", "--symbol", _IN + "ns4.json", "--n", "5"]),
        ("sizes_circulant", ["build", "--kind", "circulant", "--symbol", _IN + "f1.json",
                             "--n", "3,4"]),
        ("sizes_tau", ["build", "--kind", "tau", "--symbol", _IN + "f1.json", "--n", "3,4"]),
        ("sizes_toeplitz", ["build", "--kind", "toeplitz", "--symbol", _IN + "f1.json",
                            "--n", "3,4"]),
        ("size_negative", ["grid", "--grid", "circulant", "--n", "-2"]),
        ("rect_without_m", ["build", "--kind", "toeplitz-rect", "--symbol", _IN + "f1.json",
                            "--n", "4"]),
        ("build_toeplitz_with_m", ["build", "--kind", "toeplitz", "--symbol", _IN + "f1.json",
                                   "--n", "4", "--m", "9"]),
        ("spectrum_symbol_without_n", ["spectrum", "--symbol", _IN + "f1.json"]),
        ("rect23_toeplitz", ["build", "--kind", "toeplitz", "--symbol", _IN + "rect23.json",
                             "--n", "3"]),
        ("rect23_multilevel", ["build", "--kind", "multilevel", "--symbol",
                               _IN + "rect23.json", "--n", "3"]),
        ("general_too_large", ["spectrum", "--symbol", _IN + "f1.json", "--n", "65",
                               "--kind", "general"]),
        ("example3_without_N", ["example", "3", "--n", "8"]),
        ("example3_bad_n", ["example", "3", "--N", "4", "--n", "x"]),
        ("example1_n1", ["example", "1", "--n", "1"]),
        ("example2_two_sizes", ["example", "2", "--n", "5,9"]),
        ("example3_two_N", ["example", "3", "--N", "4,6", "--n", "8"]),
        ("compare_two_sizes", ["compare"] + _SCALED + ["--n", "4,5", "--grid", "tau:0,0"]),
        ("biv_compare", ["compare", "--symbol", _IN + "biv.json", "--n", "5",
                         "--grid", "tau:0,0"]),
        ("table_missing_size", ["compare", "--symbol", _IN + "f1.json", "--symbol",
                                _IN + "one.json", "--scaling", '{"form":"one"}',
                                "--scaling", _IN + "table_missing.json", "--n", "7",
                                "--grid", "tau:0,0"]),
        ("ratio_one_index", ["compare", "--symbol", _IN + "f1.json", "--scaling",
                             '{"form":"ratio_N_over_n2"}', "--n", "7", "--grid", "tau:0,0"]),
        ("scaling_bad_json", ["compare", "--symbol", _IN + "f1.json", "--scaling", "{nope",
                              "--n", "7", "--grid", "tau:0,0"]),
        ("oversized_build", ["build", "--kind", "toeplitz", "--symbol", _IN + "f1.json",
                             "--n", "10000000"]),
        ("oversized_example", ["example", "1", "--n", "10000000"]),
    ]
    for grid in ("tau:0,0", "circulant", "uniform-open"):
        bad.append((f"blk2_compare_{grid.replace(':', '_').replace(',', '_')}",
                    ["compare", "--symbol", _IN + "blk2.json", "--n", "5", "--grid", grid]))
    for name, text in BAD_SCALINGS:
        bad.append((f"scaling_{name}", ["compare", "--symbol", _IN + "f1.json", "--scaling", text,
                                        "--n", "7", "--grid", "tau:0,0"]))
    for name, text in OVERFLOW_SCALINGS:
        bad.append((f"scaling_overflow_{name}", ["compare", "--symbol", _IN + "f1.json",
                                                 "--scaling", text, "--n", "7",
                                                 "--grid", "tau:0,0"]))
    for name, _ in BAD_MATRIX_HEADERS:
        bad.append((f"matrix_header_{name}", ["spectrum", "--matrix",
                                              _IN + f"header_{name}.json"]))
    bad += [("overflow_matrix", ["spectrum", "--matrix", _IN + "overflow_matrix.json"]),
            ("overflow_symbol", ["build", "--kind", "toeplitz", "--symbol",
                                 _IN + "overflow_symbol.json", "--n", "3"])]
    for name, flag in MATRIX_BUILD_FLAGS:
        bad.append((f"spectrum_matrix_with_{name}", ["spectrum", "--matrix", _IN + "tau.csv"]
                    + flag))
    bad += [
        ("build_toeplitz_with_eps", ["build", "--kind", "toeplitz", "--symbol", _IN + "f1.json",
                                     "--n", "4", "--eps", "1"]),
        ("build_circulant_with_phi", ["build", "--kind", "circulant", "--symbol",
                                      _IN + "f1.json", "--n", "4", "--phi", "0"]),
        ("spectrum_toeplitz_with_eps", ["spectrum", "--symbol", _IN + "f1.json", "--n", "4",
                                        "--eps", "1"]),
        ("spectrum_rect_with_phi", ["spectrum", "--symbol", _IN + "f1.json", "--build-kind",
                                    "toeplitz-rect", "--n", "4", "--m", "6", "--phi", "1",
                                    "--kind", "singular"]),
    ]
    bad += [
        ("matrix_entry_count", ["spectrum", "--matrix", _IN + "entry_count.json"]),
        ("grid_tau_0_x", ["grid", "--grid", "tau:0,x", "--n", "5"]),
        ("example3_oversized", ["example", "3", "--N", "100000", "--n", "33"]),
        ("example2_with_N", ["example", "2", "--n", "5", "--N", "4"]),
        ("example4_with_bc", ["example", "4", "--n", "5", "--bc", "periodic"]),
    ]
    for name, _ in BAD_SYMBOLS:
        bad.append((f"{name}_symbol", ["build", "--kind", "toeplitz", "--symbol",
                                       _IN + f"symbol_{name}.json", "--n", "3"]))
    bad += [
        ("tau_eps_nan", ["build", "--kind", "tau", "--symbol", _IN + "f1.json", "--n", "4",
                         "--eps", "nan"]),
        # the general eigensolve is capped at order 64: n <= 64 for example 2, and
        # 2(n - 1) <= 64, so n <= 33, for example 3
        ("example2_n65", ["example", "2", "--n", "65"]),
        ("example3_n34", ["example", "3", "--N", "4", "--n", "34"]),
    ]
    return cmds + [("bad_" + name, argv) for name, argv in bad]


def write_inputs(directory):
    os.makedirs(directory, exist_ok=True)
    for name, coeffs in _SYMBOLS.items():
        with open(os.path.join(directory, name + ".json"), "w") as fh:
            json.dump(LaurentSymbol(coeffs).to_json(), fh, sort_keys=True)
    for name, text in _RAW.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)
    a = tau_matrix(LaurentSymbol(_SYMBOLS["f1"]), 1, -0.5, 6)
    write_matrix_csv(a, os.path.join(directory, "tau.csv"))
    write_matrix_json(a, os.path.join(directory, "tau.json"))


def _run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, *_):
        # without the source path and line, which differ between checkouts
        err.write(f"{category.__name__}: {message}\n")

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
        except Exception as exc:  # an uncaught error is exit 1, as from the shell
            err.write(f"uncaught {type(exc).__name__}: {exc}\n")
            code = 1
    return code, out.getvalue(), err.getvalue()


def run(out_dir):
    """Run the whole set into out_dir; returns {name: exit code}."""
    out_dir = os.path.abspath(out_dir)
    write_inputs(os.path.join(out_dir, "inputs"))
    cwd = os.getcwd()
    codes = {}
    try:
        for name, argv in _commands():
            cmd_dir = os.path.join(out_dir, name)
            os.makedirs(cmd_dir)
            os.chdir(cmd_dir)
            argv = argv + ["--out", "."]
            code, stdout, stderr = _run(argv)
            for fname, text in (("_argv.txt", " ".join(argv) + "\n"), ("_stdout.txt", stdout),
                                ("_stderr.txt", stderr), ("_exit.txt", f"{code}\n")):
                with open(fname, "w") as fh:
                    fh.write(text)
            codes[name] = code
    finally:
        os.chdir(cwd)
    return codes


def header():
    """The manifest's header lines: the numpy and BLAS build the digests hold for."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 has no dict form
        blas = {}
    return ["# sha256 of every file that tests/cli_command_set.py writes",
            f"# numpy {np.__version__}",
            f"# blas {blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration')})"]


def digests(out_dir):
    """{relative path: sha256 hex digest} of every file under out_dir."""
    found = {}
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return found


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tests/cli_command_set.py OUT > MANIFEST")
    run(sys.argv[1])
    print("\n".join(header()))
    for path, digest in sorted(digests(sys.argv[1]).items()):
        print(f"{digest}  {path}")
