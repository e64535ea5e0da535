"""Command-line front end.

Subcommands: `grid` exports sampling grids, `build` constructs matrices
from symbol JSON files, `spectrum` computes eigen- or singular values,
`compare` measures symbol samplings against an exact spectrum, and
`example` runs the four built-in scenarios.

Exit codes: 0 success, 2 malformed input or an input or output path that
cannot be opened, 3 shape or argument errors or a build too large for
memory, 4 numeric failures, 5 a scenario claim flag failed.  Outputs are
written atomically and deterministically, so reruns are byte-identical.
"""

import argparse
import os
import re
import sys

from ._io import atomic_write_text, fmt_real
from .analysis import _reports
from .errors import NumericError, ParseError
from .examples import run_example
from .grids import GridSpec
from .matrices import (circulant, multilevel_toeplitz, read_matrix_csv,
                       read_matrix_json, tau_matrix, toeplitz, toeplitz_rect,
                       write_matrix_csv, write_matrix_json)
from .spectra import eig_general_small, eig_hermitian, singular_values
from .symbols import CoefficientScaling, MomentarySymbol, load_symbol, parse_scaling

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ARGUMENT = 3
EXIT_NUMERIC = 4
EXIT_CLAIM_FAILED = 5

BUILD_KINDS = ("toeplitz", "multilevel", "circulant", "tau", "toeplitz-rect")


def _parse_sizes(text):
    try:
        sizes = tuple(int(v) for v in str(text).split(","))
    except ValueError as exc:
        raise ValueError(f"bad size list {text!r}: {exc}") from exc
    if not sizes or any(v <= 0 for v in sizes):
        raise ValueError(f"sizes must be positive integers, got {text!r}")
    return sizes


def _one_size(flag, text):
    sizes = _parse_sizes(text)
    if len(sizes) != 1:
        raise ValueError(f"{flag} takes one size, got {text!r}")
    return sizes[0]


def _safe(name):
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def _out_dir(args):
    """--out, created here so that a command refused before its first artifact leaves none."""
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    return args.out


def _write(path, text):
    atomic_write_text(path, text)
    print(path)


def _load_momentary(symbol_paths, scaling_specs):
    if not symbol_paths:
        raise ValueError("need at least one --symbol")
    scalings = [parse_scaling(s) for s in (scaling_specs or [])]
    if len(scalings) > len(symbol_paths):
        raise ValueError("more --scaling entries than --symbol entries")
    terms = []
    for i, path in enumerate(symbol_paths):
        g = scalings[i] if i < len(scalings) else CoefficientScaling.one()
        terms.append((g, load_symbol(path)))
    return MomentarySymbol(terms)


def cmd_grid(args):
    spec = GridSpec.parse(args.grid)
    n = _one_size("--n", args.n)
    angles = spec.angles(n)
    text = "\n".join(fmt_real(v) for v in angles) + "\n"
    path = os.path.join(_out_dir(args), f"grid_{_safe(spec.name())}_n{n}.csv")
    _write(path, text)
    return EXIT_OK


# each flag that one build kind or scenario alone reads, and that reader; every
# other kind refuses the flag
_OWNERS = {"eps": "tau", "phi": "tau", "m": "toeplitz-rect", "N": "example 3",
           "bc": "example 1"}


def _refuse_unowned(args, kind):
    for flag, owner in _OWNERS.items():
        if getattr(args, flag, None) is not None and owner != kind:
            raise ValueError(f"--{flag} applies only to {owner}, not {kind}")


def _symbol_matrix(args, kind):
    """The --symbol matrix of this kind, sized by --n and --m, and its file-name tag."""
    sym = load_symbol(args.symbol)
    if args.n is None:
        raise ValueError("--symbol needs --n")
    sizes = _parse_sizes(args.n)
    m_sizes = None if args.m is None else _parse_sizes(args.m)
    _refuse_unowned(args, kind)
    tag = "x".join(str(v) for v in sizes)
    if kind == "multilevel":
        return multilevel_toeplitz(sym, sizes), tag
    if kind == "toeplitz-rect":
        if m_sizes is None or len(sizes) != 1 or len(m_sizes) != 1:
            raise ValueError("toeplitz-rect needs --n and --m, one size each")
        return toeplitz_rect(sym, sizes[0], m_sizes[0]), f"{tag}_m{m_sizes[0]}"
    if len(sizes) != 1:
        raise ValueError(f"{kind} takes a single size")
    if kind == "tau":
        eps, phi = (0.0 if w is None else w for w in (args.eps, args.phi))
        return tau_matrix(sym, eps, phi, sizes[0]), f"{tag}_eps{eps:g}_phi{phi:g}"
    return {"toeplitz": toeplitz, "circulant": circulant}[kind](sym, sizes[0]), tag


def cmd_build(args):
    a, tag = _symbol_matrix(args, args.kind)
    path = os.path.join(_out_dir(args), f"{args.kind}_n{_safe(tag)}.{args.format}")
    (write_matrix_csv if args.format == "csv" else write_matrix_json)(a, path)
    print(path)
    return EXIT_OK


def cmd_spectrum(args):
    if args.matrix:
        for flag in ("symbol", "n", "m", "build_kind", "eps", "phi"):
            if getattr(args, flag) is not None:
                raise ValueError(f"spectrum --matrix takes no --{flag.replace('_', '-')}")
        read = read_matrix_json if args.matrix.endswith(".json") else read_matrix_csv
        a = read(args.matrix)
    elif args.symbol:
        a, _ = _symbol_matrix(args, args.build_kind or "toeplitz")
    else:
        raise ValueError("need --matrix or --symbol")
    spec = {"hermitian": eig_hermitian, "singular": singular_values,
            "general": eig_general_small}[args.kind](a)
    path = os.path.join(_out_dir(args), f"spectrum_{args.kind}.{args.format}")
    _write(path, spec.to_csv_text() if args.format == "csv" else spec.to_json_text())
    return EXIT_OK


def cmd_compare(args):
    mom = _load_momentary(args.symbol, args.scaling)
    if mom.d != 1:
        raise ValueError("compare handles univariate symbols")
    n = _one_size("--n", args.n)
    grid = GridSpec.parse(args.grid)
    # the exact matrix lives in the algebra of --exact-grid (default: the
    # sampling grid itself, so errors isolate what the symbol discards);
    # pin --exact-grid and vary --grid to expose grid-mismatch error instead
    exact_grid = GridSpec.parse(args.exact_grid) if args.exact_grid else grid
    exact = exact_grid.exact_spectrum(mom.fixed_size(n), n)
    written = []
    for report in _reports(exact, grid, n, momentary=mom, glt=mom.glt_symbol()):
        base = os.path.join(_out_dir(args), f"compare_{report.symbol_kind}")
        report.write_csv(base + ".csv")
        report.write_json(base + ".json")
        written += [base + ".csv", base + ".json"]
        print(f"{report.symbol_kind}: max_error={report.max_error:.6e}")
    for path in written:
        print(path)
    return EXIT_OK


def cmd_example(args):
    _refuse_unowned(args, f"example {args.id}")
    if args.id == "3" and args.N is None:
        raise ValueError("example 3 needs --N")
    params = {"n": _one_size("--n", args.n)}
    if args.N is not None:
        params["N"] = _one_size("--N", args.N)
    if args.bc is not None:
        params["bc"] = args.bc
    rep = run_example(args.id, **params)
    for path in rep.write_artifacts(_out_dir(args), fmt=args.format):
        print(path)
    if not rep.passed:
        for name in rep.failed_flags():
            print(f"FAILED claim: {name}", file=sys.stderr)
        return EXIT_CLAIM_FAILED
    print(f"example {args.id}: all {len(rep.flags)} claim flags passed")
    return EXIT_OK


def _add_out(p, formats=("csv", "json"), default="csv"):
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=formats, default=default)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="momsym",
        description="Structured matrices from generating functions, exact "
                    "algebra grids, and symbol-vs-spectrum comparisons.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grid", help="export a sampling grid as one-column CSV")
    g.add_argument("--grid", required=True, help='e.g. "tau:0,1", "circulant", "uniform-open"')
    g.add_argument("--n", required=True)
    g.add_argument("--out", default=".")
    g.set_defaults(func=cmd_grid)

    b = sub.add_parser("build", help="construct a matrix from a symbol JSON file")
    b.add_argument("--kind", required=True, choices=BUILD_KINDS)
    b.add_argument("--symbol", required=True)
    b.add_argument("--n", required=True, help="size, or comma list for multilevel")
    b.add_argument("--m", help="column sizes for toeplitz-rect")
    b.add_argument("--eps", type=float, help="tau corner weight at (1,1), default 0")
    b.add_argument("--phi", type=float, help="tau corner weight at (n,n), default 0")
    _add_out(b)
    b.set_defaults(func=cmd_build)

    s = sub.add_parser("spectrum", help="eigen/singular values of a matrix")
    s.add_argument("--matrix", help="matrix file (.csv or .json)")
    s.add_argument("--symbol", help="build the matrix from this symbol instead")
    s.add_argument("--build-kind", choices=BUILD_KINDS, help="default toeplitz")
    s.add_argument("--n")
    s.add_argument("--m")
    s.add_argument("--eps", type=float, help="tau corner weight at (1,1), default 0")
    s.add_argument("--phi", type=float, help="tau corner weight at (n,n), default 0")
    s.add_argument("--kind", choices=["hermitian", "singular", "general"], default="hermitian")
    _add_out(s)
    s.set_defaults(func=cmd_spectrum)

    c = sub.add_parser("compare", help="exact spectrum vs glt and momentary samples")
    c.add_argument("--symbol", action="append", required=True,
                   help="symbol JSON; repeat for extra size-scaled terms")
    c.add_argument("--scaling", action="append",
                   help="inline JSON or file, one per --symbol (default: constant 1)")
    c.add_argument("--n", required=True)
    c.add_argument("--grid", required=True)
    c.add_argument("--exact-grid", dest="exact_grid",
                   help="algebra for the exact matrix (default: --grid)")
    c.add_argument("--out", default=".")
    c.set_defaults(func=cmd_compare)

    e = sub.add_parser("example", help="run a built-in scenario")
    e.add_argument("id", choices=["1", "2", "3", "4"])
    e.add_argument("--n", required=True)
    e.add_argument("--N", help="time-step count for example 3")
    e.add_argument("--bc", choices=["dirichlet_neumann", "dirichlet", "periodic"],
                   help="boundary condition for example 1, default dirichlet_neumann")
    _add_out(e, formats=("json", "csv", "both"), default="json")
    e.set_defaults(func=cmd_example)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error (parse): {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, MemoryError) as exc:
        print(f"error (argument): {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    except NumericError as exc:
        print(f"error (numeric): {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
