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
    path = os.path.join(args.out, f"grid_{_safe(spec.name())}_n{n}.csv")
    _write(path, text)
    return EXIT_OK


def _corner_weights(kind, eps, phi):
    """--eps and --phi of a tau build, 0 when not given; any other kind refuses them."""
    if kind == "tau":
        return tuple(0.0 if w is None else w for w in (eps, phi))
    for flag, value in (("--eps", eps), ("--phi", phi)):
        if value is not None:
            raise ValueError(f"{flag} applies only to tau, not {kind}")
    return None, None


def _build_matrix(kind, sym, sizes, eps, phi, m_sizes=None):
    if kind == "toeplitz-rect":
        if m_sizes is None or len(sizes) != 1 or len(m_sizes) != 1:
            raise ValueError("toeplitz-rect needs --n and --m, one size each")
        return toeplitz_rect(sym, sizes[0], m_sizes[0])
    if m_sizes is not None:
        raise ValueError(f"--m applies only to toeplitz-rect, not {kind}")
    if kind == "multilevel":
        return multilevel_toeplitz(sym, sizes)
    single = {"toeplitz": toeplitz, "circulant": circulant,
              "tau": lambda f, n: tau_matrix(f, eps, phi, n)}
    if len(sizes) != 1:
        raise ValueError(f"{kind} takes a single size")
    return single[kind](sym, sizes[0])


def cmd_build(args):
    sym = load_symbol(args.symbol)
    sizes = _parse_sizes(args.n)
    m_sizes = _parse_sizes(args.m) if args.m else None
    eps, phi = _corner_weights(args.kind, args.eps, args.phi)
    a = _build_matrix(args.kind, sym, sizes, eps, phi, m_sizes)
    tag = "x".join(str(v) for v in sizes)
    if m_sizes:
        tag += "_m" + "x".join(str(v) for v in m_sizes)
    if args.kind == "tau":
        tag += f"_eps{eps:g}_phi{phi:g}"
    path = os.path.join(args.out, f"{args.kind}_n{_safe(tag)}.{args.format}")
    if args.format == "csv":
        write_matrix_csv(a, path)
    else:
        write_matrix_json(a, path)
    print(path)
    return EXIT_OK


def _load_matrix(path):
    if path.endswith(".json"):
        return read_matrix_json(path)
    return read_matrix_csv(path)


def cmd_spectrum(args):
    if args.matrix:
        for flag, value in (("--symbol", args.symbol), ("--n", args.n), ("--m", args.m),
                            ("--build-kind", args.build_kind), ("--eps", args.eps),
                            ("--phi", args.phi)):
            if value is not None:
                raise ValueError(f"spectrum --matrix takes no {flag}")
        a = _load_matrix(args.matrix)
    elif args.symbol:
        sym = load_symbol(args.symbol)
        if args.n is None:
            raise ValueError("--symbol needs --n")
        sizes = _parse_sizes(args.n)
        m_sizes = _parse_sizes(args.m) if args.m else None
        kind = args.build_kind or "toeplitz"
        eps, phi = _corner_weights(kind, args.eps, args.phi)
        a = _build_matrix(kind, sym, sizes, eps, phi, m_sizes)
    else:
        raise ValueError("need --matrix or --symbol")
    if args.kind == "hermitian":
        spec = eig_hermitian(a)
    elif args.kind == "singular":
        spec = singular_values(a)
    else:
        spec = eig_general_small(a)
    path = os.path.join(args.out, f"spectrum_{args.kind}.{args.format}")
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
        base = os.path.join(args.out, f"compare_{report.symbol_kind}")
        report.write_csv(base + ".csv")
        report.write_json(base + ".json")
        written += [base + ".csv", base + ".json"]
        print(f"{report.symbol_kind}: max_error={report.max_error:.6e}")
    for path in written:
        print(path)
    return EXIT_OK


def cmd_example(args):
    if args.id == "3" and args.N is None:
        raise ValueError("example 3 needs --N")
    params = {"n": _one_size("--n", args.n)}
    if args.id == "1":
        params["bc"] = args.bc
    elif args.id == "3":
        params["N"] = _one_size("--N", args.N)
    rep = run_example(args.id, **params)
    for path in rep.write_artifacts(args.out, fmt=args.format):
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
    s.add_argument("--kind", choices=["hermitian", "singular", "general"],
                   default="hermitian")
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
    e.add_argument("--bc", default="dirichlet_neumann",
                   choices=["dirichlet_neumann", "dirichlet", "periodic"])
    _add_out(e, formats=("json", "csv", "both"), default="json")
    e.set_defaults(func=cmd_example)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None):
            os.makedirs(args.out, exist_ok=True)
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
