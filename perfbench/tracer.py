"""Per-layer spans for momsym, recorded from outside the package.

`Tracer.install()` wraps the public functions and public methods of each
layer module (`momsym.symbols`, `matrices`, `grids`, `spectra`, `analysis`,
`examples`, `cli` and `_io`) and rebinds every wrapper wherever the original
function object appears in a `momsym.*` module dict, so calls made through
another module's import (for example `momsym.examples.eig_hermitian`) are
seen too.  Nothing under `src/` is changed.

Each span records name, layer, start, end, parent span and op id; spans stay
in memory and are written as JSON lines by `write_jsonl` when the run ends.
Counts taken from arguments and results ("probes") run after the span has
closed, and their time is subtracted from the enclosing span's self time.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("symbols", "matrices", "grids", "spectra", "analysis", "examples", "cli", "_io")

# `_io.fmt_real` and `_io.fmt_complex` run once per matrix entry; wrapping them
# multiplies the span count by about a million and swamps the measurement.
IO_WRAPPED = {"atomic_write_text"}
# Dunder methods are left alone except the symbol algebra's `+` and `*`.
WRAPPED_DUNDERS = {"__add__", "__mul__"}

ALGEBRA = {"__add__", "__mul__", "fixed_size", "glt_symbol", "hermitian"}
BUILDERS = {"toeplitz", "multilevel_toeplitz", "circulant", "tau_matrix", "shift_matrix",
            "identity_rect", "toeplitz_rect", "multilevel_toeplitz_rect", "kron"}
MATRIX_WRITERS = {"write_matrix_csv", "write_matrix_json"}
MATRIX_READERS = {"read_matrix_csv", "read_matrix_json"}
GRID_GENERATORS = {"tau_eigen_grid", "circulant_grid", "uniform_open_grid"}

# span fields
_ID, _PARENT, _OP, _NAME, _LAYER, _T0, _T1, _ERR, _PROBE = range(9)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Span recorder plus the exact counters named in the per-layer metrics."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.active = False  # spans are recorded only while an op is being timed
        self.counts = Counter()
        self.top_probe_s = 0.0
        self.origin = time.perf_counter()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer, qualname):
        tracer = self
        name = f"{layer}.{qualname}"
        probe = self._probe_for(layer, qualname)
        counts_callable = name == "symbols.fourier_coefficients"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counts_callable:
                args, kwargs = tracer._count_callable(args, kwargs)
            stack = tracer.stack
            span = [len(tracer.spans), stack[-1][_ID] if stack else None, tracer.op,
                    name, layer, 0.0, 0.0, 0, 0.0]
            tracer.spans.append(span)
            stack.append(span)
            span[_T0] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[_ERR] = 1
                raise
            finally:
                span[_T1] = time.perf_counter()
                stack.pop()
            if probe is not None:
                t = time.perf_counter()
                probe(args, kwargs, result)
                dt = time.perf_counter() - t
                if stack:
                    stack[-1][_PROBE] += dt
                else:
                    tracer.top_probe_s += dt
            return result

        return wrapper

    def _count_callable(self, args, kwargs):
        counts = self.counts
        f = _arg(args, kwargs, 0, "f_callable")

        def counted(theta):
            counts["callable_calls"] += 1
            return f(theta)

        if "f_callable" in kwargs:
            return args, dict(kwargs, f_callable=counted)
        return (counted,) + tuple(args[1:]), kwargs

    def _probe_for(self, layer, qualname):
        c = self.counts
        if layer == "spectra" and qualname == "eig_hermitian":
            def probe(args, kwargs, result):
                a = np.asarray(_arg(args, kwargs, 0, "a"))
                n = int(a.shape[0])
                c["eig_order_max"] = max(c["eig_order_max"], n)
                c["eig_order3_sum"] += n ** 3
                c["eig_real_input"] += int(not np.iscomplexobj(a) or not a.imag.any())
                band = sum(np.count_nonzero(np.diagonal(a, k)) for k in (-1, 0, 1))
                c["eig_tridiagonal"] += int(np.count_nonzero(a) == band)
            return probe
        if layer == "matrices" and qualname in BUILDERS:
            def probe(args, kwargs, result):
                c["build_bytes"] += int(result.nbytes)
                c["build_real_valued"] += int(not np.iscomplexobj(result) or not result.imag.any())
            return probe
        if layer == "matrices" and qualname in MATRIX_WRITERS:
            def probe(args, kwargs, result):
                c["matrix_bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
            return probe
        if layer == "matrices" and qualname in MATRIX_READERS:
            def probe(args, kwargs, result):
                c["matrix_bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
            return probe
        if layer == "_io" and qualname == "atomic_write_text":
            def probe(args, kwargs, result):
                c["io_files_written"] += 1
                c["io_bytes_written"] += len(_arg(args, kwargs, 1, "text").encode())
            return probe
        if layer == "analysis" and qualname == "sample_spectrum_approx":
            def probe(args, kwargs, result):
                c["ssa_points"] += int(np.prod(np.atleast_1d(_arg(args, kwargs, 2, "size"))))
            return probe
        if layer == "symbols" and qualname == "LaurentSymbol.sample":
            def probe(args, kwargs, result):
                c["sample_points"] += int(result.shape[0])
            return probe
        if layer == "grids" and qualname in GRID_GENERATORS:
            def probe(args, kwargs, result):
                c["grid_points"] += int(len(result))
            return probe
        return None

    def install(self):
        """Wrap every layer's public callables and rebind them across momsym."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"momsym.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if layer == "_io" and attr not in IO_WRAPPED:
                        continue
                    replaced[obj] = self._wrap(obj, layer, attr)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "momsym" and not modname.startswith("momsym."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_class(self, cls, layer):
        for mname, raw in list(vars(cls).items()):
            if mname.startswith("_") and mname not in WRAPPED_DUNDERS:
                continue
            qualname = f"{cls.__name__}.{mname}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, mname, type(raw)(self._wrap(raw.__func__, layer, qualname)))
            elif inspect.isfunction(raw):
                setattr(cls, mname, self._wrap(raw, layer, qualname))

    # -- results ----------------------------------------------------------

    def summary(self, wall_s, passes):
        """Per-layer metrics of the traced ops, per traced pass.

        wall_s is the timed wall time of the traced ops over `passes` whole
        passes.  Counts and times are divided by `passes`, so a count repeats
        exactly from run to run whatever the number of passes; ratios and
        `order_max` are not divided.
        """
        spans = self.spans
        covered = defaultdict(float)
        for s in spans:
            if s[_PARENT] is not None:
                covered[s[_PARENT]] += s[_T1] - s[_T0]
        self_by_name = defaultdict(float)
        layer_self = defaultdict(float)
        layer_calls = Counter()
        layer_errors = Counter()
        top_s = 0.0
        small_eig_per_point = 0
        for s in spans:
            dur = s[_T1] - s[_T0]
            own = dur - covered[s[_ID]] - s[_PROBE]
            self_by_name[s[_NAME]] += own
            layer_self[s[_LAYER]] += own
            layer_calls[s[_LAYER]] += 1
            layer_errors[s[_LAYER]] += s[_ERR]
            if s[_PARENT] is None:
                top_s += dur
            elif (s[_NAME] == "spectra.eig_general_small"
                  and spans[s[_PARENT]][_NAME] == "analysis.sample_spectrum_approx"):
                small_eig_per_point += 1
        name_calls = Counter(s[_NAME] for s in spans)

        def share(seconds):
            return seconds / wall_s if wall_s > 0 else 0.0

        def self_of(layer, qualnames):
            return sum(self_by_name[f"{layer}.{q}"] for q in qualnames)

        def incl_of(layer, qualnames):
            wanted = {f"{layer}.{q}" for q in qualnames}
            return sum(s[_T1] - s[_T0] for s in spans if s[_NAME] in wanted)

        c = self.counts
        eig_calls = name_calls["spectra.eig_hermitian"]
        build_calls = sum(name_calls[f"matrices.{q}"] for q in BUILDERS)
        algebra = [f"{cls}.{m}" for cls in ("LaurentSymbol", "MomentarySymbol") for m in ALGEBRA]
        seconds = {
            "spectra.eig_hermitian.self_s": self_by_name["spectra.eig_hermitian"],
            "spectra.eig_general_small.self_s": self_by_name["spectra.eig_general_small"],
            "spectra.distribution_test.self_s": self_by_name["spectra.distribution_test"],
            "matrices.build.self_s": self_of("matrices", BUILDERS),
            "matrices.io.write_s": incl_of("matrices", MATRIX_WRITERS),
            "matrices.io.read_s": incl_of("matrices", MATRIX_READERS),
            "analysis.sample_spectrum_approx.self_s": self_by_name["analysis.sample_spectrum_approx"],
            "analysis.compare.self_s": self_by_name["analysis.compare"],
            "symbols.fourier_coefficients.self_s": self_by_name["symbols.fourier_coefficients"],
            "symbols.algebra.self_s": self_of("symbols", algebra),
        }
        out = {}
        for layer in LAYERS:
            p = layer.lstrip("_")  # metric names must start with a letter: `_io` -> `io`
            out[f"{p}.self_s"] = layer_self[layer]
            out[f"{p}.calls"] = layer_calls[layer]
            out[f"{p}.errors"] = layer_errors[layer]
            out[f"{p}.share"] = share(layer_self[layer])
        out.update(seconds)
        # `X.self_s` -> `X.self_share`, `matrices.io.write_s` -> `matrices.io.write_share`
        out.update({key[:-2] + "_share": share(value) for key, value in seconds.items()})
        out.update({
            "spectra.eig_hermitian.calls": eig_calls,
            "spectra.eig_hermitian.order_max": c["eig_order_max"],
            "spectra.eig_hermitian.order3_sum": c["eig_order3_sum"],
            "spectra.eig_hermitian.real_input_frac": c["eig_real_input"] / eig_calls if eig_calls else 0.0,
            "spectra.eig_hermitian.tridiagonal_frac": c["eig_tridiagonal"] / eig_calls if eig_calls else 0.0,
            "spectra.eig_general_small.calls": name_calls["spectra.eig_general_small"],
            "matrices.build.calls": build_calls,
            "matrices.build.bytes_computed": c["build_bytes"],
            "matrices.build.real_valued_frac": c["build_real_valued"] / build_calls if build_calls else 0.0,
            "matrices.io.bytes_written": c["matrix_bytes_written"],
            "matrices.io.bytes_read": c["matrix_bytes_read"],
            "io.bytes_written": c["io_bytes_written"],
            "io.files_written": c["io_files_written"],
            "analysis.sample_spectrum_approx.points": c["ssa_points"],
            "analysis.small_eig_per_point": small_eig_per_point,
            "symbols.fourier_coefficients.callable_calls": c["callable_calls"],
            "symbols.sample.points": c["sample_points"],
            "grids.points": c["grid_points"],
            "trace.spans": len(spans),
            "trace.wall_s": wall_s,
            "trace.uncovered_s": wall_s - top_s - self.top_probe_s,
        })
        for key, value in out.items():
            if not key.endswith(("share", "_frac", "order_max")):
                out[key] = value / passes
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[_ID], "parent": s[_PARENT], "op": s[_OP], "name": s[_NAME],
                    "layer": s[_LAYER], "start": s[_T0] - self.origin,
                    "end": s[_T1] - self.origin, "error": s[_ERR]}) + "\n")
