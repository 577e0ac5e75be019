"""Per-layer tracing by wrapping the package's public functions from outside.

Nothing in the package changes.  ``Tracer.install`` replaces each target
function with a wrapper, in every loaded ``hyperzeta`` module that holds
it (names imported with ``from x import f`` are separate bindings), and
``uninstall`` puts the originals back.

Spans nest on one stack.  A span's self time is its duration minus the
durations of the spans it directly encloses, so the self times of all
spans inside an op add up to the duration of the outermost one.  Spans
are aggregated as they close (calls and self time per name) instead of
being stored, because the hot layers are called millions of times.

Counters (``GeodesicClass.character`` and ``c_factor``, called millions
of times per heat-trace op) count calls and distinct keys without
timing.  Distinct keys are counted per round, so ``distinct_ratio`` is
the same for any number of whole rounds.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (metric prefix, module, attribute path, extra stats)
SPANS = (
    ("cli.main", "hyperzeta.cli", "main", ()),
    ("anomaly.conformal_anomaly", "hyperzeta.anomaly", "conformal_anomaly", ()),
    ("anomaly.conformal_scalar_anomaly", "hyperzeta.anomaly", "conformal_scalar_anomaly", ()),
    ("plancherel.EvenPolynomial.__mul__", "hyperzeta.plancherel", "EvenPolynomial.__mul__", ()),
    ("plancherel.plancherel_polynomial", "hyperzeta.plancherel", "plancherel_polynomial", ()),
    ("plancherel.miatello_coefficients", "hyperzeta.plancherel", "miatello_coefficients",
     ("distinct_ratio",)),
    ("heat_zeta.zeta_identity_terms", "hyperzeta.anomaly", "zeta_identity_terms", ()),
    ("exact.bernoulli", "hyperzeta.exact", "bernoulli", ()),
    ("heat_zeta.tanh_moment_series_exact", "hyperzeta.heat_zeta", "tanh_moment_series_exact", ()),
    ("exact.PiValue.render_float", "hyperzeta.exact", "PiValue.render_float", ()),
    ("output.OutputTable.render", "hyperzeta.output", "OutputTable.render", ()),
    ("manifold.load_manifold", "hyperzeta.manifold", "load_manifold", ()),
    ("heat_zeta.coexact_trace", "hyperzeta.heat_zeta", "coexact_trace", ()),
    ("heat_zeta.identity_heat_term", "hyperzeta.heat_zeta", "identity_heat_term", ()),
    ("heat_zeta.hyperbolic_heat_term", "hyperzeta.heat_zeta", "hyperbolic_heat_term", ()),
    ("heat_zeta._geodesic_amplitudes", "hyperzeta.heat_zeta", "_geodesic_amplitudes", ()),
    ("heat_zeta.mellin_hyperbolic", "hyperzeta.heat_zeta", "mellin_hyperbolic", ()),
    ("heat_zeta.bessel_k", "hyperzeta.heat_zeta", "bessel_k", ()),
    ("heat_zeta.mellin_hyperbolic_quadrature", "hyperzeta.heat_zeta",
     "mellin_hyperbolic_quadrature", ()),
    ("heat_zeta.identity_zeta_term", "hyperzeta.heat_zeta", "identity_zeta_term", ()),
    ("kernels.plancherel_integral", "hyperzeta._kernels", "plancherel_integral",
     ("level_sum", "not_converged")),
    ("kernels.mellin_time_integral", "hyperzeta._kernels", "mellin_time_integral",
     ("level_sum", "not_converged")),
    ("kernels.bessel_k_integral", "hyperzeta._kernels", "bessel_k_integral",
     ("level_sum", "not_converged")),
    ("verify.mpmath_quad", "mpmath", "quad", ()),
    ("verify.run_verification", "hyperzeta.verify", "run_verification", ()),
)

COUNTERS = (
    ("manifold.GeodesicClass.character", "hyperzeta.manifold", "GeodesicClass.character",
     ("distinct_ratio",)),
    ("manifold.GeodesicClass.c_factor", "hyperzeta.manifold", "GeodesicClass.c_factor", ()),
)

_UNITS = {"calls": "count", "self_s": "s", "distinct_ratio": "ratio",
          "level_sum": "count", "not_converged": "count"}

OVERHEAD_METRIC = ("trace_overhead_s", "s", "lower")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for prefix, _, _, extra in SPANS:
        for stat in ("calls", "self_s", *extra):
            out.append((f"{prefix}.{stat}", _UNITS[stat],
                        "higher" if stat == "distinct_ratio" else "lower"))
    for prefix, _, _, extra in COUNTERS:
        for stat in ("calls", *extra):
            out.append((f"{prefix}.{stat}", _UNITS[stat],
                        "higher" if stat == "distinct_ratio" else "lower"))
    out.append(OVERHEAD_METRIC)
    return out


def _key(prefix, args):
    # distinct work items: (k, p) for the Plancherel expansion, (geodesic, p)
    # for characters; a geodesic is identified by value, since every op
    # loads its own copy of the manifold
    if prefix == "plancherel.miatello_coefficients":
        return args[0], args[1]
    geo = args[0]
    return geo.length, geo.power, args[2]


class Stat:
    __slots__ = ("calls", "self_s", "level_sum", "not_converged", "distinct", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.level_sum = 0
        self.not_converged = 0
        self.distinct = 0
        self.keys: set = set()


class Tracer:
    def __init__(self):
        self.stats = {prefix: Stat() for prefix, *_ in SPANS + COUNTERS}
        self.absent: list[str] = []
        self.total_self = 0.0  # sum of self time over all closed spans
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------

    def _span(self, prefix, fn, extra):
        stat = self.stats[prefix]
        stack = self._stack
        kernel = "level_sum" in extra
        keyed = "distinct_ratio" in extra

        def wrapper(*args, **kwargs):
            if keyed:
                stat.keys.add(_key(prefix, args))
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                own = dt - frame[0]
                stat.calls += 1
                stat.self_s += own
                self.total_self += own
                if stack:
                    stack[-1][0] += dt
            if kernel:
                stat.level_sum += result[2]
                stat.not_converged += not result[3]
            return result

        return wrapper

    def _counter(self, prefix, fn, extra):
        stat = self.stats[prefix]
        keys = stat.keys if "distinct_ratio" in extra else None

        def wrapper(*args, **kwargs):
            stat.calls += 1
            if keys is not None:
                keys.add(_key(prefix, args))
            return fn(*args, **kwargs)

        return wrapper

    # --- install / uninstall -------------------------------------------

    def install(self) -> None:
        for targets, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for prefix, module_name, path, extra in targets:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                orig = getattr(owner, attr, None) if owner is not None else None
                if orig is None:
                    self.absent.append(prefix)
                    continue
                wrapper = make(prefix, orig, extra)
                if owner_name:  # a method: patch the class once
                    self._patch(owner, attr, wrapper)
                    continue
                self._patch(module, attr, wrapper)
                for name, mod in list(sys.modules.items()):
                    if mod is module or not name.startswith("hyperzeta"):
                        continue
                    for binding, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, binding, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # --- bookkeeping ----------------------------------------------------

    def end_round(self) -> None:
        for stat in self.stats.values():
            stat.distinct += len(stat.keys)
            stat.keys.clear()

    def not_converged(self) -> int:
        return sum(s.not_converged for s in self.stats.values())

    def metrics(self) -> dict[str, float]:
        """Totals over everything traced so far, keyed by per-layer metric name."""
        out = {}
        for name, _, _ in per_layer_metrics():
            if name == OVERHEAD_METRIC[0]:
                continue
            prefix, kind = name.rsplit(".", 1)
            stat = self.stats[prefix]
            if kind == "distinct_ratio":
                out[name] = stat.distinct / stat.calls if stat.calls else 0.0
            else:
                out[name] = getattr(stat, kind)
        return out
