"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each traced public function by a timing wrapper
in *every* ``interpol_lab`` module namespace that holds it (``functors``
imports ``k_profile`` from ``spaces``, ``cli`` imports ``k_functional``, and
so on), so calls between layers are seen, not only calls from the
benchmark.  A span's self time is its duration minus the time covered by the
spans it caused; time outside every span is the benchmark's own
(``bench.self_s``).  Spans stay in memory as running totals.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from interpol_lab.errors import PrecisionError

LAYERS = {
    "spaces": ("k_functional", "k_profile"),
    "functors": ("real_norm", "windowed_real_norm"),
    "annulus": ("bspace_norm", "bspace_lower_bound", "j_norm", "cancel_divide", "transport_representation"),
    "operators": ("operator_norm", "interpolated_operator_norm"),
    "stability": ("sweep", "solve_analytic_equation"),
    "lattice": ("order_iso_sweep", "composite_propagation_check"),
    "cli": ("main", "load_config"),
}

EXTRA = {
    "spaces.k_profile.points": "count",
    "spaces.k_profile.distinct_frac": "ratio",
    "spaces.k_functional.precision_errors": "count",
    "functors.real_norm.profiles_per_call": "count",
    "functors.real_norm.precision_errors": "count",
    "annulus.bspace_norm.relw_p50": "ratio",
    "operators.operator_norm.distinct_frac": "ratio",
    "operators.operator_norm.exact_frac": "ratio",
    "stability.sweep.grid_points": "count",
    "bench.self_s": "s",
    "bench.trace_overhead_s": "s",
}


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, funcs in LAYERS.items():
        for fn in funcs:
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.self_s"] = "s"
    units.update(EXTRA)
    return units


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.digest()


def _space_key(S):
    return (S.p, S.weights)


class Tracer:
    def __init__(self):
        self.stack = []  # [name, child seconds] per open span
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.top_s = 0.0
        self.precision_errors = Counter()
        self.profiles = 0  # outermost k_profile calls (the (inf, 1) path recurses once)
        self.profile_points = 0
        self.profile_keys = set()
        self.profiles_in_real_norm = 0
        self.op_keys = set()
        self.op_exact = 0
        self.bspace_widths = []
        self.grid_points = 0
        self._restore = []

    # -- observers of arguments and results, keyed by traced name
    def _observe(self, name, args, kwargs, result):
        if name == "spaces.k_profile":
            if self.stack and self.stack[-1][0] == name:
                return
            x, couple, ts = args[:3]
            self.profiles += 1
            ts = np.asarray(ts, dtype=float)
            self.profile_points += ts.size
            self.profile_keys.add(_digest(np.asarray(x), *_space_key(couple.space0), *_space_key(couple.space1), ts))
            if any(frame[0] == "functors.real_norm" for frame in self.stack):
                self.profiles_in_real_norm += 1
        elif name == "operators.operator_norm":
            M, A, B = args[:3]
            self.op_keys.add(_digest(np.asarray(M), *_space_key(A), *_space_key(B)))
            self.op_exact += bool(result.is_exact)
        elif name == "annulus.bspace_norm":
            br = result[0]
            self.bspace_widths.append(0.0 if br.upper == 0 else (br.upper - br.lower) / br.upper)
        elif name == "stability.sweep":
            grid = args[2] if len(args) > 2 else kwargs["theta_grid"]
            self.grid_points += len(grid)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except PrecisionError:
                self.precision_errors[name] += 1
                raise
            finally:
                dt = perf_counter() - t0
                self.stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                if self.stack:
                    self.stack[-1][1] += dt
                else:
                    self.top_s += dt
            self._observe(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every interpol_lab namespace."""
        modules = [m for n, m in sys.modules.items() if n == "interpol_lab" or n.startswith("interpol_lab.")]
        for module, funcs in LAYERS.items():
            home = sys.modules[f"interpol_lab.{module}"]
            for fn_name in funcs:
                orig = getattr(home, fn_name)
                wrapped = self._wrap(f"{module}.{fn_name}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def metrics(self, phase_s: float, overhead_s: float) -> dict:
        """Per-layer values by name; ratios over zero calls read 0."""
        out = {}
        for module, funcs in LAYERS.items():
            for fn in funcs:
                name = f"{module}.{fn}"
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.self_s"] = self.self_s[name]
        n_prof = self.profiles
        n_real = self.calls["functors.real_norm"]
        n_op = self.calls["operators.operator_norm"]
        out.update({
            "spaces.k_profile.points": self.profile_points,
            "spaces.k_profile.distinct_frac": len(self.profile_keys) / n_prof if n_prof else 0.0,
            "spaces.k_functional.precision_errors": self.precision_errors["spaces.k_functional"],
            "functors.real_norm.profiles_per_call": self.profiles_in_real_norm / n_real if n_real else 0.0,
            "functors.real_norm.precision_errors": self.precision_errors["functors.real_norm"],
            "annulus.bspace_norm.relw_p50": statistics.median(self.bspace_widths) if self.bspace_widths else 0.0,
            "operators.operator_norm.distinct_frac": len(self.op_keys) / n_op if n_op else 0.0,
            "operators.operator_norm.exact_frac": self.op_exact / n_op if n_op else 0.0,
            "stability.sweep.grid_points": self.grid_points,
            "bench.self_s": phase_s - self.top_s,
            "bench.trace_overhead_s": overhead_s,
        })
        return out
