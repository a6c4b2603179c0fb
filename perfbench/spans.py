"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces layer entry points at the module attributes
their callers look up (``general_moments.integrate_ordered``,
``low_moments.mean_heading``, ...) with timing wrappers, and restores the
originals on exit. Spans nest through a stack, so each span knows its
self time (duration minus the time its child spans cover). Nothing is
written while tracing; the caller reads the aggregates afterwards.

Attributes that a version of the package does not have are skipped and
listed in :attr:`Tracer.missing`, so a zero from a renamed or removed
layer can be told apart from a measured zero.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from brownian_unicycle import (cli, constant_ratio, fourth_moment,
                               general_moments, low_moments, montecarlo,
                               quadrature, trajectory)

_ENUMERATION = ("term_keys", "phase_step_vectors", "theta_power_compositions",
                "coefficient")


class Tracer:
    """Aggregated span times and counters, keyed by layer name."""

    def __init__(self) -> None:
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        # A layer re-entered through one of its own entry points counts once.
        if all(frame[0] != name for frame in self._stack):
            self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def call(self, name: str, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    # -- wrappers ----------------------------------------------------------

    def _patch(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(f"{module.__name__}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _plain(self, name: str, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = self.call(name, fn, *args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            return wrapper
        return make

    def _integrate(self, fn):
        def wrapper(f, beta, s, *args, **kwargs):
            tag = f"b{beta}"

            def integrand(ts):
                self.counts[f"quadrature.points.{tag}"] += int(
                    np.prod(np.broadcast_shapes(*(np.shape(t) for t in ts))))
                return self.call(f"quadrature.integrand.{tag}", f, ts)

            return self.call(f"quadrature.{tag}", fn, integrand, beta, s,
                             *args, **kwargs)
        return wrapper

    def __enter__(self) -> "Tracer":
        def count_chains(result, _args):
            self.counts["general_moments.chains"] += len(result)

        def count_terms(result, _args):
            self.counts["general_moments.terms"] += result.terms_evaluated

        def count_points(_result, args):
            self.counts["trajectory.mean_heading_points"] += int(np.size(args[1]))

        for attr in _ENUMERATION:
            after = count_chains if attr == "phase_step_vectors" else None
            self._patch(general_moments, attr,
                        self._plain("general_moments.enum", after))
        self._patch(general_moments, "displacement_heading_moment",
                    self._plain("general_moments", count_terms))
        self._patch(general_moments, "displacement_moment",
                    self._plain("general_moments"))
        for module in (general_moments, low_moments, fourth_moment, quadrature):
            self._patch(module, "integrate_ordered", self._integrate)
        for module in (general_moments, low_moments, fourth_moment, trajectory,
                       montecarlo, cli):
            self._patch(module, "mean_heading",
                        self._plain("trajectory.mean_heading", count_points))
        for attr in ("mean_x", "mean_y", "second_moments", "cov_xtheta",
                     "cov_ytheta", "mean_squared_distance"):
            self._patch(low_moments, attr, self._plain("low_moments"))
        self._patch(fourth_moment, "mean_squared_distance",
                    self._plain("low_moments"))
        for attr in ("d4_moment", "variance_d2"):
            self._patch(fourth_moment, attr, self._plain("fourth_moment"))
        for attr in ("d2_closed", "d4_closed", "variance_d2_closed",
                     "mean_pose_closed"):
            self._patch(constant_ratio, attr, self._plain("constant_ratio"))
        self._patch(cli, "load_config", self._plain("config.load"))
        self._patch(montecarlo, "statistics_from_samples",
                    self._plain("montecarlo.stats"))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def grid_cache_info():
    """``(hits, misses)`` of the tensor-rule grid cache, or ``None``."""
    grid = getattr(quadrature, "_simplex_grid", None)
    if grid is None or not hasattr(grid, "cache_info"):
        return None
    info = grid.cache_info()
    return info.hits, info.misses
