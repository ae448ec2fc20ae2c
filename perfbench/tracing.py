"""Spans around calls into wavekit's layer modules, installed by attribute patching.

The wrappers live here, in the benchmark, not in the program: `Tracer.install`
replaces named public functions of each module with timing wrappers.  Calls
made through the module attribute (including a module's calls to its own
globals) then record a span: name, start, end, parent span, run id, plus
exact counts computed from the call's inputs and outputs.  Spans stay in
memory and are handed back once, when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import time
import tracemalloc
from collections import defaultdict

import stats

MB = 1e6


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _grid_out(args, kwargs, out):
    return {"cells": int(out.f.size), "out_bytes": int(out.f.nbytes + out.x.nbytes + out.p.nbytes)}


def _leapfrog(args, kwargs, out):
    state = _arg(args, kwargs, 0, "state")
    return {"n_sites": int(state.u.size), "steps": int(_arg(args, kwargs, 3, "n_steps"))}


def _wigner_3d(args, kwargs, out):
    return {"pairs": sum(len(c.pairs) for c in out.columns), "columns": len(out.columns)}


def _mesh_points(args, kwargs, out):
    return {"points": math.prod(_arg(args, kwargs, 0, "x").shape[1:])}


def _built_mesh_points(args, kwargs, out):
    return {"points": math.prod(out.shape[1:])}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


LATTICE_TRANSFORMS = (
    "dft_to_modes", "idft_from_modes", "psi_from_modes", "modes_from_psi",
    "evolve_modes_exact", "evolve_psi",
)
KINETICS_FUNCS = (
    "relax_to_equilibrium", "kinetic_step", "kinetic_rhs", "equilibrium_f", "effective_rate",
    "planck_f", "spectral_energy_density", "wien_peak", "thermal_photon_count",
)

# (module, attribute, measure, track peak traced memory).  Span names are
# "<module>.<attribute>" with a leading underscore dropped.
WRAPPED = (
    ("cli", "main", None, False),
    ("experiments", "parse_config", None, False),
    ("experiments", "run_config", None, False),
    ("lattice", "leapfrog_energy_series", _leapfrog, False),
    *(("lattice", name, None, False) for name in LATTICE_TRANSFORMS),
    ("wigner", "wigner_1d", _grid_out, True),
    ("wigner", "evolve_wigner_group_velocity", _grid_out, True),
    ("wigner", "wigner_gaussian_closed", None, False),
    ("wigner", "gaussian_action_wave", None, False),
    ("wigner", "doubled_site_values", None, False),
    ("wigner", "wigner_3d", _wigner_3d, False),
    ("wigner", "_columns_quadrature", None, False),
    ("em", "field_energy", None, False),
    ("em", "mode_energy_3d", None, False),
    ("em", "normalize_photons", None, False),
    ("em", "evolve_mode_set", None, False),
    ("helicity", "cylindrical_solution", _mesh_points, False),
    ("helicity", "stencil_curl", None, False),
    ("helicity", "potential_equation_residual", None, False),
    ("helicity", "helicity_eigencheck", None, False),
    *(("kinetics", name, None, False) for name in KINETICS_FUNCS),
    ("gridio", "write_csv", _file_bytes, False),
    ("gridio", "write_wigner_grid", _file_bytes, False),
    ("gridio", "write_json", _file_bytes, False),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.lstrip('_')}"


class Tracer:
    """Collects spans [name, start, end, parent, run, attrs] for one process."""

    def __init__(self):
        self.spans: list = []
        self.run = None
        self._stack: list[int] = []

    def wrap(self, name, fn, measure=None, memory=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run, attrs]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            own_trace = memory and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if own_trace:
                    attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
                span[1], span[2] = start, end
            if measure is not None:
                attrs.update(measure(args, kwargs, out))
            return out

        return traced

    def count(self, enclosing, fn, measure):
        """Wrap fn without a span: a call made while `enclosing` is the innermost
        open span adds its measured counts to that span, whose self time keeps
        the call's work."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._stack and self.spans[self._stack[-1]][0] == enclosing:
                attrs = self.spans[self._stack[-1]][5]
                for key, value in measure(args, kwargs, out).items():
                    attrs[key] = attrs.get(key, 0) + value
            return out

        return counted

    def install(self) -> None:
        for module, attr, measure, memory in WRAPPED:
            mod = importlib.import_module(f"wavekit.{module}")
            setattr(mod, attr, self.wrap(span_name(module, attr), getattr(mod, attr), measure, memory))
        # the grid em.field_energy actually builds, whatever its default
        em = importlib.import_module("wavekit.em")
        em.box_mesh = self.count("em.field_energy", em.box_mesh, _built_mesh_points)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, run, attrs in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children.get(i, ()), start, end)
        for i, (name, start, end, parent, run, attrs) in enumerate(spans)
    ]


def _names(module, attrs):
    return tuple(span_name(module, a) for a in attrs)


# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "wigner.wigner_1d.self_s": ("wigner.wigner_1d",),
    "wigner.evolve_wigner_group_velocity.self_s": ("wigner.evolve_wigner_group_velocity",),
    "wigner.wigner_gaussian_closed.self_s": ("wigner.wigner_gaussian_closed",),
    "wigner.wigner_3d.self_s": ("wigner.wigner_3d",),
    "wigner.columns_quadrature.self_s": ("wigner.columns_quadrature",),
    "em.field_energy.self_s": ("em.field_energy",),
    "em.mode_energy_3d.self_s": ("em.mode_energy_3d",),
    "helicity.stencil_curl.self_s": ("helicity.stencil_curl",),
    "helicity.cylindrical_solution.self_s": ("helicity.cylindrical_solution",),
    "lattice.leapfrog_energy_series.self_s": ("lattice.leapfrog_energy_series",),
    "lattice.transforms.self_s": _names("lattice", LATTICE_TRANSFORMS),
    "kinetics.self_s": _names("kinetics", KINETICS_FUNCS),
    "gridio.write_csv.self_s": ("gridio.write_csv",),
    "gridio.write_wigner_grid.self_s": ("gridio.write_wigner_grid",),
    "experiments.parse_config.self_s": ("experiments.parse_config",),
    "experiments.run_config.self_s": ("experiments.run_config",),
    "cli.main.self_s": ("cli.main",),
}

# per-layer metric -> (span name, attribute summed over its spans); exact counts
COUNT_METRICS = {
    "wigner.grid_cells": ("wigner.wigner_1d", "cells"),
    "wigner.pairs": ("wigner.wigner_3d", "pairs"),
    "wigner.columns": ("wigner.wigner_3d", "columns"),
    "lattice.steps": ("lattice.leapfrog_energy_series", "steps"),
    "helicity.mesh_points": ("helicity.cylindrical_solution", "points"),
    "em.field_grid_points": ("em.field_energy", "points"),
}

LEAPFROG_SIZES = (64, 1024, 16384)
GRIDIO_WRITES = ("gridio.write_csv", "gridio.write_wigner_grid", "gridio.write_json")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    "wigner.wigner_1d.peak_mb": "MB",
    "wigner.wigner_1d.peak_over_output": "ratio",
    "wigner.evolve_wigner_group_velocity.peak_mb": "MB",
    **{f"lattice.leapfrog_us_per_step.n{n}": "us" for n in LEAPFROG_SIZES},
    **{name: "count" for name in COUNT_METRICS},
    "gridio.bytes_written": "bytes",
    "gridio.write_mb_per_s": "MB/s",
    "trace_overhead_frac": "ratio",
    "cli.known_defect_failures": "count",
}


def _peak(spans, name):
    """Largest per-call traced peak of a function and that call's peak/output ratio."""
    calls = [s[5] for s in spans if s[0] == name and "peak_bytes" in s[5]]
    if not calls:
        return 0.0, 0.0
    top = max(calls, key=lambda a: a["peak_bytes"])
    return top["peak_bytes"] / MB, top["peak_bytes"] / top["out_bytes"] if top.get("out_bytes") else 0.0


def pass_metrics(spans) -> dict:
    """Per-layer figures of one traced pass (everything but the cross-pass ratios)."""
    selfs = self_times(spans)
    by_name = defaultdict(float)
    for span, own in zip(spans, selfs):
        by_name[span[0]] += own
    out = {metric: sum(by_name[n] for n in names) for metric, names in SELF_TIME_METRICS.items()}
    for metric, (name, key) in COUNT_METRICS.items():
        out[metric] = sum(s[5].get(key, 0) for s in spans if s[0] == name)
    out["wigner.wigner_1d.peak_mb"], out["wigner.wigner_1d.peak_over_output"] = _peak(
        spans, "wigner.wigner_1d"
    )
    out["wigner.evolve_wigner_group_velocity.peak_mb"], _ = _peak(
        spans, "wigner.evolve_wigner_group_velocity"
    )
    for n in LEAPFROG_SIZES:
        per_step = [
            1e6 * (s[2] - s[1]) / s[5]["steps"]
            for s in spans
            if s[0] == "lattice.leapfrog_energy_series" and s[5].get("n_sites") == n
        ]
        out[f"lattice.leapfrog_us_per_step.n{n}"] = stats.median(per_step) if per_step else 0.0
    writes = [s for s in spans if s[0] in GRIDIO_WRITES]
    written = sum(s[5].get("bytes", 0) for s in writes)
    busy = sum(s[2] - s[1] for s in writes)
    out["gridio.bytes_written"] = written
    out["gridio.write_mb_per_s"] = written / MB / busy if busy > 0 else 0.0
    return out


def combine_passes(per_pass: list[dict]) -> dict:
    """Median over traced passes; counts must agree exactly and are taken as is."""
    out = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        out[name] = values[0] if PER_LAYER_UNITS.get(name) in ("count", "bytes") else statistics.median(values)
    return out


def counts_agree(per_pass: list[dict]) -> bool:
    exact = [n for n in per_pass[0] if PER_LAYER_UNITS.get(n) in ("count", "bytes")]
    return all(p[n] == per_pass[0][n] for p in per_pass for n in exact)
