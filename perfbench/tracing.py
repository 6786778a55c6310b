"""Spans and counters around the calls into each wavebound module.

Nothing in ``src/`` is edited: :func:`instrument` replaces, for the duration
of a traced pass, the module attributes the pipeline looks up at call time
(``cli.classify``, ``solver.advance_steps``, ``analysis.snapshot_record``,
...) with wrappers that record a span, and restores them afterwards. Spans
are kept in memory; the runner writes them out when the benchmark ends.

Profiles and initial data returned by ``get_profile`` / ``get_data`` are
copied with counting wrappers around ``a``/``a'`` and ``u0``/``u1``/``v1``,
which gives the number of calls into the profile and into the data samplers.
"""

from __future__ import annotations

import contextlib
import copy
import resource
import time
from collections import Counter

import numpy as np

# bytes moved per node-step by the stencil, as computed (not measured): read
# u_prev[i] and u_curr[i] (neighbours reused from cache), write u_next[i]
KERNEL_BYTES_PER_NODE_STEP = 24

# (module, attribute, span name); cli and solver import these names into
# their own namespaces, analysis functions are looked up on the module
_PATCHES = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "config.load"),
    ("cli", "classify", "coefficients.classify"),
    ("cli", "tv_tail_estimate", "coefficients.tv_tail_estimate"),
    ("cli", "get_profile", "coefficients.get_profile"),
    ("cli", "get_data", "initial_data.get_data"),
    ("cli", "bound_constant", "initial_data.bound_constant"),
    ("cli", "dalembert", "oracles.dalembert"),
    ("cli", "convergence_order", "oracles.convergence_order"),
    ("solver", "run", "solver.run"),
    ("solver", "evolve_final", "solver.evolve_final"),
    ("solver", "init_grid", "solver.init_grid"),
    ("solver", "get_profile", "coefficients.get_profile"),
    ("solver", "get_data", "initial_data.get_data"),
    ("solver", "advance_steps", "kernels.advance_steps"),
    ("initial_data", "get_data", "initial_data.get_data"),
    ("oracles", "i0_squared", "oracles.i0_squared"),
    ("analysis", "initial_record", "analysis.initial_record"),
    ("analysis", "snapshot_record", "analysis.snapshot_record"),
    ("analysis", "write_csv", "analysis.write_csv"),
    ("analysis", "l2_norm_sq", "analysis.l2_norm_sq"),
    ("analysis", "theorem_bound", "analysis.theorem_bound"),
    ("analysis", "verify_bound", "analysis.verify_bound"),
    ("analysis", "fit_growth", "analysis.fit_growth"),
    ("analysis", "growth_slope_sq", "analysis.growth_slope_sq"),
    ("analysis", "energy_identity_residual", "analysis.energy_identity_residual"),
    ("analysis", "envelope_report", "analysis.envelope_report"),
)

CHECK_SPANS = (
    "analysis.theorem_bound",
    "analysis.verify_bound",
    "analysis.fit_growth",
    "analysis.growth_slope_sq",
    "analysis.energy_identity_residual",
    "analysis.envelope_report",
)


class Tracer:
    """In-memory spans ``[name, start, end, parent index, job id]`` and counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._open = Counter()
        self._last_field = None

    def wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        spans, stack, opened = self.spans, self._stack, self._open

        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            opened[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                opened[layer] -= 1

        return traced

    def wrap_kernel(self, fn):
        counts = self.counts

        def kernel(u_prev, u_curr, lam2, *args, **kwargs):
            counts["kernels.calls"] += 1
            counts["kernels.steps"] += len(lam2)
            counts["kernels.node_steps"] += len(u_curr) * len(lam2)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            out = fn(u_prev, u_curr, lam2, *args, **kwargs)
            counts["kernels.minor_faults"] += (
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            )
            self._last_field = out[1]
            return out

        return self.wrap("kernels.advance_steps", kernel)

    def _counted(self, fn, key, only_in=None):
        counts, opened = self.counts, self._open

        def counted(*args, **kwargs):
            if only_in is None or opened[only_in]:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap_get_profile(self, fn):
        def get_profile(*args, **kwargs):
            profile = copy.copy(fn(*args, **kwargs))
            for attr in ("a", "a_prime"):
                counted = self._counted(getattr(profile, attr), "coefficients.profile_calls")
                object.__setattr__(profile, attr, counted)
            return profile

        return self.wrap("coefficients.get_profile", get_profile)

    def wrap_get_data(self, fn):
        def get_data(*args, **kwargs):
            data = copy.copy(fn(*args, **kwargs))
            for attr in ("u0", "u1", "v1_exact"):
                sampler = getattr(data, attr)
                if sampler is not None:
                    counted = self._counted(sampler, "oracles.sampler_calls", only_in="oracles")
                    object.__setattr__(data, attr, counted)
            return data

        return self.wrap("initial_data.get_data", get_data)

    def subnormal_share(self) -> float:
        """Share of subnormal values in the last field the kernel returned."""
        u = self._last_field
        if u is None or u.size == 0:
            return 0.0
        mag = np.abs(u)
        return float(np.count_nonzero((mag > 0.0) & (mag < np.finfo(np.float64).tiny)) / u.size)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch the wavebound modules to record into ``tracer``; undo on exit."""
    import importlib

    saved = []
    try:
        for mod_name, attr, span in _PATCHES:
            module = importlib.import_module(f"wavebound.{mod_name}")
            original = getattr(module, attr)
            if span == "kernels.advance_steps":
                replacement = tracer.wrap_kernel(original)
            elif span == "coefficients.get_profile":
                replacement = tracer.wrap_get_profile(original)
            elif span == "initial_data.get_data":
                replacement = tracer.wrap_get_data(original)
            else:
                replacement = tracer.wrap(span, original)
            saved.append((module, attr, original))
            setattr(module, attr, replacement)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_times(spans) -> tuple:
    """Total and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children; calls are nested and single-threaded, so children never
    overlap.
    """
    total = Counter()
    child = Counter()
    for name, start, end, parent, _job in spans:
        d = end - start
        total[name] += d
        if parent >= 0:
            child[parent] += d
    self_time = Counter()
    for idx, (name, start, end, _parent, _job) in enumerate(spans):
        self_time[name] += (end - start) - child[idx]
    return total, self_time


def per_layer(tracer: Tracer, bytes_written: int) -> tuple:
    """(timings, counts) of one traced pass, keyed by the metric names."""
    total, self_time = layer_times(tracer.spans)
    c = tracer.counts
    snapshots = sum(
        1 for s in tracer.spans if s[0] in ("analysis.snapshot_record", "analysis.initial_record")
    )
    busy = total["kernels.advance_steps"]
    timings = {
        "oracles.i0_squared_s": total["oracles.i0_squared"],
        "oracles.dalembert_s": total["oracles.dalembert"],
        "coefficients.classify_s": total["coefficients.classify"],
        "kernels.busy_s": busy,
        "kernels.node_steps_per_s": c["kernels.node_steps"] / busy if busy > 0 else 0.0,
        # measured, and not exactly repeatable: it depends on the malloc state
        "kernels.minor_faults": c["kernels.minor_faults"],
        "solver.run_s": total["solver.run"] + total["solver.evolve_final"],
        "solver.self_s": self_time["solver.run"] + self_time["solver.evolve_final"],
        "solver.init_grid_s": total["solver.init_grid"],
        "analysis.snapshot_s": total["analysis.snapshot_record"] + total["analysis.initial_record"],
        "analysis.checks_s": sum(total[name] for name in CHECK_SPANS),
        "analysis.write_csv_s": total["analysis.write_csv"],
        "initial_data.bound_constant_s": total["initial_data.bound_constant"],
        "config.load_s": total["config.load"],
        "cli.self_s": self_time["cli.main"],
    }
    calls = c["kernels.calls"]
    counts = {
        "oracles.sampler_calls": c["oracles.sampler_calls"],
        "coefficients.profile_calls": c["coefficients.profile_calls"],
        "kernels.calls": calls,
        "kernels.node_steps": c["kernels.node_steps"],
        "kernels.steps_per_call": c["kernels.steps"] / calls if calls else 0.0,
        "kernels.bytes_computed": KERNEL_BYTES_PER_NODE_STEP * c["kernels.node_steps"],
        "kernels.subnormal_share": tracer.subnormal_share(),
        "analysis.snapshots": snapshots,
        "cli.bytes_written": bytes_written,
    }
    return timings, counts
