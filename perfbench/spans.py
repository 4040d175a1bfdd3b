"""In-memory span tracing of the library's layers, from outside the library.

``Tracer.install`` rebinds each public layer function named in ``TRACED_FUNCTIONS``
in every ``flowincentives`` module namespace that holds it, so calls made
through module globals (``admm_iterate`` calling ``u_update``, ``harness``
calling its imported ``run_admm``) are seen too. ``uninstall`` restores the
originals. Spans stay in memory and are written out by ``write``.

A span's self time is its duration minus the durations of its direct
children. Calls are sequential in one thread, so spans nest exactly and the
self times of one top-level call sum to its duration.
"""

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

from flowincentives.errors import InfeasibleModelError
from metrics import TRACED_FUNCTIONS


class Tracer:
    """Span recorder plus per-pass totals and counts read from returned
    objects. Totals are lists indexed like ``TRACED_FUNCTIONS``."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.codes = array("H")  # per span: index into TRACED_FUNCTIONS
        self.links = array("q")  # per span: parent span id (-1 at top level), root id
        self.times = array("d")  # per span: start, end
        n = len(TRACED_FUNCTIONS)
        self.self_time = [0.0] * n
        self.total_time = [0.0] * n
        self.calls = [0] * n
        self.counts = Counter()
        self.top_level_s = 0.0
        self._stack = []  # [span id, child seconds, root id] per open span
        self._patches = []

    def reset_totals(self):
        """Start per-pass totals; recorded spans are kept."""
        n = len(TRACED_FUNCTIONS)
        self.self_time[:] = [0.0] * n
        self.total_time[:] = [0.0] * n
        self.calls[:] = [0] * n
        self.counts.clear()
        self.top_level_s = 0.0

    def _wrap(self, code, fn):
        # everything the wrapper touches is bound here, to keep it cheap
        name = TRACED_FUNCTIONS[code]
        on_result = _COUNTERS.get(name)
        counts_raise = name == "scenario1.solve_scenario1"
        stack, codes, links, times = self._stack, self.codes, self.links, self.times
        self_time, total_time, calls, counts = self.self_time, self.total_time, self.calls, self.counts
        clock, origin = time.perf_counter, self.origin

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(codes)
            if stack:
                parent = stack[-1]
                frame = [span, 0.0, parent[2]]
                links.extend((parent[0], parent[2]))
            else:
                parent = None
                frame = [span, 0.0, span]
                links.extend((-1, span))
            codes.append(code)
            times.extend((0.0, 0.0))
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except InfeasibleModelError:
                if counts_raise:
                    counts["harness.alpha_doublings"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is None:
                    self.top_level_s += duration
                else:
                    parent[1] += duration
                self_time[code] += duration - frame[1]
                total_time[code] += duration
                calls[code] += 1
                times[2 * span] = start - origin
                times[2 * span + 1] = end - origin
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def install(self):
        for code, span_name in enumerate(TRACED_FUNCTIONS):
            module_name, function = span_name.split(".")
            original = getattr(sys.modules[f"flowincentives.{module_name}"], function)
            wrapper = self._wrap(code, original)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "flowincentives" and getattr(module, function, None) is original:
                    setattr(module, function, wrapper)
                    self._patches.append((module, function, original))

    def uninstall(self):
        for module, function, original in reversed(self._patches):
            setattr(module, function, original)
        self._patches = []

    def write(self, path, header):
        """Spans as tab-separated rows (times in seconds from the tracer's
        start), after one '#'-prefixed header line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# {header}\n")
            fh.write("id\tname\tstart_s\tend_s\tparent\troot\n")
            for i, code in enumerate(self.codes):
                fh.write(
                    f"{i}\t{TRACED_FUNCTIONS[code]}\t{self.times[2 * i]:.9f}\t"
                    f"{self.times[2 * i + 1]:.9f}\t{self.links[2 * i]}\t{self.links[2 * i + 1]}\n"
                )


def _count_admm(counts, result):
    counts["admm.iters"] += result.iterations
    counts["admm.converged"] += int(result.converged)


def _count_lp(counts, result):
    counts["lp.solve_lp.optimal"] += int(result.status == "optimal")


def _count_mip(counts, result):
    counts["lp.bb_nodes"] += result.nodes


def _count_enumeration(counts, result):
    counts["kernels.oracle_assignments"] += int(result[2])


_COUNTERS = {
    "admm.run_admm": _count_admm,
    "lp.solve_lp": _count_lp,
    "lp.solve_binary_mip": _count_mip,
    "kernels.enumerate_assignments": _count_enumeration,
}


def layer_metrics(tracer, wall_s):
    """Per-pass layer metrics: self seconds, call counts, derived ratios.

    ``wall_s`` is the pass's timed wall time; the part of it no top-level
    span covers is reported as unattributed, so the self times plus that
    part add up to ``wall_s``.
    """
    index = {name: code for code, name in enumerate(TRACED_FUNCTIONS)}
    out = {f"{name}.s": tracer.self_time[code] for code, name in enumerate(TRACED_FUNCTIONS)}
    for name in (
        "kernels.gamma_solve",
        "admm.run_admm",
        "lp.solve_lp",
        "lp.solve_binary_mip",
        "admm.round_assignment",
        "scenario1.solve_scenario1",
        "harness.prepare",
    ):
        out[f"{name}.calls"] = tracer.calls[index[name]]
    counts = tracer.counts
    runs = tracer.calls[index["admm.run_admm"]]
    lps = tracer.calls[index["lp.solve_lp"]]
    iters = counts["admm.iters"]
    out["admm.iters"] = iters
    out["admm.converged_frac"] = counts["admm.converged"] / runs if runs else 0.0
    out["admm.ms_per_iter"] = 1e3 * tracer.total_time[index["admm.run_admm"]] / iters if iters else 0.0
    out["lp.solve_lp.optimal_frac"] = counts["lp.solve_lp.optimal"] / lps if lps else 0.0
    out["lp.bb_nodes"] = counts["lp.bb_nodes"]
    out["harness.alpha_doublings"] = counts["harness.alpha_doublings"]
    out["kernels.oracle_assignments"] = counts["kernels.oracle_assignments"]
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - tracer.top_level_s
    return out
