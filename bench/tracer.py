"""Outside-in spans around the conewave library layers.

The tracer wraps every public function of the six library modules and
rebinds the wrapper under each name that refers to the original in the
`conewave.*` namespaces, so calls from `cli`, from other modules and from
within a module all pass through it.  `conop.apply_path` hands out entries
of a private table; its wrapper returns the traced callable instead.  No
library file changes.

A span records (id, parent id, layer, function, start, end, thread,
command id).  A call on a thread with no open span is parented to the
current command span, which is how `ThreadPoolExecutor` workers attach to
the command that started them.  Spans stay in memory until `dump`.

Counters are collected at the same boundaries.  Their bookkeeping runs
outside the function's own span and is recorded as a span of the pseudo
layer "trace", so it is charged to no library layer.

Attribution (`attribute`) splits wall time among layers: each thread's
innermost open span gives that thread's layer at each instant, and every
instant of a command is shared equally among the threads inside some
library span.  Instants with no thread inside a library span are the `cli`
layer.  So layer times plus `cli` add up to the traced wall time, while a
thread blocked in the CLI's pool waits for its workers at no charge.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("specialfn", "kernel", "fields", "conop", "analysis", "ensembles")
APPLY_FUNCTIONS = ("apply_I_alpha_slices", "apply_I_alpha_multiplier", "apply_cone_direct")
# functions that evaluate every node of their radial quadrature; the
# multiplier apply does so through multiplier_table
NODE_FUNCTIONS = ("multiplier_table", "apply_I_alpha_slices", "apply_cone_direct")


def _size(x) -> int:
    return int(np.size(x))


def _samples(x):
    return getattr(x, "samples", x)


class _Tally:
    """Counters of one command."""

    def __init__(self):
        self.counts = defaultdict(float)
        self.peak_mb = 0.0
        self.tables = set()


def _fields_in(out):
    if hasattr(out, "samples"):
        yield out
    elif isinstance(out, (list, tuple)):
        for item in out:
            yield from _fields_in(item)


class Tracer:
    """Span recorder and counters for one process; see the module doc."""

    def __init__(self):
        import conewave
        from conewave import analysis, cli, conop, ensembles, fields, kernel, specialfn

        self._modules = {"specialfn": specialfn, "kernel": kernel, "fields": fields,
                         "conop": conop, "analysis": analysis, "ensembles": ensembles}
        self._namespaces = [conewave, cli] + list(self._modules.values())
        self._conop = conop
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._rebound = []  # (namespace, name, original)
        self.wrappers = {}  # original function -> traced wrapper
        self.root = 0
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        self.spans = []
        self.commands = []  # (span id, label, start, end)
        self.tallies = {}  # command label -> _Tally
        self._tally = _Tally()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def command(self, label, fn):
        """Run fn() as one command span; library calls on any thread attach to it."""
        sid = next(self._ids)
        self.root = sid
        self._tally = self.tallies.setdefault(label, _Tally())
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.commands.append((sid, label, t0, time.perf_counter()))
            self.root = 0

    def _wrap(self, layer, fn):
        name = fn.__name__
        counter = getattr(self, f"_count_{layer}", None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self.root, None)
            root, tally = self.root, self._tally
            entry = parent[1] != layer
            sid = next(self._ids)
            stack.append((sid, layer))
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent[0], layer, name, t0, t1,
                                   threading.get_ident(), root))
            with self._lock:
                if entry:
                    tally.counts[f"{layer}.calls"] += 1
                if counter is not None:
                    counter(tally, name, signature.bind(*args, **kwargs).arguments, out, entry)
            self.spans.append((next(self._ids), parent[0], "trace", name, t1,
                               time.perf_counter(), threading.get_ident(), root))
            return out

        return traced

    # -- counters, called under the lock -----------------------------------

    def _count_specialfn(self, tally, name, a, out, entry):
        if not entry:
            return
        arg = a.get("rho", a.get("x", a.get("z")))
        tally.counts["specialfn.points"] += _size(arg)
        tally.counts["specialfn.distinct"] += np.unique(np.asarray(arg)).size

    def _count_fields(self, tally, name, a, out, entry):
        if name in ("forward_axes", "inverse_axes"):
            tally.counts["fields.fft_calls"] += 1
            tally.counts["fields.fft_elems"] += _size(a["samples"])
        elif name in ("save_field", "load_field"):
            path = str(a["path"])
            tally.counts["fields.io_bytes"] += os.path.getsize(path) + os.path.getsize(path + ".json")
        arr = _samples(out)
        if isinstance(arr, np.ndarray):
            tally.peak_mb = max(tally.peak_mb, arr.nbytes / 2**20)

    def _quad(self, a):
        quad = a.get("quad")
        if quad is None:
            grid = a["grid"] if "grid" in a else a["f"].grid
            quad = self._conop.RadialQuadrature.for_grid(grid)
        return quad

    def _count_conop(self, tally, name, a, out, entry):
        if name == "multiplier_table":
            tally.counts["conop.tables"] += 1
            tally.tables.add((repr(a["grid"]), repr(a["spec"]), repr(self._quad(a))))
        if name in APPLY_FUNCTIONS:
            tally.counts["conop.apply_calls"] += 1
        if name in NODE_FUNCTIONS:
            tally.counts["conop.radial_nodes"] += self._quad(a).count

    def _count_analysis(self, tally, name, a, out, entry):
        if name == "case_bound_check":
            tally.counts["analysis.case_samples"] += len(a["samples"])

    def _count_ensembles(self, tally, name, a, out, entry):
        if not entry:
            return
        for f in _fields_in(out):
            tally.counts["ensembles.elems"] += _size(f.samples)

    # -- install / remove --------------------------------------------------

    def install(self):
        """Rebind every public library function to its traced wrapper."""
        if self._rebound:
            return
        if not self.wrappers:
            for layer, mod in self._modules.items():
                for name, val in vars(mod).items():
                    if (not name.startswith("_") and inspect.isfunction(val)
                            and val.__module__ == mod.__name__):
                        self.wrappers[val] = self._wrap(layer, val)
            apply_path = next(f for f in self.wrappers if f.__name__ == "apply_path")
            self.wrappers[apply_path] = self._wrap_apply_path(self.wrappers[apply_path])
        for ns in self._namespaces:
            for name, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in self.wrappers:
                    self._rebound.append((ns, name, val))
                    setattr(ns, name, self.wrappers[val])

    def _wrap_apply_path(self, traced_lookup):
        wrappers = self.wrappers

        @functools.wraps(traced_lookup)
        def apply_path(name):
            op = traced_lookup(name)
            return wrappers.get(op, op)

        return apply_path

    def uninstall(self):
        for ns, name, val in reversed(self._rebound):
            setattr(ns, name, val)
        self._rebound = []

    # -- results -----------------------------------------------------------

    def metrics(self, label=None) -> tuple:
        """Per-layer counters and attributed times of the recorded commands.

        With a label, only that command's.  Returns (metrics, attribution
        check) as `attribute` defines the check.
        """
        commands = [c for c in self.commands if label is None or c[1] == label]
        ids = {c[0] for c in commands}
        times, check = attribute([s for s in self.spans if s[7] in ids], commands)
        tallies = [t for lab, t in self.tallies.items() if label is None or lab == label]
        counts = defaultdict(float)
        for t in tallies:
            for key, val in t.counts.items():
                counts[key] += val
        tables = set().union(*(t.tables for t in tallies))

        m = {f"{layer}.self_s": times.get(layer, 0.0) for layer in LAYERS}
        m["cli.self_s"] = times.get("cli", 0.0)
        m["trace.self_s"] = times.get("trace", 0.0)
        for key in ("specialfn.calls", "specialfn.points", "kernel.calls",
                    "fields.fft_calls", "fields.fft_elems", "fields.io_bytes",
                    "conop.tables", "conop.radial_nodes", "conop.apply_calls",
                    "analysis.calls", "analysis.case_samples", "ensembles.elems"):
            m[key] = int(counts[key])
        points = counts["specialfn.points"]
        m["specialfn.distinct_frac"] = counts["specialfn.distinct"] / points if points else 0.0
        m["fields.peak_array_mb"] = max((t.peak_mb for t in tallies), default=0.0)
        m["conop.distinct_tables"] = len(tables)
        m["conop.table_distinct_frac"] = len(tables) / counts["conop.tables"] if tables else 0.0
        return m, check

    def orphans(self) -> int:
        """Spans recorded outside every command: no command's metrics see them."""
        ids = {c[0] for c in self.commands}
        return sum(1 for s in self.spans if s[7] not in ids)

    def dump(self, path):
        """Write the recorded spans and commands as JSON."""
        base = min((c[2] for c in self.commands), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["id", "parent", "layer", "function", "start_s", "end_s", "thread",
                           "command"],
                "commands": [[sid, label, t0 - base, t1 - base]
                             for sid, label, t0, t1 in self.commands],
                "spans": [[s[0], s[1], s[2], s[3], s[4] - base, s[5] - base, s[6], s[7]]
                          for s in self.spans],
            }, fh)
            fh.write("\n")


def _self_segments(spans):
    """Innermost-layer segments (start, end, layer) of one thread's spans."""
    segs = []
    stack = []  # (end, layer) of open spans
    cursor = 0.0
    for t0, t1, layer in sorted(spans, key=lambda s: (s[0], -s[1])):
        while stack and stack[-1][0] <= t0:
            end, lay = stack.pop()
            if end > cursor:
                segs.append((cursor, end, lay))
            cursor = end
        if stack and t0 > cursor:
            segs.append((cursor, t0, stack[-1][1]))
        stack.append((t1, layer))
        cursor = t0
    while stack:
        end, lay = stack.pop()
        if end > cursor:
            segs.append((cursor, end, lay))
        cursor = end
    return segs


def _union_length(intervals):
    """Length of the union of (start, end) intervals."""
    total, start, end = 0.0, None, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            if end is not None:
                total += end - start
            start, end = t0, t1
        else:
            end = max(end, t1)
    return total + (end - start if end is not None else 0.0)


def attribute(spans, commands):
    """Split the commands' wall time among layers.

    Returns ({layer: seconds}, check) where `cli` is the time no thread
    spent inside a library span.  check is the larger of two relative
    errors: |sum of layers - wall| / wall, and, for each thread, how far its
    innermost-layer segments miss the union of its spans.  The first holds
    when no span outlives its command; the second, computed without the
    `cli` residual, when the segments tile each thread's spans exactly.
    """
    by_thread = defaultdict(list)
    for s in spans:
        by_thread[s[6]].append((s[4], s[5], s[2]))
    events = []
    tiling = 0.0
    for thread_spans in by_thread.values():
        segs = _self_segments(thread_spans)
        covered = _union_length((t0, t1) for t0, t1, _ in thread_spans)
        if covered > 0:
            tiling = max(tiling, abs(sum(t1 - t0 for t0, t1, _ in segs) - covered) / covered)
        for t0, t1, layer in segs:
            events.append((t0, 1, layer))
            events.append((t1, -1, layer))
    for _, _, t0, t1 in commands:
        events.append((t0, 0, "+cmd"))
        events.append((t1, 0, "-cmd"))
    events.sort(key=lambda e: (e[0], e[1]))

    times = defaultdict(float)
    active = defaultdict(int)
    busy = 0
    open_cmds = 0
    last = None
    for t, kind, layer in events:
        if last is not None and t > last:
            dt = t - last
            if busy:
                share = dt / busy
                for lay, k in active.items():
                    if k:
                        times[lay] += share * k
            elif open_cmds:
                times["cli"] += dt
        last = t
        if kind:
            active[layer] += kind
            busy += kind
        else:
            open_cmds += 1 if layer == "+cmd" else -1
    wall = sum(t1 - t0 for _, _, t0, t1 in commands)
    total = sum(times.values())
    check = abs(total - wall) / wall if wall > 0 else 0.0
    return dict(times), max(check, tiling)
