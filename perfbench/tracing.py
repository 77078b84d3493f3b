"""Span tracing for one benchmark instance, and the per-layer accounting.

The tracer wraps the module-level names through which ``bbmb.cli`` and
``bbmb.scheme`` call into the other layers, so no file of the program
is edited.  Each call becomes one span: (id, name, start, end, parent,
thread, cpu, info), where cpu is the thread's CPU time spent inside
the span.  Spans are kept in memory and written out once, after the run.

Self time is busy time, computed per thread: a span's CPU time minus
that of its children on the same thread.  Cases that run in pool
threads wait for the interpreter lock; CPU time leaves that wait out,
where wall time would charge it to whatever span the thread sat in.
The wait shows as a case's wall time minus its CPU time.
"""

from __future__ import annotations

import fnmatch
import itertools
import json
import statistics
import threading
import time

# Names looked up at call time in each caller module.  Patterns let a
# renamed assembler or estimator keep its span; names a later version
# drops are skipped.
WRAPPED = {
    "bbmb.scheme": ["advance", "assemble_*_step", "init_state",
                    "solve_cyclic_block_tridiagonal", "solve_scalar_cyclic",
                    "solve_dense_oracle", "block_matvec", "block_row_sum_norm",
                    "second_diff", "energy_pair", "gradient_energy"],
    "bbmb.cli": ["run", "init_state", "max_norm_error", "posterior_*"],
}


def _array_bytes(obj) -> int:
    """Bytes held by the ndarray attributes of obj (computed, not measured)."""
    return sum(v.nbytes for v in vars(obj).values() if hasattr(v, "nbytes"))


def _system_info(args, result):
    system = args[0]
    return [int(system.m), _array_bytes(system)]


def _levels_info(args, result):
    """Bytes of the solution levels a run result keeps."""
    levels = list(getattr(result, "trajectory", None) or [])
    levels += list(getattr(result, "snapshots", None) or [])
    return sum(u.nbytes for _, u in levels)


_INFO = {"solve_cyclic_block_tridiagonal": _system_info, "run": _levels_info}


class Tracer:
    """Records spans for calls through the wrapped module bindings."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root = None

    def wrap(self, name, fn, info=None):
        spans = self.spans
        ids = self._ids
        local = self._local
        tracer = self
        perf_counter = time.perf_counter
        thread_time = time.thread_time

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                # a pool worker's first span is caused by the root span
                stack = local.stack = [tracer.root] if tracer.root else []
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            c0 = thread_time()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                extra = info(args, result) if info and result is not None else None
                spans.append((sid, name, t0, t1, parent, threading.get_ident(),
                              c1 - c0, extra))

        traced.__wrapped__ = fn
        return traced

    def install(self, modules):
        """Wrap the WRAPPED names found in the given {name: module} map."""
        for mod_name, patterns in WRAPPED.items():
            mod = modules[mod_name]
            for attr in sorted(vars(mod)):
                fn = getattr(mod, attr)
                if not callable(fn) or not any(fnmatch.fnmatchcase(attr, p) for p in patterns):
                    continue
                layer = fn.__module__.rsplit(".", 1)[-1]
                setattr(mod, attr, self.wrap(f"{layer}.{attr}", fn, _INFO.get(attr)))

    def call_root(self, name, fn, *args, **kwargs):
        """Run fn as the root span; returns (result, root span duration)."""
        self.root = next(self._ids)
        self._local.stack = [self.root]
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            self.spans.append((self.root, name, t0, t1, None,
                               threading.get_ident(), c1 - c0, None))
        return result, t1 - t0

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"root": self.root, "fields": ["id", "name", "start", "end",
                                                     "parent", "thread", "cpu",
                                                     "info"],
                       "spans": self.spans}, fh)


def span_cost(calls=20000):
    """Seconds one traced call adds to a call, measured on a no-op."""
    def noop():
        return 0

    traced = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


def summarize(spans, root):
    """Per-layer metrics of one traced instance (times in seconds)."""
    by_id = {s[0]: s for s in spans}
    self_cpu = {s[0]: s[6] for s in spans}
    for s in spans:
        parent = by_id.get(s[4])
        if parent is not None and parent[5] == s[5]:
            self_cpu[parent[0]] -= s[6]

    self_by_name = {}
    cpu_by_name = {}
    layers = {}
    compact_check = 0.0
    for s in spans:
        sid, name = s[0], s[1]
        self_by_name[name] = self_by_name.get(name, 0.0) + self_cpu[sid]
        cpu_by_name[name] = cpu_by_name.get(name, 0.0) + s[6]
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_cpu[sid]
        if name == "grid.second_diff" and by_id[s[4]][1] == "scheme.advance":
            compact_check += self_cpu[sid]

    def total(pattern, table=self_by_name):
        return sum(v for k, v in table.items() if fnmatch.fnmatchcase(k, pattern))

    solves = [s[7] for s in spans
              if s[1] == "linalg.solve_cyclic_block_tridiagonal" and s[7]]
    steps = [s[3] - s[2] for s in spans if s[1] == "scheme.advance"]
    cases = [s for s in spans if s[1] == "scheme.run"]
    fallbacks = sum(1 for s in spans if s[1] == "linalg.solve_dense_oracle")
    wall = by_id[root][3] - by_id[root][2]
    solve_s = total("linalg.solve_cyclic_block_tridiagonal")
    solved_nodes = sum(m for m, _ in solves)
    step_q = (statistics.quantiles(steps, n=10, method="inclusive")
              if len(steps) > 1 else steps * 9 or [0.0] * 9)

    out = {
        "linalg.solve_s": solve_s,
        "linalg.solve_us_per_node": 1e6 * solve_s / solved_nodes if solved_nodes else 0.0,
        "linalg.solve_calls": len(solves),
        "linalg.residual_s": total("linalg.block_matvec") + total("linalg.block_row_sum_norm"),
        "linalg.fallback_calls": fallbacks,
        "linalg.fallback_frac": fallbacks / len(solves) if solves else 0.0,
        "linalg.scalar_solve_s": total("linalg.solve_scalar_cyclic"),
        "linalg.system_bytes": max((b for _, b in solves), default=0),
        "scheme.assemble_s": total("scheme.assemble_*_step", cpu_by_name),
        "scheme.advance_self_s": total("scheme.advance"),
        "scheme.init_s": total("scheme.init_state", cpu_by_name),
        "scheme.steps": len(steps),
        "scheme.step_ms.p50": 1e3 * step_q[4],
        "scheme.step_ms.p90": 1e3 * step_q[8],
        "scheme.trajectory_bytes": sum(s[7] or 0 for s in cases),
        "scheme.case_wait_s": sum((s[3] - s[2]) - s[6] for s in cases),
        "grid.compact_check_s": compact_check,
        "analysis.energy_s": total("analysis.energy_pair") + total("analysis.gradient_energy"),
        "analysis.error_s": total("analysis.max_norm_error", cpu_by_name)
                            + total("analysis.posterior_*", cpu_by_name),
        "cli.self_s": self_cpu[root],
        "cli.cases": len(cases),
        "cli.case_overlap": sum(s[3] - s[2] for s in cases) / wall,
        "trace.wall_s": wall,
        "trace.spans": len(spans),
    }
    for layer in ("scheme", "linalg", "grid", "analysis"):
        out[f"layer.{layer}_s"] = layers.get(layer, 0.0)
    out["trace.unattributed_s"] = wall - sum(layers.values())
    return out
