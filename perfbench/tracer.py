"""Span tracer for the benchmark's traced run.

The tracer wraps each module's entry points from outside the package, for
the duration of one traced verdict, and restores the originals afterwards.
A function is wrapped at every binding that holds it, so the copies that
``from ... import`` made in other modules (``_jet_mul`` in ``primitive`` and
``yang_mills``, ``verify_solution`` as ``runner`` sees it, ...) are counted
too; a missed binding would lose calls without any error.

Each call records one span: name, start, end, parent span and run id. Spans
are kept in memory, compacted into arrays between runs, and written out when the run ends. A
span's self time is its duration minus the durations of its direct children;
a layer's busy time counts only its outermost spans, so nested calls of the
same layer are not counted twice.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import time

import numpy as np

# (span name, module, function): wrapped at every binding in the package.
FUNCTIONS = (
    ("fields.jet_mul", "clifford_ym.fields", "_jet_mul"),
    ("fields.invert_value_jet", "clifford_ym.fields", "invert_value_jet"),
    ("fields.sample_points", "clifford_ym.fields", "sample_points"),
    ("primitive.compute_C_jets", "clifford_ym.primitive", "compute_C_jets"),
    ("yang_mills.build_solution", "clifford_ym.yang_mills", "build_solution"),
    ("yang_mills.verify_solution", "clifford_ym.yang_mills", "verify_solution"),
    ("yang_mills.epsilon", "clifford_ym.yang_mills", "epsilon_from_residuals"),
    ("runner.build_case", "clifford_ym.runner", "build_case"),
    ("runner.gauge_check", "clifford_ym.runner", "_gauge_check"),
    ("runner.run_verify", "clifford_ym.runner", "run_verify"),
    ("contraction.build_table", "clifford_ym.contraction", "build_table"),
)

# (span name, module, class, method): wrapped on the class that defines it.
METHODS = (
    ("algebra.batch_product", "clifford_ym.algebra", "_Tables", "batch_product"),
    ("algebra.product", "clifford_ym.algebra", "_Tables", "product"),
    ("fields.exp_jet", "clifford_ym.fields", "ExpField", "jet"),
    ("fields.h_jets", "clifford_ym.fields", "CliffordFieldVector", "jets"),
    ("fields.gauge_jet", "clifford_ym.fields", "GaugeElement", "_memo_jet"),
    ("primitive.conn_jets", "clifford_ym.primitive", "DerivedConnection", "jets"),
    ("primitive.campaign", "clifford_ym.primitive", "PrimitiveSolution", "campaign"),
)


def _pairs(_tables, a, b) -> int:
    """Work of one batch_product call: the number of row pairs multiplied."""
    return a.shape[0] * b.shape[0]


WORK = {"algebra.batch_product": _pairs}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    # Columns of a span row; every value is stored exactly in a float64.
    COLUMNS = ("span", "name", "parent", "run", "nested", "work", "start", "end")

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.runs: list[str] = []
        self._spans: list[tuple] = []
        self._chunks: list[np.ndarray] = []
        self._counter = itertools.count()
        self._stack = [-1]
        self._open: list[int] = []
        self._run = -1
        self._patches: list[tuple[object, str, object]] = []
        self.bindings: dict[str, list[str]] = {}
        self.epoch = time.perf_counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        work = WORK.get(name)
        spans, counter, stack, open_ = self._spans, self._counter, self._stack, self._open
        clock, tracer = time.perf_counter, self

        def traced(*args, **kwargs):
            span = next(counter)
            parent = stack[-1]
            nested = open_[nid]
            open_[nid] = nested + 1
            stack.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_[nid] = nested
                spans.append((span, nid, parent, tracer._run, nested,
                              work(*args) if work is not None else 0, t0, t1))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every target binding with its traced wrapper."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.bindings = {}
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "clifford_ym" or key.startswith("clifford_ym."))]
        for name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, orig)
            found = []
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
                        found.append(f"{mod.__name__}.{key}")
            self.bindings[name] = found
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            self._patch_method(name, cls, attr)
        base = sys.modules["clifford_ym.fields"].CliffordFieldVector
        for cls in _subclasses(base):
            if "_compute_jets" in vars(cls):
                self._patch_method("fields.h_compute", cls, "_compute_jets")

    def _patch_method(self, name: str, cls, attr: str) -> None:
        orig = vars(cls)[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, self.wrap(name, orig))
        self.bindings.setdefault(name, []).append(f"{cls.__module__}.{cls.__name__}.{attr}")

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def begin_run(self, label: str) -> int:
        """Start a new run id; later spans belong to it."""
        self._flush()
        self.runs.append(label)
        self._run = len(self.runs) - 1
        return self._run

    def _flush(self) -> None:
        """Move recorded spans into a compact array chunk."""
        if self._spans:
            self._chunks.append(np.array(self._spans, dtype=np.float64))
            self._spans.clear()

    def spans(self) -> np.ndarray:
        """All spans as rows of COLUMNS, row i being span i."""
        self._flush()
        if not self._chunks:
            return np.zeros((0, len(self.COLUMNS)))
        rows = np.concatenate(self._chunks)
        return rows[np.argsort(rows[:, 0], kind="stable")]

    def layer_tables(self, runs) -> dict[int, dict[str, dict]]:
        """For each run id: per span name, its calls, busy_s, self_s, work,
        and the number of calls made directly under each parent span name."""
        rows = self.spans()
        name = rows[:, 1].astype(np.int64)
        parent = rows[:, 2].astype(np.int64)
        run = rows[:, 3].astype(np.int64)
        outer = rows[:, 4] == 0
        work = rows[:, 5].astype(np.int64)
        dur = rows[:, 7] - rows[:, 6]
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        tables = {}
        for r in runs:
            in_run = run == r
            table = {}
            for nid, label in enumerate(self.names):
                sel = in_run & (name == nid)
                under = {}
                for pid in np.unique(parent_name[sel]):
                    key = "<root>" if pid < 0 else self.names[pid]
                    under[key] = int(np.count_nonzero(sel & (parent_name == pid)))
                table[label] = {
                    "calls": int(np.count_nonzero(sel)),
                    "busy_s": float(dur[sel & outer].sum()),
                    "self_s": float(self_time[sel].sum()),
                    "work": int(work[sel].sum()),
                    "under": under,
                }
            tables[r] = table
        return tables

    def write(self, path) -> int:
        """Write every span as gzip CSV; times in seconds since the tracer started."""
        rows = self.spans()
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,run,name,parent,start_s,end_s,work\n")
            for span, nid, parent, run, _, work, t0, t1 in rows.tolist():
                fh.write(f"{int(span)},{self.runs[int(run)]},{self.names[int(nid)]},"
                         f"{int(parent)},{t0 - self.epoch:.9f},{t1 - self.epoch:.9f},"
                         f"{int(work)}\n")
        return len(rows)
