"""In-memory span recorder for the ``snl`` package.

``Recorder.install`` wraps every public function of the given modules in a
span and patches each place that holds a reference to it: the defining
module, names re-imported elsewhere (``spectral.matmul``), and lists of
functions or tuples such as ``verify.GROUPS``. ``uninstall`` restores the
originals, so tracing can be switched per operation.

A span stores its name, its parent, the benchmark operation it belongs to,
its thread and its start and end time. Parents are tracked per thread; the
first span on a worker thread (``finite_diff`` probes run on a pool) takes
as parent the innermost open span of the client thread, which is blocked
waiting for it. Spans live in flat arrays until the run ends.
"""

from array import array
import functools
import inspect
import itertools
import threading
import time

import numpy as np

# finite_diff hands its probes a closure that no module attribute reaches;
# its first argument is traced under this name so loss evaluations are
# counted where they happen.
LOSS_EVAL = "gradcheck.finite_diff.loss_eval"


class Recorder:
    def __init__(self, modules):
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack = []
        self.names = []
        self._name_ids = {}
        self.op = -1
        self._cols = {
            "id": array("q"), "parent": array("q"), "op": array("q"),
            "name": array("l"), "thread": array("Q"),
            "start": array("d"), "end": array("d"),
        }
        self._plan = self._patch_plan(modules)

    # --- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def _stack(self) -> list:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            client = self._client_stack
            parent = client[-1] if client else -1
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent, self.op

    def _exit(self, stack, sid, parent, op, nid, t0, t1):
        stack.pop()
        c = self._cols
        with self._lock:
            c["id"].append(sid)
            c["parent"].append(parent)
            c["op"].append(op)
            c["name"].append(nid)
            c["thread"].append(threading.get_ident())
            c["start"].append(t0)
            c["end"].append(t1)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        count_probes = name == "gradcheck.finite_diff"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_probes and args:
                args = (self.wrap(LOSS_EVAL, args[0]),) + args[1:]
            stack, sid, parent, op = self._enter()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(stack, sid, parent, op, nid, t0, time.perf_counter())

        return traced

    def operation(self, label: str, fn):
        """Run ``fn`` as one benchmark operation: a root span named ``op:label``."""
        nid = self.name_id("op:" + label)
        stack, sid, parent, _ = self._enter()
        outer, self.op = self.op, sid
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.op = outer
            self._exit(stack, sid, parent, sid, nid, t0, t1)

    # --- patching ------------------------------------------------------------

    def _patch_plan(self, modules):
        wrapped = {}
        for mod in modules:
            for attr, val in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(val)
                    and val.__module__ == mod.__name__
                ):
                    short = mod.__name__.rsplit(".", 1)[-1]
                    wrapped[val] = self.wrap(f"{short}.{val.__name__}", val)

        def swap(v):
            if inspect.isfunction(v):
                return wrapped.get(v, v)
            if isinstance(v, tuple):
                return tuple(swap(x) for x in v)
            return v

        plan = []
        for mod in modules:
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and val in wrapped:
                    plan.append((mod, attr, val, wrapped[val]))
                elif isinstance(val, list):
                    new = [swap(x) for x in val]
                    if any(a is not b for a, b in zip(new, val)):
                        plan.append((mod, attr, list(val), new))
        return plan

    def install(self) -> None:
        for mod, attr, _, new in self._plan:
            if isinstance(new, list):
                getattr(mod, attr)[:] = new
            else:
                setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, old, _ in self._plan:
            if isinstance(old, list):
                getattr(mod, attr)[:] = old
            else:
                setattr(mod, attr, old)

    # --- output --------------------------------------------------------------

    def _columns(self) -> dict:
        return {k: np.frombuffer(v, dtype=v.typecode) for k, v in self._cols.items()}

    def table(self) -> "SpanTable":
        return SpanTable(self._columns(), list(self.names))

    def write(self, path: str) -> None:
        """Write every span column, plus the name table, to one .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self._columns())


class SpanTable:
    """Spans as columns, indexed by span id, with self time computed."""

    def __init__(self, cols: dict, names: list):
        order = np.argsort(cols["id"], kind="stable")
        for k, v in cols.items():
            setattr(self, k, np.asarray(v)[order])
        self.names = names
        self.dur = self.end - self.start
        n = self.id.size
        row = np.full(int(self.id.max()) + 1 if n else 0, -1)
        row[self.id] = np.arange(n)
        self.prow = np.where(self.parent >= 0, row[np.maximum(self.parent, 0)], -1)
        self.self_time = self.dur - self._child_cover()
        # every span carries the id of its operation; an operation's label
        # is the name of its root span, "op:<label>"
        self.op_name = self.name[row[self.op]] if n else self.name

    def _child_cover(self) -> np.ndarray:
        """Part of each span's interval covered by its children.

        Children on the parent's thread run one after another, so their
        durations add. Children on other threads can overlap, so their
        intervals are merged first.
        """
        n = self.dur.size
        has_parent = self.prow >= 0
        same = has_parent.copy()
        same[has_parent] = self.thread[has_parent] == self.thread[self.prow[has_parent]]
        cover = np.bincount(self.prow[same], weights=self.dur[same], minlength=n)
        cross = np.flatnonzero(has_parent & ~same)
        if cross.size:
            groups = {}
            for i in cross:
                groups.setdefault(int(self.prow[i]), []).append((self.start[i], self.end[i]))
            for p, ivs in groups.items():
                ivs.sort()
                total, lo, hi = 0.0, ivs[0][0], ivs[0][1]
                for s, e in ivs[1:]:
                    if s > hi:
                        total += hi - lo
                        lo, hi = s, e
                    else:
                        hi = max(hi, e)
                cover[p] += total + hi - lo
        return cover

    def under(self, name: str) -> np.ndarray:
        """True for spans that have an ancestor span called ``name``."""
        n = self.dur.size
        if name not in self.names:
            return np.zeros(n, dtype=bool)
        target = self.name == self.names.index(name)
        flag = np.zeros(n, dtype=bool)
        cur = self.prow.copy()
        live = np.flatnonzero(cur >= 0)
        while live.size:
            flag[live] |= target[cur[live]]
            cur[live] = self.prow[cur[live]]
            live = live[cur[live] >= 0]
        return flag

    def per_op(self, label: str, name: str, field: str = "dur", mask=None) -> np.ndarray:
        """One value per operation labelled ``label``: the summed ``field``
        ("dur", "self" or "calls") of its spans called ``name``."""
        key = "op:" + label
        if key not in self.names:
            return np.zeros(0)
        lid = self.names.index(key)
        ops = self.id[(self.name == lid) & (self.id == self.op)]
        sel = self.op_name == lid
        sel &= self.name == (self.names.index(name) if name in self.names else -1)
        if mask is not None:
            sel &= mask
        vals = {"dur": self.dur, "self": self.self_time, "calls": np.ones_like(self.dur)}[field]
        idx = np.searchsorted(ops, self.op[sel])
        return np.bincount(idx, weights=vals[sel], minlength=ops.size)
