"""Span recorder for the traced benchmark run.

The recorder replaces module and class attributes with wrappers that
record one span per call: name, start, end, parent span, and one optional
amount taken from the call (right-hand-side columns, kernel points, sheet
bytes).  Spans are kept in flat arrays in memory, so a run with hundreds
of thousands of calls stays small, and are written once when the run ends.
`restore` puts every wrapped attribute back.

A call made on a worker thread whose own stack is empty is attributed to
the span open on the installing thread, which is how the chunks that
`mc_run` hands to its thread pool end up as children of `mc_run`.
"""

import array
import functools
import json
import threading
import time
from contextlib import contextmanager

import numpy as np


class Spans:
    """Recorded spans as arrays; derives durations and self times."""

    def __init__(self, names, name_id, start, end, parent, amount, distinct=None, missing=()):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.amount = np.asarray(amount, dtype=float)
        # span name -> number of distinct argument keys seen
        self.distinct = dict(distinct or {})
        # boundaries that could not be wrapped because they do not exist
        self.missing = list(missing)

    def __len__(self):
        return len(self.start)

    def duration(self) -> np.ndarray:
        return self.end - self.start

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name_id == self.names.index(name)

    def under(self, name: str, parent_name: str) -> np.ndarray:
        """Spans called `name` whose parent span is called `parent_name`."""
        m = self.mask(name)
        has_parent = self.parent >= 0
        pm = np.zeros(len(self), dtype=bool)
        pm[has_parent] = self.mask(parent_name)[self.parent[has_parent]]
        return m & pm

    @functools.cached_property
    def self_time(self) -> np.ndarray:
        """Duration minus the part of the span that its children cover.

        Children on several threads may overlap; the covered part is the
        length of the union of their intervals, clipped to the parent.
        """
        out = self.duration().copy()
        kids = np.flatnonzero(self.parent >= 0)
        if kids.size == 0:
            return out
        order = kids[np.lexsort((self.start[kids], self.parent[kids]))]
        parents = self.parent[order]
        cuts = np.flatnonzero(np.diff(parents)) + 1
        for group in np.split(order, cuts):
            p = self.parent[group[0]]
            s = np.clip(self.start[group], self.start[p], self.end[p])
            e = np.clip(self.end[group], self.start[p], self.end[p])
            reach = np.maximum.accumulate(e)
            prev = np.concatenate(([-np.inf], reach[:-1]))
            out[p] -= float(np.sum(np.maximum(0.0, e - np.maximum(s, prev))))
        return out

    def total(self, name: str) -> dict:
        """Calls, summed duration, summed self time and amount of one name."""
        m = self.mask(name)
        return {
            "calls": int(m.sum()),
            "s": float(self.duration()[m].sum()),
            "self_s": float(self.self_time[m].sum()),
            "amount": float(self.amount[m].sum()),
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=self.name_id,
            start=self.start,
            end=self.end,
            parent=self.parent,
            amount=self.amount,
            distinct=np.array(json.dumps(self.distinct)),
            missing=np.array(json.dumps(self.missing)),
        )

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path, allow_pickle=False) as z:
            return cls(
                names=[str(n) for n in z["names"]],
                name_id=z["name_id"],
                start=z["start"],
                end=z["end"],
                parent=z["parent"],
                amount=z["amount"],
                distinct=json.loads(str(z["distinct"])),
                missing=json.loads(str(z["missing"])),
            )


class SpanRecorder:
    """Wraps attributes at layer boundaries and records a span per call."""

    def __init__(self):
        self._names: list = []
        self._name_ids: dict = {}
        self._name_id = array.array("q")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("q")
        self._amount = array.array("d")
        self._keys: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []
        self._local.stack = self._main_stack
        self._saved: list = []
        self.missing: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        stack = self._stack()
        main = self._main_stack
        parent = stack[-1] if stack else (main[-1] if main else -1)
        with self._lock:
            idx = len(self._start)
            self._name_id.append(nid)
            self._parent.append(parent)
            self._amount.append(0.0)
            self._end.append(float("nan"))
            self._start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack().pop()

    def note_key(self, name: str, key) -> None:
        """Remember one argument key of a call, to count distinct inputs."""
        with self._lock:
            self._keys.setdefault(name, set()).add(key)

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, fn, name: str, probe):
        nid = self._nid(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if probe is not None:
                self._amount[idx] = probe(self, args, kwargs, result)
            return result

        return wrapped

    def wrap(self, owner, attr: str, name: str, probe=None) -> bool:
        """Replace owner.attr by a recording wrapper; False if it is absent.

        `probe(recorder, args, kwargs, result)` returns the span's amount.
        Class attributes keep their kind: a classmethod stays one.
        """
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return False
        if isinstance(raw, classmethod):
            new = classmethod(self._wrapper(raw.__func__, name, probe))
        else:
            new = self._wrapper(raw, name, probe)
        setattr(owner, attr, new)
        self._saved.append((owner, attr, raw))
        return True

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def spans(self) -> Spans:
        with self._lock:
            return Spans(
                self._names,
                self._name_id,
                self._start,
                self._end,
                self._parent,
                self._amount,
                {k: len(v) for k, v in self._keys.items()},
                self.missing,
            )
