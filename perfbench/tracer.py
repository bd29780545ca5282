"""Outside-in span tracer: wraps functions of already-imported modules.

Nothing here knows about nclie.  A `Tracer` records one span per call of a
wrapped function: (name, start, end, parent span, run id).  Spans are kept
in flat arrays in memory and written out once, at the end.

`Patch` installs the wrappers.  A function imported with `from m import f`
has one binding per importing module, and a call through any binding must
land in the span, so `Patch` replaces *every* binding of each wrapped
function in the namespaces it is given, and puts every one back on exit.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to wrap: `owner.attr`, where owner is a module or a class.

    `group` names the layer the span is charged to.  `label` maps the call
    arguments to a suffix of both the span name and the group; `before` and
    `after` map the arguments (and the result) to counter increments.
    """

    owner: object
    attr: str
    group: str
    label: Callable | None = None
    before: Callable | None = None
    after: Callable | None = None

    @property
    def name(self) -> str:
        module = self.owner.__name__ if not isinstance(self.owner, type) else self.owner.__module__
        short = module.rpartition(".")[2]
        if isinstance(self.owner, type):
            return f"{short}.{self.owner.__name__}.{self.attr}"
        return f"{short}.{self.attr}"


class Tracer:
    """In-memory span store with self-time accounting."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.groups: list[str] = []        # group of each span name
        self._name_ids: dict[str, int] = {}
        self.runs: list[str] = []
        self._run = -1
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_run = array("i")
        self.outer = array("b")            # 1 when no ancestor is in the same group
        self.child_time = array("d")       # summed durations of direct children
        self.counts: dict[tuple[int, str], float] = {}   # (run, key) -> total
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def begin_run(self, run_id: str):
        """Spans recorded from now on carry this run id."""
        self.runs.append(run_id)
        self._run = len(self.runs) - 1

    def count(self, key: str, amount=1):
        self.counts[self._run, key] = self.counts.get((self._run, key), 0) + amount

    def span(self, name: str, group: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span and return its result."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        idx = len(self.start)
        depth = self._depth.get(group, 0)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.span_run.append(self._run)
        self.outer.append(depth == 0)
        self.child_time.append(0.0)
        self.end.append(0.0)
        self._depth[group] = depth + 1
        self._stack.append(idx)
        self.start.append(self.clock())
        try:
            return fn(*args, **kwargs)
        finally:
            t = self.clock()
            self.end[idx] = t
            self._stack.pop()
            self._depth[group] = depth
            if self._stack:
                self.child_time[self._stack[-1]] += t - self.start[idx]

    def wrap(self, target: Target, fn):
        name, group = target.name, target.group
        label, before, after = target.label, target.before, target.after
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                for key, amount in before(*args, **kwargs).items():
                    tracer.count(key, amount)
            if label is None:
                result = tracer.span(name, group, fn, *args, **kwargs)
            else:
                tag = label(*args, **kwargs)
                result = tracer.span(f"{name}[{tag}]", f"{group}.{tag}", fn, *args, **kwargs)
            if after is not None:
                for key, amount in after(result, *args, **kwargs).items():
                    tracer.count(key, amount)
            return result

        traced.__traced__ = fn
        return traced

    # -- reading -------------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def group_totals(self, skip_runs=()) -> dict[str, dict[str, float]]:
        """Per group: `calls`, the number of outermost spans; `self_s`, self
        time summed over all its spans; `incl_s`, the summed duration of its
        outermost spans.  Spans of the run ids in `skip_runs` are left out."""
        skip = {i for i, run in enumerate(self.runs) if run in skip_runs}
        out: dict[str, dict[str, float]] = {}
        for i in range(len(self.start)):
            if self.span_run[i] in skip:
                continue
            group = self.groups[self.span_name[i]]
            acc = out.get(group)
            if acc is None:
                acc = out[group] = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
            dur = self.end[i] - self.start[i]
            acc["self_s"] += dur - self.child_time[i]
            if self.outer[i]:
                acc["calls"] += 1
                acc["incl_s"] += dur
        return out

    def counted(self, key: str, skip_runs=()) -> float:
        """Counter total over every run but those in `skip_runs`."""
        return sum(v for (run, k), v in self.counts.items()
                   if k == key and (run < 0 or self.runs[run] not in skip_runs))

    def write(self, path):
        """Write every span: one JSON header line, then one line per span,
        `name start end parent run`, with times in seconds from the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "groups": self.groups, "runs": self.runs,
                                 "columns": ["name", "start", "end", "parent", "run"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.span_name[i]} {self.start[i] - t0:.9f} {self.end[i] - t0:.9f} "
                         f"{self.parent[i]} {self.span_run[i]}\n")


class Patch:
    """Context manager that swaps every binding of each target for a traced
    wrapper, in the given namespaces, and restores all of them on exit."""

    def __init__(self, tracer: Tracer, targets, namespaces):
        self.tracer = tracer
        self.targets = list(targets)
        self.namespaces = list(namespaces)
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self, target: Target):
        owner, attr = target.owner, target.attr
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if not callable(raw) or isinstance(raw, (staticmethod, classmethod)):
            raise TypeError(f"{target.name} is not a plain function")
        if hasattr(raw, "__traced__"):
            raise RuntimeError(f"{target.name} is already traced")
        wrapped = self.tracer.wrap(target, raw)
        self._set(owner, attr, raw, wrapped)
        if isinstance(owner, type):
            return
        for ns in self.namespaces:
            for name, value in list(vars(ns).items()):
                if value is raw:
                    self._set(ns, name, raw, wrapped)

    def _set(self, owner, attr, old, new):
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def _restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
