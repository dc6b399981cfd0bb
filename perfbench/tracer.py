"""Span tracing of the solver's layers, installed from outside the program.

Every public function of the traced euler2d modules is replaced, as a module
attribute, by a wrapper that records one span per call: name, parent span,
start, end, and whether the call raised.  Callers reach these functions as
``module.func`` or through module globals, so attribute replacement catches
every call.  ``Tracer.uninstall`` puts the original functions back.

A span's self time is its duration minus the durations of its direct child
spans (calls are synchronous, so children nest inside their parent).
"""

import functools
import inspect
import os
import time
from collections import defaultdict

TRACED_MODULES = (
    "spectral",
    "lagrangian",
    "interpolation",
    "eulerian",
    "runner",
    "diagnostics",
    "io",
)


def _first_arg_size(args, kwargs):
    return int(args[0].size)


def _recurrence_terms(args, kwargs):
    s = args[2] if len(args) > 2 else kwargs["s"]
    return max(int(s) - 1, 0)


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0] if args else kwargs["path"])


# Work counters computed from the arguments of a traced call:
# traced function -> (counter name, function of (args, kwargs)).
COUNTERS = {
    "spectral.forward": ("spectral.transform_elems", _first_arg_size),
    "spectral.inverse": ("spectral.transform_elems", _first_arg_size),
    "lagrangian.next_coefficient": ("lagrangian.recurrence_terms", _recurrence_terms),
    "io.write_field": ("io.bytes_written", _file_bytes),
    "io.write_csv": ("io.bytes_written", _file_bytes),
    "io.write_config": ("io.bytes_written", _file_bytes),
}


class Tracer:
    """Records nested spans of wrapped calls and derived work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # each span: [name, parent index or -1, start, end, failed]
        self.spans = []
        self.counters = defaultdict(int)
        self._open = []
        self._patched = []

    def wrap(self, name, func):
        """Return a wrapper of func that records a span named name."""
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else -1
            index = len(tracer.spans)
            span = [name, parent, 0.0, 0.0, False]
            tracer.spans.append(span)
            tracer._open.append(index)
            span[2] = tracer.clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = tracer.clock()
                tracer._open.pop()
            if counter is not None:
                tracer.counters[counter[0]] += counter[1](args, kwargs)
            return result

        return traced

    def install(self, package):
        """Wrap the public functions defined in each of package's modules."""
        for short in TRACED_MODULES:
            module = getattr(package, short)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                setattr(module, attr, self.wrap(f"{short}.{attr}", value))
                self._patched.append((module, attr, value))

    def uninstall(self):
        """Restore every function replaced by install, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def function_stats(spans):
    """Aggregate spans by name: calls, self_s, incl_s, failed."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, failed in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "failed": 0})
    # inclusive time counts only the outermost span of a recursive name
    outer = _outermost(spans)
    for i, (name, parent, start, end, failed) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        entry["failed"] += int(failed)
        if outer[i]:
            entry["incl_s"] += end - start
    return dict(stats)


def _outermost(spans):
    """For each span, whether no ancestor span has the same name."""
    flags = []
    for name, parent, *_ in spans:
        ok = True
        while parent >= 0:
            if spans[parent][0] == name:
                ok = False
                break
            parent = spans[parent][1]
        flags.append(ok)
    return flags
