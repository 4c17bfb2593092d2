"""The two instruments of the traced run, both outside the program.

* :class:`SpanTimer` wraps each layer's public entry points at class
  level for the duration of a ``with`` block and sums, per layer, the
  wall time, the self time (time not covered by a nested wrapped call)
  and the number of calls.
* :class:`OpcodeLedger` counts interpreter opcodes with ``sys.settrace``
  and attributes each one to the ``repro`` module whose code ran it.
  Opcode counts of one seed repeat exactly, so they compare two builds
  where host noise swamps wall time.
"""

from __future__ import annotations

import collections
import functools
import pathlib
import sys
import time

import harness  # noqa: F401  (puts the checkout's src/ first on sys.path)
import repro
from repro.core.bound import BoundPhase
from repro.core.simulator import ZSim
from repro.core.weave import WeaveEngine
from repro.cpu.ooo import OOOCore
from repro.cpu.simple import SimpleCore
from repro.memory.hierarchy import MemoryHierarchy
from repro.virt.scheduler import Scheduler
from repro.workloads import Workload

#: Public entry points timed by the traced run: (class, method, span).
#: ``setup.sim`` self time is ``ZSim.__init__`` minus the hierarchy;
#: ``run`` minus ``bound`` and ``weave`` is the interval-barrier work.
ENTRY_POINTS = (
    (Workload, "make_threads", "setup.workload"),
    (ZSim, "__init__", "setup.sim"),
    (MemoryHierarchy, "__init__", "setup.hierarchy"),
    (ZSim, "run", "run"),
    (BoundPhase, "run_interval", "bound"),
    (OOOCore, "run_until", "cpu"),
    (SimpleCore, "run_until", "cpu"),
    (MemoryHierarchy, "access", "memory"),
    (Scheduler, "pick_thread", "virt.pick_thread"),
    (Scheduler, "handle_syscall", "virt.syscall"),
    (WeaveEngine, "run_interval", "weave"),
)

#: Ledger layers: ``repro/<subpackage>``, with ``memory`` and ``core``
#: split by module.  Modules not named here land in ``memory.other``,
#: ``core.other`` or ``other``; code outside ``repro`` (the standard
#: library) is charged to its nearest ``repro`` caller.
LEDGER_LAYERS = (
    "cpu",
    "memory.hierarchy", "memory.cache", "memory.cache_array",
    "memory.replacement", "memory.access", "memory.timeline",
    "memory.weave", "memory.other",
    "core.weave", "core.domains", "core.events", "core.bound",
    "core.simulator", "core.host", "core.other",
    "virt", "workloads", "isa", "dbt", "exec", "obs", "other",
)

_REPRO_DIR = str(pathlib.Path(repro.__file__).resolve().parent) + "/"


def layer_of(filename):
    """Ledger layer of a code object's file, or None outside ``repro``."""
    if not filename.startswith(_REPRO_DIR):
        return None
    parts = filename[len(_REPRO_DIR):].rsplit(".", 1)[0].split("/")
    if len(parts) == 1:
        return "other"
    if parts[0] in ("memory", "core"):
        layer = "%s.%s" % (parts[0], parts[1])
        return layer if layer in LEDGER_LAYERS else parts[0] + ".other"
    return parts[0] if parts[0] in LEDGER_LAYERS else "other"


class SpanTimer:
    """Per-layer wall time, self time and calls of wrapped entry points.

    The wrappers of :data:`ENTRY_POINTS` are installed on entering the
    ``with`` block and removed on exit."""

    def __init__(self):
        self.total = collections.defaultdict(float)
        self.self_time = collections.defaultdict(float)
        self.calls = collections.defaultdict(int)
        self._stack = []
        self._patched = []

    def _wrap(self, cls, name, layer):
        original = cls.__dict__[name]
        total, self_time, calls = self.total, self.self_time, self.calls
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                total[layer] += duration
                self_time[layer] += duration - child
                calls[layer] += 1
                if stack:
                    stack[-1] += duration

        self._patched.append((cls, name, original))
        setattr(cls, name, timed)

    def __enter__(self):
        for cls, name, layer in ENTRY_POINTS:
            self._wrap(cls, name, layer)
        return self

    def __exit__(self, *exc):
        while self._patched:
            cls, name, original = self._patched.pop()
            setattr(cls, name, original)
        return False


class OpcodeLedger:
    """Interpreter opcodes per ledger layer, counted by :meth:`count`."""

    def __init__(self):
        self.counts = dict.fromkeys(LEDGER_LAYERS, 0)
        self._layers = {}
        self._tracers = {layer: self._opcode_tracer(layer)
                         for layer in LEDGER_LAYERS}

    def _opcode_tracer(self, layer):
        counts = self.counts

        def on_opcode(frame, event, arg):
            if event == "opcode":
                counts[layer] += 1
            return on_opcode
        return on_opcode

    def _frame_layer(self, frame):
        layers = self._layers
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = layers.get(filename, False)
            if layer is False:
                layer = layers[filename] = layer_of(filename)
            if layer is not None:
                return layer
            frame = frame.f_back
        return "other"

    def _on_call(self, frame, event, arg):
        frame.f_trace_opcodes = True
        return self._tracers[self._frame_layer(frame)]

    def count(self, fn, *args, **kwargs):
        """Call ``fn`` and count the opcodes of every frame it enters."""
        sys.settrace(self._on_call)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.settrace(None)

    @property
    def total(self):
        return sum(self.counts.values())
