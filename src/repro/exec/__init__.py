"""Execution backends: how the bound-weave engine runs on the host.

The engine layers split "what to run" from "how to run it":

* :mod:`repro.core.bound` and :mod:`repro.core.weave` produce the work —
  bound-phase core runs in barrier wake order, and the weave-phase event
  graph partitioned into domains.
* An :class:`ExecutionBackend` owns the host resources (worker
  processes, pipes) that execute that work.

Two backends ship:

* :class:`SerialBackend` — the default and the reference; runs
  everything inline on the calling thread.
* :class:`ProcessBackend` — crash-tolerant speculation on real OS worker
  processes forked at the interval barrier: workers speculate bound-phase
  core runs against a copy-on-write replica, the driver validates the
  recorded accesses against the authoritative hierarchy and commits (or
  re-runs inline); a worker dying mid-interval can only cost wasted
  speculation, never corrupted state.

There are no thread backends: under the GIL a worker-thread pool runs
slower than the serial loop, so host-thread scaling (the paper's Fig. 8)
comes from the analytic :class:`~repro.core.host.HostModel` instead.

The cardinal invariant (the ZSim property the equivalence suite pins):
backends may change *wall time*, never *simulated results*.  For one
seed, every backend produces the same instruction counts, cycles,
per-core stats, and weave delays as :class:`SerialBackend`.
"""

from repro.errors import ConfigError
from repro.exec.backend import ExecutionBackend
from repro.exec.process import ProcessBackend
from repro.exec.serial import SerialBackend

#: Valid names for ``--backend`` / ``config.boundweave.backend``.
BACKEND_NAMES = ("serial", "process")

_BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}


def make_backend(name, host_threads=None):
    """Instantiate a backend by name (``serial``/``process``); raises
    :class:`~repro.errors.ConfigError` (a ValueError subclass) for
    unknown names."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ConfigError("Unknown execution backend: %r (valid: %s)"
                          % (name, ", ".join(BACKEND_NAMES))) from None
    return cls(host_threads=host_threads)


__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "make_backend",
]
