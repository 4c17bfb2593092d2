"""Weave-phase events: pre-specified dependencies with lower bounds.

Unlike conventional PDES, every weave event is created *before* the weave
phase runs, with (a) a lower bound on its execution cycle (its bound-phase
zero-load cycle) and (b) fully specified parent/child dependencies.  That
prior knowledge is what lets domains synchronize only when an actual
dependency crosses them (Section 3.2.2, Figure 4).

Events are pooled and recycled LIFO, mirroring zsim's per-core slab
allocators for trace events.
"""

from __future__ import annotations


class WeaveEvent:
    """One event in the weave phase.

    ``children`` holds ``(child_event, gap)`` edges: when this event
    finishes at cycle ``d``, the child may start no earlier than
    ``d + gap``, where ``gap`` is the zero-load transfer time between the
    two events.  ``parents_left`` counts unfinished parents.
    """

    __slots__ = ("component", "kind", "line", "min_cycle", "service",
                 "parents_left", "ready", "done", "children", "core_id",
                 "is_response")

    def __init__(self):
        self.children = []
        self.reset(None, "", 0, 0, 0, 0)

    def reset(self, component, kind, line, min_cycle, service, core_id):
        # ``children`` is deliberately left alone: the pool clears it in
        # place on free (invariant: a pooled event has an empty edge
        # list), so reset never reallocates.
        self.component = component
        self.kind = kind
        self.line = line
        self.min_cycle = min_cycle
        self.service = service
        self.core_id = core_id
        self.parents_left = 0
        self.ready = min_cycle
        self.done = None
        self.is_response = False
        return self

    def link(self, child):
        """Add a dependency edge to ``child`` with the zero-load gap
        implied by the two events' lower bounds."""
        gap = child.min_cycle - self.min_cycle - self.service
        if gap < 0:
            gap = 0
        self.children.append((child, gap))
        child.parents_left += 1

    def __repr__(self):
        return ("WeaveEvent(%s@%s, min=%d, done=%s)"
                % (self.kind,
                   self.component.name if self.component else "?",
                   self.min_cycle, self.done))


class EventPool:
    """LIFO-recycled pool of :class:`WeaveEvent` (slab-allocator
    analogue: events for an interval are freed together as soon as the
    interval is fully simulated)."""

    def __init__(self):
        self._free = []
        self.allocated = 0
        self.recycled = 0

    def alloc(self, component, kind, line, min_cycle, service, core_id):
        if self._free:
            self.recycled += 1
            event = self._free.pop()
        else:
            self.allocated += 1
            event = WeaveEvent()
        return event.reset(component, kind, line, min_cycle, service,
                           core_id)

    def free_all(self, events):
        """Recycle a whole interval's events (LIFO order).  Edge lists
        are cleared in place — the paired reset() skips them — so a
        steady-state interval allocates no per-event lists at all."""
        free = self._free
        for event in events:
            event.children.clear()
            free.append(event)

    def __len__(self):
        return len(self._free)
