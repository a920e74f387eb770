"""Event heap for the discrete-event engine.

Heap entries are ``(time, seq, event)`` tuples, so ordering is the
interpreter's native tuple comparison: earlier time first, and at equal
times the lower sequence number (the earlier-scheduled event) first.
``seq`` is unique, so the comparison never reaches the
:class:`Event` itself. The :class:`Event` is the caller's handle: it
carries the callback and the ``cancelled`` flag.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "EventQueue"]


class Event:
    """A scheduled callback; cancel it by setting ``cancelled``."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable, args: Tuple) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False


class EventQueue:
    """Min-heap of events with stable FIFO ordering at equal times.

    ``heap`` is the raw ``(time, seq, event)`` list in :mod:`heapq`
    order; the engine's run loop reads it directly. ``next_seq`` is the
    sequence number the next push will take.
    """

    def __init__(self) -> None:
        self.heap: List[Tuple[float, int, Event]] = []
        self.next_seq = 0

    def push(self, time: float, fn: Callable, *args: Any) -> Event:
        seq = self.next_seq
        self.next_seq = seq + 1
        event = Event(time, seq, fn, args)
        heapq.heappush(self.heap, (time, seq, event))
        return event

    def reserve(self, count: int) -> int:
        """Claim ``count`` consecutive sequence numbers; return the first.

        Entries merged into the heap order from outside it (the
        engine's arrival schedule) take their tie-break ranks from such
        a block, exactly as if they had been pushed one by one here.
        """
        first = self.next_seq
        self.next_seq = first + count
        return first

    def pop(self) -> Optional[Event]:
        while self.heap:
            event = heapq.heappop(self.heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        heap = self.heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return sum(1 for entry in self.heap if not entry[2].cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() is not None
