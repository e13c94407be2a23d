"""The waiting computation queue and the conflict queue.

Two queue disciplines from the PAX design:

* the **conflict queue** — "each internal description of one (or more)
  computational granules included a queue head for a double
  circularly-linked list of computable but conflicting computational
  granules" — implemented here as a genuine intrusive double
  circularly-linked list with a sentinel head (O(1) append, remove,
  popleft);
* the **waiting computation queue** — "kept in a known order", with
  conflict-released computations "placed ahead of the normal computations
  in the queue and, thus, given higher priority" — implemented as two
  priority classes over the same ring structure.
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = ["RingNode", "ConflictQueue", "WaitingComputationQueue"]


class RingNode:
    """One link of a double circularly-linked list."""

    __slots__ = ("value", "prev", "next")

    def __init__(self, value: Any = None) -> None:
        self.value = value
        self.prev: "RingNode" = self
        self.next: "RingNode" = self


class ConflictQueue:
    """A double circularly-linked list with a sentinel queue head.

    Insertion order is preserved; removal of an interior node is O(1).
    The circular structure means traversal from the head always terminates
    back at the head — the PAX representation.
    """

    __slots__ = ("_head", "_size", "_nodes")

    def __init__(self) -> None:
        self._head = RingNode()  # sentinel
        self._size = 0
        self._nodes: dict[int, RingNode] = {}

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def append(self, value: Any) -> RingNode:
        """Link ``value`` in just before the head (i.e. at the tail)."""
        node = RingNode(value)
        tail = self._head.prev
        node.prev = tail
        node.next = self._head
        tail.next = node
        self._head.prev = node
        self._size += 1
        self._nodes[id(value)] = node
        return node

    def appendleft(self, value: Any) -> RingNode:
        """Link ``value`` in just after the head (i.e. at the front)."""
        node = RingNode(value)
        first = self._head.next
        node.next = first
        node.prev = self._head
        first.prev = node
        self._head.next = node
        self._size += 1
        self._nodes[id(value)] = node
        return node

    def remove(self, value: Any) -> None:
        """Unlink ``value`` in O(1); raises KeyError if absent."""
        node = self._nodes.pop(id(value))
        node.prev.next = node.next
        node.next.prev = node.prev
        node.prev = node.next = node
        self._size -= 1

    def popleft(self) -> Any:
        """Unlink and return the front value; raises IndexError if empty."""
        if self._size == 0:
            raise IndexError("pop from empty conflict queue")
        node = self._head.next
        value = node.value
        self.remove(value)
        return value

    def __iter__(self) -> Iterator[Any]:
        node = self._head.next
        while node is not self._head:
            # capture next before yielding so removal during iteration is safe
            nxt = node.next
            yield node.value
            node = nxt

    def __contains__(self, value: Any) -> bool:
        return id(value) in self._nodes

    def check_ring(self) -> bool:
        """Structural invariant: forward and backward traversals agree."""
        fwd = []
        node = self._head.next
        while node is not self._head:
            fwd.append(node.value)
            node = node.next
        bwd = []
        node = self._head.prev
        while node is not self._head:
            bwd.append(node.value)
            node = node.prev
        return fwd == bwd[::-1] and len(fwd) == self._size


class WaitingComputationQueue:
    """The executive's queue of computable descriptions, in a known order.

    Two priority classes: *elevated* descriptions (conflict-released work
    and indirect-mapping enabling granules) are always served before
    *normal* descriptions; within a class, order is FIFO.  This realizes
    "such conflicting computations would be placed ahead of the normal
    computations in the queue and, thus, given higher priority".
    """

    __slots__ = ("_elevated", "_normal")

    def __init__(self) -> None:
        self._elevated = ConflictQueue()
        self._normal = ConflictQueue()

    def __len__(self) -> int:
        return len(self._elevated) + len(self._normal)

    def __bool__(self) -> bool:
        return len(self) > 0

    def push(self, desc: Any, elevated: bool = False) -> None:
        """Append to the tail of the chosen priority class."""
        (self._elevated if elevated else self._normal).append(desc)

    def push_front(self, desc: Any, elevated: bool = False) -> None:
        """Insert at the head of the chosen priority class."""
        (self._elevated if elevated else self._normal).appendleft(desc)

    def peek(self) -> Any:
        """The description that would be served next; IndexError if empty."""
        q = self._elevated
        if q._size == 0:
            q = self._normal
            if q._size == 0:
                raise IndexError("peek on empty waiting queue")
        return q._head.next.value

    def first_in_window(self, start: int, stop: int, limit: int) -> Any:
        """First of the leading ``limit`` descriptions whose minimum granule
        falls in ``[start, stop]``, or the head if none does.

        Walks the rings directly, with no generator frames (IndexError if
        empty).
        """
        scanned = 0
        head = None
        for q in (self._elevated, self._normal):
            sentinel = q._head
            node = sentinel.next
            while node is not sentinel:
                if scanned >= limit:
                    return head if head is not None else self.peek()
                desc = node.value
                if head is None:
                    head = desc
                if start <= desc.granules.min() <= stop:
                    return desc
                scanned += 1
                node = node.next
        if head is None:
            raise IndexError("peek on empty waiting queue")
        return head

    def pop(self) -> Any:
        """Serve the next description; IndexError if empty."""
        if self._elevated:
            return self._elevated.popleft()
        return self._normal.popleft()

    def remove(self, desc: Any) -> None:
        """Remove a description from whichever class holds it."""
        if desc in self._elevated:
            self._elevated.remove(desc)
        else:
            self._normal.remove(desc)

    def __iter__(self) -> Iterator[Any]:
        yield from self._elevated
        yield from self._normal

    def __contains__(self, desc: Any) -> bool:
        return desc in self._elevated or desc in self._normal
