"""Partitioned global data map with random-peer lookup.

The "global mapping (of which data is stored where) is not replicated on
each node but instead partitioned"; when a node needs a block it does not
host, it "asks the storage filter on a randomly selected compute node",
and it "keeps track of which interval it has requested from other
computing nodes" to avoid duplicate traffic.

:class:`DirectoryClient` is that record, and the one table of what a
node has asked its peers: per array the owner walk (the peers asked, the
blocks waiting for the answer, the peer asked last and when to ask it
again) or the resolved owner, and per block the fetch in flight (its
owner and when to ask again).  Like ``LocalStore`` it is pure: every
method takes the clock as ``now`` and returns the :class:`Send` s the
storage filter writes, counts and traces.

The walk is a sequence of *probes*: the requester asks a random peer; a
peer that hosts the array answers, otherwise it reports a miss and the
requester probes another peer it has not asked yet.  One deliberate
deviation from the paper (documented in DESIGN.md): probes exclude
already-visited peers, so a walk asks at most ``n_live - 1`` peers
before it restarts, even for adversarial RNG draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.errors import DoocError

#: seconds before an unanswered fetch or lookup is retransmitted
RETRANSMIT_S = 0.25


class Send(NamedTuple):
    """A request for a peer: ``op`` is ``"lookup"`` (``block`` -1) or
    ``"fetch"``; ``why`` is ``""``, ``"retry"`` (the request went
    unanswered) or ``"restart"`` (every live peer answered "miss", so the
    walk asks them again)."""

    op: str
    peer: int
    array: str
    block: int = -1
    why: str = ""


@dataclass
class _Walk:
    #: peers asked since the walk (re)started
    visited: set[int] = field(default_factory=set)
    #: blocks to fetch once the owner is known
    waiting: list[int] = field(default_factory=list)
    #: the peer asked last; None while no live peer is left to ask (the
    #: walk is parked until the array is re-homed)
    asked: int | None = None
    #: when to ask ``asked`` again
    due: float = 0.0


class DirectoryClient:
    """One node's owner walks and peer fetches (see the module doc)."""

    def __init__(self, node: int, n_nodes: int, rng: np.random.Generator):
        if not 0 <= node < n_nodes:
            raise DoocError(f"node {node} outside cluster of {n_nodes}")
        self.node = node
        self.n_nodes = n_nodes
        self.rng = rng
        self._walks: dict[str, _Walk] = {}
        #: (array, block) -> (owner, retransmit deadline) of fetches in flight
        self._fetches: dict[tuple[str, int], tuple[int, float]] = {}
        self.resolved: dict[str, int] = {}  # cache: array -> owner
        self.evicted: set[int] = set()  # dead peers: never asked again

    def fetch(self, array: str, block: int, now: float) -> list[Send]:
        """``block`` of a remote array is needed: fetch it from the known
        owner, or wait for the array's owner walk (started by the first
        block to wait)."""
        owner = self.resolved.get(array)
        if owner is not None:
            self._fetches[(array, block)] = (owner, now + RETRANSMIT_S)
            return [Send("fetch", owner, array, block)]
        walk = self._walks.setdefault(array, _Walk())
        walk.waiting.append(block)
        return self._probe(array, walk, now) if len(walk.waiting) == 1 else []

    def lookup_reply(self, array: str, owner: int, hit: bool,
                     now: float) -> list[Send]:
        """Peer ``owner`` answered a lookup: on a hit the waiting blocks
        are fetched from it, on a miss from the peer asked last the walk
        asks the next peer.  A reply with no walk open (a duplicate, or
        the walk is closed) is ignored, and so is a miss from any other
        peer: it answers a lookup the walk has moved past (the original
        of a retransmit, arriving late), and advancing on it would skip
        the answer still due.  A hit is the answer whoever sends it."""
        walk = self._walks.get(array)
        if walk is None:
            return []
        if not hit:
            return self._probe(array, walk, now) if owner == walk.asked \
                else []
        del self._walks[array]
        self.resolved[array] = owner
        return [s for b in walk.waiting for s in self.fetch(array, b, now)]

    def fetched(self, array: str, block: int) -> None:
        """A fetch was answered (``blockdata`` or ``fetch_failed``)."""
        self._fetches.pop((array, block), None)

    def due(self, now: float) -> list[Send]:
        """The retransmits due at ``now``: each unanswered fetch and
        lookup is sent again to the same peer and rescheduled."""
        sends = []
        for (array, block), (owner, due) in self._fetches.items():
            if due <= now:
                self._fetches[(array, block)] = (owner, now + RETRANSMIT_S)
                sends.append(Send("fetch", owner, array, block, "retry"))
        for array, walk in self._walks.items():
            if walk.asked is not None and walk.due <= now:
                walk.due = now + RETRANSMIT_S
                sends.append(Send("lookup", walk.asked, array, why="retry"))
        return sends

    def deadline(self) -> float | None:
        """When the earliest retransmit is due (None: nothing is asked)."""
        return min((*(due for _, due in self._fetches.values()),
                    *(w.due for w in self._walks.values()
                      if w.asked is not None)), default=None)

    def evict(self, node: int, now: float) -> list[Send]:
        """Never ask the dead peer ``node`` again (idempotent).

        Its cached resolutions are dropped (the array is being re-homed
        to a survivor); a fetch in flight to it is re-sent through a new
        owner walk, and a walk that asked it moves to the next peer, so
        their blocks' read waiters stay parked and no attempt is burned.
        """
        if node == self.node:
            raise DoocError(f"node {node} cannot evict itself")
        if not 0 <= node < self.n_nodes:
            raise DoocError(f"node {node} outside cluster of {self.n_nodes}")
        self.evicted.add(node)
        for array in [a for a, owner in self.resolved.items() if owner == node]:
            del self.resolved[array]
        sends = []
        for key, (owner, _) in list(self._fetches.items()):
            if owner == node:
                del self._fetches[key]
                sends += self.fetch(*key, now)
        for array, walk in self._walks.items():
            if walk.asked == node:
                sends += self._probe(array, walk, now)
        return sends

    def rehome(self, array: str) -> list[int]:
        """``array`` moved: forget its owner, walk and fetches; returns
        the blocks that were waiting for them, in order."""
        self.resolved.pop(array, None)
        walk = self._walks.pop(array, None)
        blocks = set(walk.waiting) if walk is not None else set()
        for key in [k for k in self._fetches if k[0] == array]:
            del self._fetches[key]
            blocks.add(key[1])
        return sorted(blocks)

    def invalidate(self, array: str) -> None:
        """Forget the cached owner of an array (deleted, or it answered
        a fetch with ``fetch_failed``): its next fetch walks again."""
        self.resolved.pop(array, None)

    def clear(self) -> None:
        """Abandon every walk and fetch: nothing waits for them any more."""
        self._walks.clear()
        self._fetches.clear()

    def _probe(self, array: str, walk: _Walk, now: float) -> list[Send]:
        """Ask the next peer: one draw over the live peers the walk has
        not asked, in ascending order; all of them asked, the walk
        restarts over all live peers; none is left, it parks."""
        live = [n for n in range(self.n_nodes)
                if n != self.node and n not in self.evicted]
        if not live:
            walk.asked = None
            return []
        candidates = [n for n in live if n not in walk.visited]
        why = ""
        if not candidates:
            walk.visited.clear()
            candidates, why = live, "restart"
        peer = int(self.rng.choice(candidates))
        walk.visited.add(peer)
        walk.asked, walk.due = peer, now + RETRANSMIT_S
        return [Send("lookup", peer, array, why=why)]
