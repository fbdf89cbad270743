"""Round-based 1-hop message passing over the time-varying neighbor graph.

Every message kind floods: a receiver-side relay re-broadcasts fresh messages
with a decremented hop budget on the next round.  Duplicate suppression is by
(src, kind, seq).  Delivery is deterministic: outboxes and inboxes are
processed in robot-index order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CANDIDACY = "candidacy"
ELECTION_OPEN = "election_open"
WINNER_ANNOUNCE = "winner_announce"
PRESENCE_QUERY = "presence_query"
PRESENCE_REPLY = "presence_reply"


@dataclass(frozen=True)
class Message:
    src: int
    kind: str
    payload: tuple
    ttl: int
    seq: int

    @property
    def key(self):
        return (self.src, self.kind, self.seq)


class Network:
    """Per-round mailboxes with automatic flood relaying."""

    def __init__(self, n: int, trace=None):
        self.n = n
        self._out = [[] for _ in range(n)]
        self._seen = [set() for _ in range(n)]
        self._seq = 0
        self.round = 0
        self.trace = trace  # optional list collecting (round, src, dst, kind, ttl)

    def send(self, src: int, kind: str, payload=(), ttl=None):
        if ttl is None:
            ttl = self.n - 1
        self._seq += 1
        msg = Message(src=src, kind=kind, payload=tuple(payload), ttl=ttl, seq=self._seq)
        self._seen[src].add(msg.key)
        self._out[src].append(msg)
        return msg

    def deliver_round(self, adj: np.ndarray):
        """Deliver queued messages to current 1-hop neighbors; returns inboxes."""
        inboxes = [[] for _ in range(self.n)]
        new_out = [[] for _ in range(self.n)]
        for i in range(self.n):
            for msg in self._out[i]:
                for j in np.nonzero(adj[i])[0]:
                    j = int(j)
                    if msg.key in self._seen[j]:
                        continue
                    self._seen[j].add(msg.key)
                    inboxes[j].append(msg)
                    if self.trace is not None:
                        self.trace.append((self.round, i, j, msg.kind, msg.ttl))
                    if msg.ttl > 0:
                        new_out[j].append(
                            Message(msg.src, msg.kind, msg.payload, msg.ttl - 1, msg.seq)
                        )
        self._out = new_out
        self.round += 1
        return inboxes

