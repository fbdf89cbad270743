import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conexplore.netsim import CANDIDACY, Message, Network


def flood(adj: np.ndarray, src: int, rounds_budget: int):
    """Flood one message on a static graph; map robot -> delivery round (None if missed)."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    net = Network(n)
    net.send(src, "flood", ())
    received = {i: None for i in range(n)}
    received[src] = 0
    for r in range(1, rounds_budget + 1):
        inboxes = net.deliver_round(adj)
        for i in range(n):
            if inboxes[i] and received[i] is None:
                received[i] = r
    return received


def line_graph(n):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return adj


def star_graph(n):
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = adj[1:, 0] = True
    return adj


def random_connected(rng, n):
    """Random spanning tree plus extra edges."""
    adj = np.zeros((n, n), dtype=bool)
    order = rng.permutation(n)
    for k in range(1, n):
        j = order[k]
        i = order[rng.integers(0, k)]
        adj[i, j] = adj[j, i] = True
    for _ in range(rng.integers(0, n)):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            adj[i, j] = adj[j, i] = True
    return adj


class TestMessage:
    def test_key_identity(self):
        m = Message(src=2, kind=CANDIDACY, payload=(0.5,), ttl=3, seq=7)
        assert m.key == (2, CANDIDACY, 7)


class TestNetwork:
    def test_direct_neighbor_delivery(self):
        net = Network(2)
        net.send(0, "x", (1, 2))
        inboxes = net.deliver_round(np.array([[0, 1], [1, 0]], dtype=bool))
        assert len(inboxes[1]) == 1
        assert inboxes[1][0].payload == (1, 2)
        assert inboxes[0] == []

    def test_no_delivery_without_edge(self):
        net = Network(2)
        net.send(0, "x")
        inboxes = net.deliver_round(np.zeros((2, 2), dtype=bool))
        assert inboxes == [[], []]

    def test_line_relay_one_hop_per_round(self):
        n = 5
        net = Network(n)
        net.send(0, "x")
        adj = line_graph(n)
        arrival = {}
        for r in range(1, n):
            inboxes = net.deliver_round(adj)
            for i in range(n):
                if inboxes[i] and i not in arrival:
                    arrival[i] = r
        assert arrival == {1: 1, 2: 2, 3: 3, 4: 4}

    def test_duplicate_suppression(self):
        # triangle: node 2 hears the message from 0 and 1 but keeps one copy
        adj = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=bool)
        net = Network(3)
        net.send(0, "x")
        first = net.deliver_round(adj)
        assert len(first[1]) == 1 and len(first[2]) == 1
        second = net.deliver_round(adj)
        assert second == [[], [], []]

    def test_ttl_limits_propagation(self):
        net = Network(4)
        net.send(0, "x", ttl=1)
        adj = line_graph(4)
        net.deliver_round(adj)
        inboxes = net.deliver_round(adj)
        assert len(inboxes[2]) == 1
        inboxes = net.deliver_round(adj)
        assert inboxes[3] == []

    def test_trace_records_neighbor_hops_only(self):
        trace = []
        net = Network(4, trace=trace)
        net.send(0, "x")
        adj = line_graph(4)
        for _ in range(3):
            net.deliver_round(adj)
        for r, src, dst, kind, ttl in trace:
            assert adj[src, dst]
        assert [(src, dst) for _, src, dst, _, _ in trace] == [(0, 1), (1, 2), (2, 3)]

    def test_deterministic_replay(self):
        def run():
            rng = np.random.default_rng(12)
            net = Network(6)
            log = []
            for r in range(8):
                adj = random_connected(rng, 6)
                if r % 2 == 0:
                    net.send(r % 6, "x", (r,))
                inboxes = net.deliver_round(adj)
                log.append([[m.key for m in box] for box in inboxes])
            return log

        assert run() == run()

    def test_seq_monotone(self):
        net = Network(3)
        m1 = net.send(0, "a")
        m2 = net.send(1, "b")
        assert m2.seq > m1.seq


class TestFlood:
    def test_star_reaches_all_in_two_rounds(self):
        got = flood(star_graph(6), src=3, rounds_budget=5)
        assert got[3] == 0 and got[0] == 1
        assert all(got[i] == 2 for i in range(1, 6) if i != 3)

    def test_line_rounds_equal_distance(self):
        got = flood(line_graph(7), src=0, rounds_budget=6)
        assert got == {i: (i if i else 0) for i in range(7)}

    def test_budget_too_small_misses(self):
        got = flood(line_graph(5), src=0, rounds_budget=2)
        assert got[3] is None and got[4] is None

    def test_disconnected_never_arrives(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        got = flood(adj, src=0, rounds_budget=10)
        assert got[2] is None

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_rounds_match_bfs_distance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        adj = random_connected(rng, n)
        src = int(rng.integers(0, n))
        got = flood(adj, src, rounds_budget=n - 1)
        # BFS oracle
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for i in frontier:
                for j in np.nonzero(adj[i])[0]:
                    j = int(j)
                    if j not in dist:
                        dist[j] = dist[i] + 1
                        nxt.append(j)
            frontier = nxt
        assert got == dist
