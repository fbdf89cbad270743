"""RobotAgents on a fixed graph, stepped the way Simulation steps them.

The protocol tests use this in place of a full simulation.  Robot i stands
still at (0, i, 0).  A secondary's path and a connector's queued target lie
a distance d along +x from the robot, on a straight SmoothPath that starts at
the robot's own position, so the candidacy distance
remaining_length(closest_point(q)) is exactly d.
"""

from __future__ import annotations

import numpy as np

from conexplore import netsim
from conexplore.behavior import PRIME, SECONDARY, BehaviorParams, PlanContext, RobotAgent
from conexplore.planner import SmoothPath


class StaticTeam:
    def __init__(self, adj):
        self.adj = np.asarray(adj, dtype=bool)
        self.n = len(self.adj)
        self.q = np.zeros((self.n, 3))
        self.q[:, 1] = np.arange(self.n)
        self.net = netsim.Network(self.n)
        self.agents = [RobotAgent(i, [], BehaviorParams()) for i in range(self.n)]
        self.round = 0
        self.events = []  # (round, robot, event, detail)
        self.max_primes = 0  # most primes at the end of any round

    def target(self, i, d):
        return self.q[i] + (d, 0.0, 0.0)

    @staticmethod
    def plan(start, goal):
        return SmoothPath([start, goal])

    def travel(self, i, d, role=SECONDARY):
        """Robot i travels toward a target d ahead, as a secondary or the prime."""
        ag = self.agents[i]
        ag.z = self.target(i, d)
        ag.path = self.plan(self.q[i], ag.z)
        ag.role = role

    def queue(self, i, d):
        self.agents[i].queue.append((self.target(i, d), 0.0))

    def ctx(self, i, inbox=()):
        return PlanContext(
            round=self.round,
            n=self.n,
            q=self.q[i],
            inbox=list(inbox),
            send=lambda kind, payload: self.net.send(i, kind, payload),
            plan=self.plan,
            log_event=lambda e, det: self.events.append((self.round, i, e, det)),
        )

    def step(self, step=RobotAgent.plan_tick):
        """Deliver one round and run step(agent, ctx) for every robot."""
        inboxes = self.net.deliver_round(self.adj)
        for i, ag in enumerate(self.agents):
            step(ag, self.ctx(i, inboxes[i]))
        self.round += 1
        self.max_primes = max(self.max_primes, len(self.primes()))

    def primes(self):
        return [i for i, ag in enumerate(self.agents) if ag.role == PRIME]


def run_election(adj, host: int, candidacies: dict):
    """The startup election of Simulation.startup on a static graph.

    Each candidate travels as a secondary with candidacy distance d; the host
    opens the election, and 3(N-1)+1 rounds of message handling follow.
    Returns (winner, rounds): the one robot that is prime at the end (None
    if none is; a tuple if several are), and the rounds from the opening to
    the host's decision.
    """
    team = StaticTeam(adj)
    for i, d in candidacies.items():
        team.travel(i, d)
    host_agent = team.agents[host]
    host_agent.open_election(team.ctx(host))
    opened = team.round
    rounds = float("inf")
    for _ in range(3 * (team.n - 1) + 1):
        team.step(RobotAgent.exchange)
        if host_agent.hosting is None and rounds == float("inf"):
            rounds = team.round - 1 - opened
    primes = team.primes()
    winner = primes[0] if len(primes) == 1 else (tuple(primes) or None)
    return winner, rounds
