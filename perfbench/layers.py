"""Layer-timing pass: spans around the calls one layer makes into another.

Each wrapper replaces a callable at the name its caller looks it up by, so
`sim` reaches `evaluate_field` through `conexplore.sim.evaluate_field`, and
the connectivity kernels through `conexplore.connectivity`.  Methods are
wrapped on their class.  A span's self time is its duration minus the spans
nested inside it; the time of `run_trial` outside every span is the `sim`
layer's own time.  Nothing inside the package is edited: the wrappers are
installed by `LayerTimer.install` and removed by `LayerTimer.restore`.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from conexplore import connectivity, harness, netsim, sim
from conexplore.behavior import RobotAgent
from conexplore.dynamics import ReferenceFilter
from conexplore.planner import SmoothPath
from conexplore.world import ObstacleSet

# (owner, attribute, span name): the owner is where the caller binds the name
SPANS = [
    (sim, "evaluate_field", "connectivity.evaluate_field"),
    (connectivity, "WeightFactors", "connectivity.WeightFactors"),
    (connectivity, "fiedler", "connectivity.fiedler"),
    (connectivity, "lambda2_gradient", "connectivity.lambda2_gradient"),
    (sim, "adjacency", "world.adjacency"),
    (ObstacleSet, "clearances", "world.clearances"),
    (ObstacleSet, "clearance", "world.clearance"),
    (harness, "rasterize", "world.rasterize"),
    (sim, "astar", "planner.astar"),
    (sim, "SmoothPath", "planner.SmoothPath"),
    (SmoothPath, "track_frame", "planner.track_frame"),
    (SmoothPath, "closest_point", "planner.closest_point"),
    (RobotAgent, "plan_tick", "behavior.plan_tick"),
    (netsim.Network, "deliver_round", "netsim.deliver_round"),
    (ReferenceFilter, "step", "dynamics.filter_step"),
]

# call sites whose arguments and results the oracles re-check
CAPTURE_EVERY = {"connectivity.evaluate_field": 1000, "world.adjacency": 100}


class LayerTimer:
    """Span recorder plus a seeded subsample of captured calls."""

    def __init__(self, seed: int):
        self.incl = defaultdict(list)  # span name -> inclusive ns per call
        self.self_ns = defaultdict(list)  # span name -> self ns per call
        self.captured = defaultdict(list)  # span name -> [(args, result)]
        self.sent = 0
        self.delivered = 0
        self._stack = []  # child time accumulated under each open span
        self._rng = np.random.default_rng(seed)
        self._saved = []

    def _wrap(self, name, fn):
        stack = self._stack
        incl = self.incl[name]
        own = self.self_ns[name]
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                own.append(dt - stack.pop())
                incl.append(dt)
                if stack:
                    stack[-1] += dt

        return timed

    def _capturing(self, name, fn):
        period = CAPTURE_EVERY[name]
        store = self.captured[name]
        rng = self._rng
        state = {"calls": 0, "next": int(rng.integers(1, period))}

        def capture(*args, **kwargs):
            out = fn(*args, **kwargs)
            state["calls"] += 1
            if state["calls"] >= state["next"]:
                state["next"] += int(rng.integers(period // 2, 3 * period // 2))
                store.append((tuple(np.array(a) if isinstance(a, np.ndarray) else a for a in args), out))
            return out

        return capture

    def _count_send(self, fn):
        def send(net, *args, **kwargs):
            self.sent += 1
            return fn(net, *args, **kwargs)

        return send

    def _count_delivered(self, fn):
        def deliver_round(net, adj):
            inboxes = fn(net, adj)
            self.delivered += sum(len(box) for box in inboxes)
            return inboxes

        return deliver_round

    def install(self):
        for owner, attr, name in SPANS:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            wrapped = self._wrap(name, orig)
            if name in CAPTURE_EVERY:
                wrapped = self._capturing(name, wrapped)
            if name == "netsim.deliver_round":
                wrapped = self._count_delivered(wrapped)
            setattr(owner, attr, wrapped)
        orig = netsim.Network.__dict__["send"]
        self._saved.append((netsim.Network, "send", orig))
        netsim.Network.send = self._count_send(orig)

    def restore(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def trial(self, fn, *args, **kwargs):
        """Run fn as the top-level `sim` span and return (result, self ns)."""
        self._stack.append(0)
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter_ns() - t0
            child = self._stack.pop()
        return out, dt - child

    # -- summaries ------------------------------------------------------------

    def calls(self, name) -> int:
        return len(self.incl.get(name, ()))

    def median_us(self, name, own=False) -> float:
        vals = (self.self_ns if own else self.incl).get(name)
        return statistics.median(vals) / 1e3 if vals else 0.0

    def total_s(self, name) -> float:
        return sum(self.incl.get(name, ())) / 1e9
