"""Control laws on tracked path frames, traveling-efficiency consensus, and
the per-robot role state machine with its flooding elections."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import netsim
from .planner import SmoothPath

CONNECTOR = "connector"
PRIME = "prime_traveler"
SECONDARY = "secondary_traveler"
ANCHOR = "anchor"

ROLE_CODES = {PRIME: 1, SECONDARY: 2, ANCHOR: 3, CONNECTOR: 4}


class AnchorViolation(Exception):
    """An anchored robot left its target ball."""


@dataclass
class BehaviorParams:
    R_z: float = 1.0
    v_cruise: float = 1.0
    x_c: float = 0.1
    x_M: float = 0.6
    R_gamma: float | None = None
    alpha: float = 0.5
    sigma: float = 3.0
    k_p: float = 2.0
    k_v: float = 4.0
    k_z: float = 2.0
    k_consensus: float = 1.0
    # travelers anchor at arrival_frac * R_z; entering with this margin leaves
    # runway for the confinement barrier, which is too stiff to integrate when
    # engaged right at the R_z boundary
    arrival_frac: float = 0.8

    def __post_init__(self):
        if self.R_gamma is None:
            self.R_gamma = self.R_z
        if not (0.0 <= self.x_c < self.x_M):
            raise ValueError("need 0 <= x_c < x_M")
        if self.sigma < 1.0:
            raise ValueError("sigma must be >= 1")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if not (0.0 < self.arrival_frac <= 1.0):
            raise ValueError("arrival_frac must lie in (0, 1]")
        for g in (self.k_p, self.k_v, self.k_z, self.k_consensus, self.R_z, self.v_cruise):
            if g <= 0:
                raise ValueError("gains and radii must be positive")


# -- control laws ------------------------------------------------------------
#
# The motion laws act on the tracked path frame (q_gamma, v_gamma, a_gamma):
# the virtual point on the path, its velocity and its acceleration, as
# SmoothPath.track_frame returns them.


def row_dots(a, b):
    """Dot products of the 3-rows of the flat float lists a and b, one per row pair.

    One batched np.vecdot call: numpy takes each row's dot product with the
    same BLAS ddot that ndarray.dot uses on a pair of 3-vectors, so every
    value has the bits of that row's own .dot.  A plain left-to-right float
    sum does not: ddot fuses multiply-adds.  struct reads the lists in half
    the time np.array takes.
    """
    ab = np.frombuffer(struct.pack(f"{len(a) + len(b)}d", *a, *b)).reshape(2, -1, 3)
    return np.vecdot(ab[0], ab[1]).tolist()


def direction_alignment(xx: float, yy: float, xy: float) -> float:
    """(1 + cos angle)/2 between two vectors x and y, from their dot products
    xx = x.x, yy = y.y and xy = x.y; 1 if either vector is zero."""
    nx = math.sqrt(xx)
    ny = math.sqrt(yy)
    if nx == 0.0 or ny == 0.0:
        return 1.0
    c = xy / (nx * ny)
    # max(-1.0, min(1.0, c)), with its verdict on ties and NaN
    c = c if c < 1.0 else 1.0
    return 0.5 * (1.0 + (c if c > -1.0 else -1.0))


def ramp(x: float, x_c: float, x_M: float) -> float:
    """1 for x <= x_c, cosine descent to 0 at x_M, 0 beyond."""
    if x <= x_c:
        return 1.0
    if x >= x_M:
        return 0.0
    return float(0.5 + 0.5 * np.cos((x - x_c) / (x_M - x_c) * np.pi))


def tracking_errors(q, v, frame):
    """(v_gamma - v, q_gamma - q): velocity and position error to the path frame."""
    q_gamma, v_gamma, _ = frame
    return (
        [v_gamma[0] - v[0], v_gamma[1] - v[1], v_gamma[2] - v[2]],
        [q_gamma[0] - q[0], q_gamma[1] - q[1], q_gamma[2] - q[2]],
    )


def traveling_efficiency(dvdv: float, dqdq: float, bp: BehaviorParams) -> float:
    """Tracking quality in [0, 1] from the blended norms of the velocity and
    position errors, given as their squares dv.dv and dq.dq."""
    e = (1.0 - bp.alpha) * math.sqrt(dvdv) + bp.alpha * math.sqrt(dqdq)
    return ramp(e, bp.x_c, bp.x_M)


def adaptive_gain(theta: float, lam_hat: float, sigma: float) -> float:
    """Blend of force alignment and estimated leader efficiency, in [0, 1].

    The powers stay scalar `**` (C pow), which numpy scalars also call: on an
    AVX-512 host numpy's array np.power matched it on only 94.6% of random
    inputs, so it cannot batch them without changing trajectories.
    """
    return (1.0 - theta) * lam_hat**sigma + theta * (1.0 - (1.0 - lam_hat) ** sigma)


def consensus_step(lam, adj, deg, k: float, dt: float):
    """One Euler step of the disagreement law on every robot's estimate.

    adj is the (N, N) neighbor weight matrix and deg its row sums as a list,
    which the caller keeps while adj stays the same; returns the estimates,
    clamped to [0, 1], as a list.  adj.dot gives the bits of adj @ lam at
    half its cost; the rest is elementwise, so floats give the array law's
    bits.  The clamp keeps y unless it lies outside [0, 1], so -0.0 and NaN
    pass as under np.clip (and min(max(y, 0.0), 1.0)).
    """
    flow = adj.dot(lam).tolist()
    kdt = k * dt
    return [
        0.0 if (y := x + kdt * (f - d * x)) < 0.0 else 1.0 if y > 1.0 else y for x, f, d in zip(lam, flow, deg)
    ]


def travel_force(dv, dq, a_gamma, bp: BehaviorParams):
    """PD + feedforward tracking force from the tracking errors, before saturation."""
    k_v, k_p = bp.k_v, bp.k_p
    return [
        a_gamma[0] + k_v * dv[0] + k_p * dq[0],
        a_gamma[1] + k_v * dv[1] + k_p * dq[1],
        a_gamma[2] + k_v * dv[2] + k_p * dq[2],
    ]


def anchor_force(d, dd: float, R_z: float, k_z: float):
    """Barrier force confining q inside the R_z ball around z, from d = q - z
    and dd = d.d.

    The tangent stays np.tan: on an AVX-512 host math.tan matched it on only
    99.4% of random inputs.
    """
    ell = math.sqrt(dd)
    if ell >= R_z:
        raise AnchorViolation(f"distance {ell:.6g} >= R_z {R_z:.6g}")
    if ell == 0.0:
        return [0.0, 0.0, 0.0]
    s = -k_z * float(np.tan(ell * np.pi / (2.0 * R_z)))
    return [s * x / ell for x in d]


def elect_winner(candidates):
    """Shortest remaining path wins; ties break to the lower index."""
    best = None
    for idx, d in candidates:
        key = (d, idx)
        if best is None or key < best:
            best = key
    return None if best is None else best[1]


# -- per-robot planning state machine ----------------------------------------


@dataclass
class PlanContext:
    """Everything one robot may legally touch during a planning tick."""

    round: int
    n: int
    q: np.ndarray
    inbox: list
    send: callable  # (kind, payload) -> the netsim.Message sent
    plan: callable  # (start, goal) -> SmoothPath or None
    log_event: callable  # (event, detail) -> None


class RobotAgent:
    """Discrete behavior of one robot: target queue, role transitions, and
    the flooding election / presence protocol."""

    def __init__(self, index: int, targets, bp: BehaviorParams):
        self.index = index
        self.bp = bp
        self.queue = [(np.asarray(z, dtype=float), float(dw)) for z, dw in targets]
        self.is_explorer = bool(self.queue)
        self.role = CONNECTOR
        self.z = None
        self.dwell_required = 0.0
        self.dwell_elapsed = 0.0
        self.path: SmoothPath | None = None
        self.s_track = 0.0
        self.hosting = None
        self.open_window_end = -1
        self.busy_until = -1
        self.candidacy_sent = set()
        self.pending = None
        self.targets_done = 0

    # startup ---------------------------------------------------------------

    def startup_plan(self, ctx: PlanContext):
        """Pop the first target and plan; a robot with a path becomes secondary."""
        if not self.queue:
            return
        z, dw = self.queue.pop(0)
        path = ctx.plan(ctx.q, z)
        if path is None:
            ctx.log_event("fault", "unreachable first target")
            return
        self.z = z
        self.dwell_required = dw
        self.path = path
        self.s_track = 0.0
        self.role = SECONDARY

    # planning tick -----------------------------------------------------------

    def exchange(self, ctx: PlanContext):
        """Handle the inbox and close a due election: all a startup round runs."""
        for msg in ctx.inbox:
            self._handle_message(msg, ctx)
        if self.hosting is not None and ctx.round >= self.hosting["window_end"]:
            self._close_election(ctx)

    def plan_tick(self, ctx: PlanContext):
        hosting = self.hosting is not None
        self.exchange(ctx)
        if hosting:
            return  # a host does nothing else until its election has closed
        handler = {
            CONNECTOR: self._plan_connector,
            PRIME: self._plan_prime,
            SECONDARY: self._plan_secondary,
            ANCHOR: self._plan_anchor,
        }[self.role]
        handler(ctx)

    def _handle_message(self, msg, ctx: PlanContext):
        kind = msg.kind
        if kind == netsim.ELECTION_OPEN:
            eid = (msg.src, msg.seq)
            window_end = msg.payload[0]
            self.open_window_end = max(self.open_window_end, window_end)
            self.busy_until = max(self.busy_until, window_end + (ctx.n - 1))
            if eid not in self.candidacy_sent:
                d = self._candidacy_distance(ctx.q)
                if d is not None:
                    self.candidacy_sent.add(eid)
                    ctx.send(netsim.CANDIDACY, (eid[0], eid[1], d, self.index))
                    ctx.log_event("candidacy", f"d_gamma={d:.3f}")
        elif kind == netsim.CANDIDACY:
            if self.hosting is not None:
                src, seq, d, idx = msg.payload
                if (src, seq) == self.hosting["id"]:
                    self.hosting["candidates"][int(idx)] = float(d)
        elif kind == netsim.WINNER_ANNOUNCE:
            winner = int(msg.payload[-1])
            self.open_window_end = -1
            if winner == self.index:
                self._become_prime_on_win(ctx)
            elif winner >= 0 and self.pending is not None:
                self._pending_to_secondary(ctx)
        elif kind == netsim.PRESENCE_QUERY:
            src = int(msg.payload[0])
            if self.role == PRIME:
                ctx.send(netsim.PRESENCE_REPLY, (src,))
            if self.pending is not None and src < self.index:
                self.pending["defer"] = True
        elif kind == netsim.PRESENCE_REPLY:
            if self.pending is not None and int(msg.payload[0]) == self.index:
                self._pending_to_secondary(ctx)

    def _candidacy_distance(self, q):
        """Path length a candidacy claims, or None for a robot with no path."""
        if self.role == SECONDARY and self.path is not None:
            _, s = self.path.closest_point(q)
            return self.path.remaining_length(s)
        if self.pending is not None:
            return self.pending["path"].total_length
        return None

    def open_election(self, ctx: PlanContext):
        """Flood an election opening and host it, standing as a candidate if able."""
        window_end = ctx.round + 2 * (ctx.n - 1)
        msg = ctx.send(netsim.ELECTION_OPEN, (window_end,))
        d = self._candidacy_distance(ctx.q)
        if d is not None:
            ctx.log_event("candidacy", f"d_gamma={d:.3f}")
        self.hosting = {
            "id": (self.index, msg.seq),
            "window_end": window_end,
            "candidates": {} if d is None else {self.index: d},
        }
        self.open_window_end = window_end
        self.busy_until = max(self.busy_until, window_end + (ctx.n - 1))

    def _close_election(self, ctx: PlanContext):
        """Announce the winner; a prime host anchors, a host that won becomes prime."""
        winner = elect_winner(self.hosting["candidates"].items())
        eid = self.hosting["id"]
        ctx.send(netsim.WINNER_ANNOUNCE, (eid[0], eid[1], -1 if winner is None else winner))
        self.hosting = None
        self.open_window_end = -1
        if self.role == PRIME:
            self.role = ANCHOR
            self.dwell_elapsed = 0.0
            ctx.log_event("role_change", ANCHOR)
        elif winner == self.index:
            self._become_prime_on_win(ctx)

    def _adopt_pending(self):
        """Take the pending target, with its planned path, as the current one."""
        p = self.pending
        self.pending = None
        self.z = p["z"]
        self.dwell_required = p["dwell"]
        self.path = p["path"]
        self.s_track = 0.0

    def _pending_to_secondary(self, ctx: PlanContext):
        self._adopt_pending()
        self.role = SECONDARY
        ctx.log_event("role_change", SECONDARY)

    def _become_prime_on_win(self, ctx: PlanContext):
        if self.pending is not None:
            self._adopt_pending()
        if self.z is None:
            # won a stale election after clearing all targets
            if self.queue:
                self.z, self.dwell_required = self.queue.pop(0)
                self.path = None
            else:
                self.role = CONNECTOR
                ctx.log_event("role_change", "stale winner -> connector")
                return
        self.role = PRIME
        ctx.log_event("winner", f"robot {self.index}")

    def _plan_connector(self, ctx: PlanContext):
        if self.pending is not None:
            if ctx.round >= self.pending["wait_until"]:
                if self.pending["defer"]:
                    # a lower-index robot is also querying; let it decide first
                    self.pending["defer"] = False
                    self.pending["wait_until"] = ctx.round + 2 * (ctx.n - 1)
                else:
                    self._adopt_pending()
                    self.role = PRIME
                    ctx.send(netsim.WINNER_ANNOUNCE, (self.index,))
                    ctx.log_event("winner", "self-promotion (no prime present)")
            return
        if not self.queue:
            return
        if ctx.round < self.busy_until or ctx.round < self.open_window_end:
            return
        z, dw = self.queue.pop(0)
        path = ctx.plan(ctx.q, z)
        if path is None:
            ctx.log_event("fault", "unreachable target dropped")
            return
        self.pending = {
            "z": z,
            "dwell": dw,
            "path": path,
            "wait_until": ctx.round + 2 * (ctx.n - 1),
            "defer": False,
        }
        ctx.send(netsim.PRESENCE_QUERY, (self.index,))
        ctx.log_event("election_open", "presence query")

    def _plan_prime(self, ctx: PlanContext):
        if (
            self.z is not None
            and float(np.linalg.norm(ctx.q - self.z)) < self.bp.arrival_frac * self.bp.R_z
        ):
            self.path = None
            self.open_election(ctx)
            ctx.log_event("target_reached", f"target {self.targets_done}")
            return
        if self.path is None and self.z is not None:
            self.path = ctx.plan(ctx.q, self.z)
            self.s_track = 0.0
            if self.path is None:
                ctx.log_event("replan", "failed; retry next tick")

    def _plan_secondary(self, ctx: PlanContext):
        if self.z is None:
            self.role = CONNECTOR
            return
        if self.path is not None:
            q_gamma, s = self.path.closest_point(ctx.q)
            if float(np.linalg.norm(ctx.q - q_gamma)) > self.bp.R_gamma:
                new_path = ctx.plan(ctx.q, self.z)
                if new_path is not None:
                    self.path = new_path
                    self.s_track = 0.0
                    ctx.log_event("replan", "dragged off path")
                else:
                    ctx.log_event("replan", "failed; retry next tick")
        else:
            self.path = ctx.plan(ctx.q, self.z)
            self.s_track = 0.0
        if float(np.linalg.norm(ctx.q - self.z)) < self.bp.arrival_frac * self.bp.R_z:
            self.path = None
            self.role = ANCHOR
            self.dwell_elapsed = 0.0
            ctx.log_event("target_reached", f"target {self.targets_done}")
            ctx.log_event("role_change", ANCHOR)

    def _plan_anchor(self, ctx: PlanContext):
        if self.dwell_elapsed >= self.dwell_required:
            self.targets_done += 1
            self.z = None
            self.path = None
            self.role = CONNECTOR
            ctx.log_event("dwell_done", f"total {self.targets_done}")
