"""Deterministic two-rate simulation loop tying world, connectivity, planner,
dynamics, netsim, and behavior together for one trial.

Rates: control at 1 kHz, connectivity field held zero-order at 100 Hz,
planning / message rounds at 10 Hz.  The first election runs before any
motion: its 3(N-1)+1 message rounds are all delivered at t = 0.
"""

from __future__ import annotations

import csv
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from . import netsim
from .behavior import (
    ANCHOR,
    CONNECTOR,
    PRIME,
    ROLE_CODES,
    SECONDARY,
    AnchorViolation,
    BehaviorParams,
    PlanContext,
    RobotAgent,
    adaptive_gain,
    anchor_force,
    consensus_step,
    direction_alignment,
    row_dots,
    tracking_errors,
    travel_force,
    traveling_efficiency,
)
from .connectivity import ConnectivityParams, ConnectivityViolation, evaluate_field
from .dynamics import BodyParams, ReferenceFilter, SimulationFault, integrate_step, saturate
from .planner import NoPath, OccupiedEndpoint, SmoothPath, astar
from .world import ObstacleSet, ObstacleView, OccupancyGrid, SensingParams, adjacency

TRACE_WRITER = os.path.join(os.path.dirname(__file__), "trace_writer.py")


@dataclass
class Monitors:
    """Per-run invariant observations used by the acceptance suite."""

    max_prime_count: int = 0
    max_primeless_rounds: int = 0
    degenerate_ticks: int = 0
    targets_planned: int = 0
    targets_done: int = 0


@dataclass
class RunResult:
    completed: bool
    completion_time: float
    fault: str | None
    traveled: np.ndarray
    explorer_mask: np.ndarray
    max_stretch: float
    mean_lambda2: float
    min_lambda2: float
    min_interrobot_dist: float
    min_obstacle_clearance: float
    monitors: Monitors
    events: list = field(default_factory=list)


class PairwiseMinimum:
    """Running minimum over the ticks of the smallest inter-robot distance.

    It equals, bit for bit, the minimum of an all-pairs check at every tick,
    for the cost of one check every few dozen ticks.  From an all-pairs
    check (the reference: distances D_ij), robot i has moved at most its
    traveled distance since, delta_i, so d_ij >= D_ij - delta_i - delta_j
    (a Verlet skin).  A pair whose bound, less a rounding margin, is not
    below the running minimum cannot lower it and is skipped; every other
    pair is recomputed exactly, with the sum of squares an all-pairs check
    takes.  The margin covers, per tick, the rounding of one position update
    and one traveled sum (far below 1e-12 m for positions within km of the
    origin), and once the rounding of the distances and of delta.
    """

    SKIN = 0.1  # m of delta_i + delta_j after which a failed bound renews the reference
    MARGIN = 1e-9  # m
    TICK_MARGIN = 1e-12  # m per tick since the reference

    def __init__(self, n: int):
        self.value = math.inf
        self._iu = np.triu_indices(n, 1)
        self._ref = None  # (D_ij, i, j) ascending in D_ij
        self._ref_traveled = None
        self._skin = 0.0  # bound on every delta_i + the per-tick margins
        self._ticks = 0  # ticks since the reference

    def update(self, q, traveled, step):
        """Take the positions q after a tick whose step lengths were step,
        with traveled the running sum of them; q holds a float row per robot."""
        if not len(self._iu[0]):
            return
        self._ticks += 1
        self._skin += max(step) + self.TICK_MARGIN
        ref, ref_traveled = self._ref, self._ref_traveled
        if ref is not None and ref[0][0] - 2.0 * self._skin - self.MARGIN >= self.value:
            return  # no pair can come below the minimum
        if ref is None or 2.0 * self._skin > self.SKIN:
            self._renew(q, traveled)
            return
        pad = 2.0 * self._ticks * self.TICK_MARGIN + self.MARGIN
        for d_ref, i, j in ref:
            if d_ref - 2.0 * self._skin - self.MARGIN >= self.value:
                break  # nor can any later pair, which starts farther apart
            if d_ref - (traveled[i] - ref_traveled[i]) - (traveled[j] - ref_traveled[j]) - pad < self.value:
                a, b = q[i], q[j]
                x, y, z = a[0] - b[0], a[1] - b[1], a[2] - b[2]
                self.value = min(self.value, math.sqrt(x * x + y * y + z * z))

    def all_pairs(self, q):
        """All-pairs check at q, an (N, 3) array or its rows: the squared
        distance of every pair and the smallest distance, inf for one robot."""
        q = np.asarray(q)
        i, j = self._iu
        diff = q[i] - q[j]
        d2 = (diff * diff).sum(axis=1)
        return d2, float(np.sqrt(d2.min(initial=np.inf)))

    def _renew(self, q, traveled):
        """All-pairs check at q, which becomes the reference."""
        d2, d = self.all_pairs(q)
        self.value = min(self.value, d)
        order = d2.argsort()
        i, j = self._iu
        self._ref = list(zip(np.sqrt(d2[order]).tolist(), i[order].tolist(), j[order].tolist()))
        self._ref_traveled = traveled[:]
        self._skin = 0.0
        self._ticks = 0


class Simulation:
    """One deterministic run of the full team on a static world."""

    FIELD_EVERY = 10  # control ticks per connectivity evaluation
    PLAN_EVERY = 100  # control ticks per planning / message round
    TRACE_BLOCK = 256  # traced ticks per block of robots.csv rows sent to the writer

    def __init__(
        self,
        obstacles: ObstacleSet,
        grid: OccupancyGrid,
        sensing: SensingParams,
        conn: ConnectivityParams,
        bp: BehaviorParams,
        body: BodyParams,
        robots,
        timeout: float,
        dt: float = 1e-3,
        trace_dir: str | None = None,
        use_filter: bool = False,
    ):
        self.obstacles = obstacles
        self.grid = grid
        self.sensing = sensing
        self.conn = conn
        self.bp = bp
        self.body = body
        self.timeout = float(timeout)
        self.dt = float(dt)
        self.trace_dir = trace_dir
        self.use_filter = use_filter

        self.n = len(robots)
        self.q = np.array([r[0] for r in robots], dtype=float).reshape(self.n, 3)
        self.v = np.zeros((self.n, 3))
        self.agents = [RobotAgent(i, robots[i][1], bp) for i in range(self.n)]
        self.lam_hat = [0.0] * self.n
        self.net = netsim.Network(self.n, trace=[] if trace_dir else None)
        self.events = []
        self.t = 0.0
        self.round = 0
        self.mon = Monitors()
        self._primeless_streak = 0
        self._path_dumps = []
        self._conn_rows = []
        self._frames = {}  # the path frame each traveler tracks, refreshed at 250 Hz
        self._laws = None  # the control plan, renewed after each message round
        self._filter = ReferenceFilter(initial_position=self.q) if use_filter else None
        # the obstacle lists of adjacency and the field, built at their first call
        self._view = None if obstacles.empty else ObstacleView(obstacles, sensing)

    # -- planning helpers -----------------------------------------------------

    def _plan(self, start, goal):
        """Grid A* plus spline smoothing; None when no path exists."""
        sc = self.grid.nearest_free_cell(start)
        gc = self.grid.nearest_free_cell(goal)
        if sc is None or gc is None:
            return None
        try:
            gp = astar(self.grid, self.grid.center(sc), self.grid.center(gc))
        except (NoPath, OccupiedEndpoint):
            return None
        wp = [np.asarray(start, dtype=float)]
        wp.extend(gp.waypoints)
        wp.append(np.asarray(goal, dtype=float))
        path = SmoothPath(wp, sample_step=0.05)
        if self.trace_dir:
            self._path_dumps.append(path)
        return path

    def _log_event(self, robot: int, event: str, detail: str):
        self.events.append((self.t, robot, event, detail))

    # -- startup ----------------------------------------------------------------

    def startup(self):
        """Initial planning and the first election, hosted by robot 0.

        Every robot whose first path is planned starts as a secondary.  Robot 0
        then opens the election, and the 3(N-1)+1 rounds it needs are delivered
        on the team's network at t = 0: the host decides at round 2(N-1), and
        the announcement takes up to N-1 more hops.  These rounds run only
        message handling and the due close, not the role handlers, and do not
        feed the monitors.
        """
        adj = adjacency(self.q, self.obstacles, self.sensing, self._view)
        self._set_consensus_graph(adj.astype(float))
        self.mon.targets_planned = sum(len(a.queue) for a in self.agents)
        for i, ag in enumerate(self.agents):
            ag.startup_plan(self._ctx(i, []))
            if ag.role == SECONDARY:
                self._log_event(i, "role_change", ag.role)
        self._log_event(0, "election_open", "startup election")
        self.agents[0].open_election(self._ctx(0, []))
        for _ in range(3 * (self.n - 1) + 1):
            self._message_round(adj, RobotAgent.exchange)

    # -- main loop ---------------------------------------------------------------

    def run(self) -> RunResult:
        self.startup()
        n = self.n
        dt = self.dt
        body = self.body
        # the team's state stays float rows between field ticks; self.q (and
        # self.v) are ndarrays only where numpy or a reader takes them
        q = self.q.tolist()
        v = self.v.tolist()
        traveled = [0.0] * n
        explorer = np.array([a.is_explorer for a in self.agents])
        e = np.flatnonzero(explorer)
        explorer_pairs = tuple(e[k] for k in np.triu_indices(len(e), 1))

        lam2_sum = 0.0
        lam2_n = 0
        min_lam2 = np.inf
        pairwise = PairwiseMinimum(n)
        min_clear = np.inf
        max_stretch = 0.0
        fault = None
        completed = False
        completion_time = self.timeout

        field_state = None
        adj = None
        f_lam = f_base = None
        prev_grad = None

        if self._all_done():
            completed = True
            completion_time = 0.0
            field_state = evaluate_field(self.q, self.obstacles, self.sensing, self.conn, None, self._view)
            lam2_sum, lam2_n = field_state.lambda2, 1
            min_lam2 = field_state.lambda2
            pairwise.value = pairwise.all_pairs(self.q)[1]
            min_clear = float(field_state.clearances.min())
            max_stretch = self._stretch(field_state.dist, explorer_pairs)

        tick = 0
        max_ticks = int(round(self.timeout / dt))
        writer = self._open_robot_trace() if self.trace_dir else None
        try:
            while not completed and tick < max_ticks:
                if tick % self.FIELD_EVERY == 0:
                    self.q = np.array(q).reshape(n, 3)
                    field_state = evaluate_field(
                        self.q, self.obstacles, self.sensing, self.conn, prev_grad, self._view
                    )
                    prev_grad = field_state.grad
                    # held to the next field tick; a robot no law moves takes 0.0 + its force
                    f_lam = field_state.forces.tolist()
                    f_base = [[0.0 + x, 0.0 + y, 0.0 + z] for x, y, z in f_lam]
                    # consensus couples robots with nonzero edge weight; the
                    # full neighbor test runs only at message rounds
                    self._set_consensus_graph((field_state.W > 0.0).astype(float))
                    lam2_sum += field_state.lambda2
                    lam2_n += 1
                    min_lam2 = min(min_lam2, field_state.lambda2)
                    # the field's clearances are the robots' own, at this q
                    clear = float(field_state.clearances.min())
                    min_clear = min(min_clear, clear)
                    max_stretch = max(max_stretch, self._stretch(field_state.dist, explorer_pairs))
                    if field_state.degenerate:
                        self.mon.degenerate_ticks += 1
                    if self.trace_dir:
                        self._conn_rows.append(
                            (
                                self.t,
                                field_state.lambda2,
                                int((field_state.W > 0).sum() // 2),
                                pairwise.all_pairs(self.q)[1],
                                clear,
                            )
                        )

                if tick % self.PLAN_EVERY == 0:  # a field tick too, so self.q is current
                    adj = adjacency(self.q, self.obstacles, self.sensing, self._view)
                    self._plan_round(adj)
                    if self._all_done():
                        completed = True
                        completion_time = self.t
                        break

                f_total = self._control_forces(q, v, f_lam, f_base, tick)
                q, v, step = integrate_step(q, v, f_total, body, dt)
                traveled = [a + b for a, b in zip(traveled, step)]
                pairwise.update(q, traveled, step)
                for ag in self.agents:
                    if ag.role == ANCHOR:
                        ag.dwell_elapsed += dt
                self.t += dt
                tick += 1
                if writer is not None:
                    self.q, self.v = np.array(q).reshape(n, 3), np.array(v).reshape(n, 3)
                    self._trace_tick()
        except (ConnectivityViolation, AnchorViolation, SimulationFault) as exc:
            fault = f"{type(exc).__name__}: {exc}"
            self._log_event(-1, "fault", fault)
        finally:
            self.q, self.v = np.array(q).reshape(n, 3), np.array(v).reshape(n, 3)
            if writer is not None:
                self._close_robot_trace()

        self.mon.targets_done = sum(a.targets_done for a in self.agents)
        if self.trace_dir:
            self._write_traces()
        return RunResult(
            completed=completed,
            completion_time=completion_time if completed else self.timeout,
            fault=fault,
            traveled=np.array(traveled),
            explorer_mask=explorer,
            max_stretch=float(max_stretch),
            mean_lambda2=float(lam2_sum / max(1, lam2_n)),
            min_lambda2=float(min_lam2),
            min_interrobot_dist=float(pairwise.value),
            min_obstacle_clearance=float(min_clear),
            monitors=self.mon,
            events=self.events,
        )

    # -- per-round / per-tick pieces ------------------------------------------

    def _ctx(self, i, inbox):
        return PlanContext(
            round=self.round,
            n=self.n,
            q=self.q[i],
            inbox=inbox,
            send=lambda kind, payload: self.net.send(i, kind, payload),
            plan=self._plan,
            log_event=lambda e, det: self._log_event(i, e, det),
        )

    def _message_round(self, adj, step):
        """Deliver one round and run step(agent, ctx) for every robot."""
        inboxes = self.net.deliver_round(adj)
        for i, ag in enumerate(self.agents):
            before = ag.role
            step(ag, self._ctx(i, inboxes[i]))
            if ag.role != before and ag.role in (PRIME, SECONDARY):
                self._log_event(i, "role_change", ag.role)
        self.round += 1
        self._laws = None

    def _plan_round(self, adj):
        self._message_round(adj, RobotAgent.plan_tick)
        primes = sum(a.role == PRIME for a in self.agents)
        self.mon.max_prime_count = max(self.mon.max_prime_count, primes)
        secondaries = any(a.role == SECONDARY for a in self.agents)
        if primes == 0 and secondaries:
            self._primeless_streak += 1
            self.mon.max_primeless_rounds = max(
                self.mon.max_primeless_rounds, self._primeless_streak
            )
        else:
            self._primeless_streak = 0

    def _set_consensus_graph(self, adj_f):
        self._adj_f = adj_f
        self._adj_deg = adj_f.sum(axis=1).tolist()

    def _control_plan(self):
        """(i, agent, law, target) of every robot a control law moves, in robot
        order: the anchor law toward target z (as a list), or the travel law
        of a prime or a secondary along its path.  Roles, paths and targets
        change only in message rounds, so the plan holds until the next one."""
        plan = []
        for i, ag in enumerate(self.agents):
            role = ag.role
            if role == ANCHOR or (role == PRIME and ag.path is None and ag.z is not None):
                plan.append((i, ag, ANCHOR, ag.z.tolist()))
            elif role != CONNECTOR and ag.path is not None and not ag.path.degenerate:
                plan.append((i, ag, role, ag.path))
        return plan

    def _control_forces(self, q_rows, v_rows, f_lam, f_base, tick=0):
        """Each robot's total force for one tick, its control force plus the
        held connectivity force f_lam, as float rows like q and v; f_base is
        0.0 + f_lam, the total of a robot no law moves.  Advances the
        consensus on the prime's traveling efficiency and pins the prime's
        own estimate.

        The laws run on Python floats and take their dot products from
        row_dots, one np.vecdot call for the whole team: |f|^2 of every raw
        travel force, the prime's |dv|^2 and |dq|^2, |q - z|^2 of every
        anchored robot, and each secondary's alignment dots x.x and x.f with
        its connectivity force x.  Where saturation scales a secondary's
        force, a second call takes its alignment dots with the scaled force.
        """
        bp = self.bp
        if self._laws is None:
            self._laws = self._control_plan()
            self._frames = {}
        lam = consensus_step(self.lam_hat, self._adj_f, self._adj_deg, bp.k_consensus, self.dt)
        # refresh the tracked path frames at 250 Hz and hold them in between;
        # the control laws still use the current q and v every tick
        refresh = tick % 4 == 0
        frames = self._frames
        jobs = []  # (i, law, q - z or the raw travel force) in plan order
        xs, ys = [], []  # flat 3-rows whose dot products the laws take, in job order
        for i, ag, law, target in self._laws:
            q = q_rows[i]
            if law == ANCHOR:
                d = [q[0] - target[0], q[1] - target[1], q[2] - target[2]]
                jobs.append((i, law, d))
                xs += d
                ys += d
                if ag.role == PRIME:
                    lam[i] = 1.0  # hosting at the target: report full efficiency
                continue
            frame = frames.get(i)
            if refresh or frame is None:
                p, ag.s_track, v_g, a_g = target.track_frame(q, ag.s_track, 0.25, bp.v_cruise, bp.R_z)
                frame = frames[i] = (p, v_g, a_g)
            dv, dq = tracking_errors(q, v_rows[i], frame)
            f = travel_force(dv, dq, frame[2], bp)
            jobs.append((i, law, f))
            if law == PRIME:
                e = f + dv + dq
                xs += e
                ys += e
            else:
                x = f_lam[i]
                xs += f + x + x
                ys += f + x + f
        dots = row_dots(xs, ys) if xs else ()
        forces = f_base[:]
        f_max = self.body.f_max
        scaled = []  # (i, saturated travel force, x.x) of a secondary whose force was scaled
        m = 0  # the job's first row in dots
        for i, law, f in jobs:
            x = f_lam[i]
            if law == ANCHOR:
                a = anchor_force(f, dots[m], bp.R_z, bp.k_z)
                forces[i] = [a[0] + x[0], a[1] + x[1], a[2] + x[2]]
                m += 1
                continue
            ft = saturate(f, dots[m], f_max)
            if law == PRIME:
                lam[i] = traveling_efficiency(dots[m + 1], dots[m + 2], bp)
                forces[i] = [ft[0] + x[0], ft[1] + x[1], ft[2] + x[2]]
            elif ft is f:
                gain = adaptive_gain(direction_alignment(dots[m + 1], dots[m], dots[m + 2]), lam[i], bp.sigma)
                forces[i] = [gain * f[0] + x[0], gain * f[1] + x[1], gain * f[2] + x[2]]
            else:
                scaled.append((i, ft, dots[m + 1]))
            m += 3
        if scaled:
            xs, ys = [], []
            for i, ft, _ in scaled:
                xs += ft + f_lam[i]
                ys += ft + ft
            dots = row_dots(xs, ys)
            for m, (i, ft, xx) in enumerate(scaled):
                gain = adaptive_gain(direction_alignment(xx, dots[2 * m], dots[2 * m + 1]), lam[i], bp.sigma)
                x = f_lam[i]
                forces[i] = [gain * ft[0] + x[0], gain * ft[1] + x[1], gain * ft[2] + x[2]]
        self.lam_hat = lam
        return forces

    # -- monitors ----------------------------------------------------------------

    @staticmethod
    def _stretch(dist, explorer_pairs) -> float:
        """The largest distance between two explorers, read from the field's
        distances at the explorer pairs (i < j), 0.0 for fewer than two."""
        return float(dist[explorer_pairs].max(initial=0.0))

    def _all_done(self) -> bool:
        for a in self.agents:
            if a.queue or a.z is not None or a.pending is not None or a.hosting is not None:
                return False
            if a.role != CONNECTOR:
                return False
        return True

    # -- tracing -------------------------------------------------------------------

    def _open_robot_trace(self):
        """Open and head robots.csv, and start the process that writes its rows.

        Each traced tick fills one row of a float64 block of TRACE_BLOCK ticks;
        a full block goes as raw bytes to trace_writer.py, whose stdout is
        robots.csv and which formats the rows as csv.writer would.  So the text
        is made beside the loop, not in it, and the file is the same.
        """
        os.makedirs(self.trace_dir, exist_ok=True)
        head = ["t", "robot_id", "x", "y", "z", "vx", "vy", "vz", "role_code"]
        if self._filter is not None:
            head += ["xf", "yf", "zf", "vxf", "vyf", "vzf"]
        self._block = np.empty((self.TRACE_BLOCK, self.n, len(head)))
        self._block[:, :, 1] = np.arange(self.n)
        self._block_ticks = 0
        template = ",".join("%d" if c in ("robot_id", "role_code") else "%r" for c in head)
        self._robots_path = os.path.join(self.trace_dir, "robots.csv")
        try:
            with open(self._robots_path, "w", newline="") as fh:
                csv.writer(fh).writerow(head)
                fh.flush()
                self._writer = subprocess.Popen(
                    [sys.executable, "-I", TRACE_WRITER, template, str(self.TRACE_BLOCK * self.n)],
                    stdin=subprocess.PIPE,
                    stdout=fh,
                    stderr=subprocess.PIPE,
                )
        except OSError as exc:
            if exc.filename is not None:
                raise
            # a failed write or flush does not say which file it was writing
            raise OSError(exc.errno, exc.strerror, self._robots_path) from exc
        return self._writer

    def _trace_tick(self):
        row = self._block[self._block_ticks]
        row[:, 0] = self.t
        row[:, 2:5] = self.q
        row[:, 5:8] = self.v
        row[:, 8] = [ROLE_CODES[ag.role] for ag in self.agents]
        if self._filter is not None:
            qf, qdf, _ = self._filter.step(self.q, self.dt)
            row[:, 9:12] = qf
            row[:, 12:15] = qdf
        self._block_ticks += 1
        if self._block_ticks == self.TRACE_BLOCK:
            self._send_block()

    def _send_block(self):
        # counted as sent before the write, so that a write cut short by an
        # interrupt or a dead writer is not sent again from _close_robot_trace
        rows, self._block_ticks = self._block[: self._block_ticks], 0
        self._writer.stdin.write(rows.data)
        self._writer.stdin.flush()

    def _close_robot_trace(self):
        """Send the last rows and wait until the writer has finished robots.csv.

        Raises OSError naming robots.csv when the writer failed."""
        proc = self._writer
        try:
            with proc.stdin:
                if self._block_ticks:
                    self._send_block()
        except BrokenPipeError:
            pass  # the writer quit early; its exit status and stderr say why
        with proc.stderr:
            reason = proc.stderr.read().decode(errors="replace").strip()
        if proc.wait() != 0:
            raise OSError(
                f"{self._robots_path}: trace writer failed (exit {proc.returncode}): {reason or 'no message'}"
            )

    def _write_traces(self):
        with open(os.path.join(self.trace_dir, "connectivity.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "lambda2", "num_edges", "min_interrobot_dist", "min_obstacle_clearance"])
            w.writerows(self._conn_rows)
        with open(os.path.join(self.trace_dir, "events.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "robot_id", "event", "detail"])
            w.writerows(self.events)
        if self.net.trace is not None:
            with open(os.path.join(self.trace_dir, "messages.csv"), "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["round", "src", "dst", "kind", "ttl"])
                w.writerows(self.net.trace)
        for k, path in enumerate(self._path_dumps):
            fn = os.path.join(self.trace_dir, f"path_{k:03d}.csv")
            with open(fn, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["s", "x", "y", "z"])
                for s, p in zip(path._s, path._samples):
                    w.writerow([s, *p])
