import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conexplore.behavior import (
    ANCHOR,
    CONNECTOR,
    PRIME,
    ROLE_CODES,
    SECONDARY,
    AnchorViolation,
    BehaviorParams,
    adaptive_gain,
    anchor_force,
    consensus_step,
    direction_alignment,
    elect_winner,
    ramp,
    row_dots,
    tracking_errors,
    travel_force,
    traveling_efficiency,
)
from conexplore.dynamics import saturate
from conexplore.planner import SmoothPath, path_kinematics
from oracles import SplineQuery
from static_team import StaticTeam, run_election

BP = BehaviorParams(R_z=1.0, v_cruise=1.0, x_c=0.1, x_M=0.6)


def frame(path, q, bp=BP, s=None):
    """Tracked path frame (q_gamma, v_gamma, a_gamma) at s, or at the closest point to q."""
    if s is None:
        _, s = path.closest_point(q)
    v_gamma, a_gamma = path_kinematics(path, s, bp.v_cruise, bp.R_z)
    return SplineQuery(path).point_at(s), v_gamma, a_gamma


# The laws take their dot products as arguments; these helpers take them with
# row_dots, as Simulation does, and apply the law to plain vectors.


def alignment(x, y):
    """direction_alignment between the vectors x and y."""
    x, y = [float(c) for c in x], [float(c) for c in y]
    return direction_alignment(*row_dots(x + y + x, x + y + y))


def efficiency(q, v, fr, bp):
    """traveling_efficiency at q, v against the path frame fr."""
    errors = sum(tracking_errors(q, v, fr), [])
    return traveling_efficiency(*row_dots(errors, errors), bp)


def force(q, v, fr, bp, f_max=np.inf):
    """The saturated travel force at q, v toward the path frame fr."""
    f = travel_force(*tracking_errors(q, v, fr), fr[2], bp)
    return saturate(f, row_dots(f, f)[0], f_max)


def anchor(q, z, R_z, k_z):
    """anchor_force at q for the target z."""
    d = [float(a) - float(b) for a, b in zip(q, z)]
    return anchor_force(d, row_dots(d, d)[0], R_z, k_z)


unit_float = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def line_graph(n):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return adj


def random_connected(rng, n):
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


class TestBehaviorParams:
    @pytest.mark.parametrize(
        "kw",
        [
            {"x_c": 0.7, "x_M": 0.6},
            {"sigma": 0.5},
            {"alpha": 1.5},
            {"k_p": 0.0},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            BehaviorParams(**kw)

    def test_follow_radius_defaults_to_arrival_radius(self):
        assert BehaviorParams(R_z=2.0).R_gamma == 2.0

    def test_role_codes_distinct(self):
        assert len(set(ROLE_CODES.values())) == 4
        assert set(ROLE_CODES) == {PRIME, SECONDARY, ANCHOR, CONNECTOR}


class TestDirectionAlignment:
    def test_parallel(self):
        assert alignment([1, 0, 0], [2, 0, 0]) == 1.0

    def test_antiparallel(self):
        assert alignment([1, 0, 0], [-3, 0, 0]) == 0.0

    def test_orthogonal(self):
        assert alignment([1, 0, 0], [0, 5, 0]) == pytest.approx(0.5)

    def test_zero_vector_gives_one(self):
        assert alignment([0, 0, 0], [1, 2, 3]) == 1.0
        assert alignment([1, 2, 3], [0, 0, 0]) == 1.0

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_symmetry(self, x, y):
        t = alignment(x, y)
        assert 0.0 <= t <= 1.0
        assert t == pytest.approx(alignment(y, x))

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, y = rng.normal(size=3), rng.normal(size=3)
            a, b = rng.random() * 10 + 0.01, rng.random() * 10 + 0.01
            assert abs(
                alignment(a * x, b * y) - alignment(x, y)
            ) < 1e-12


class TestRamp:
    def test_plateaus(self):
        assert ramp(0.05, 0.1, 0.6) == 1.0
        assert ramp(0.1, 0.1, 0.6) == 1.0
        assert ramp(0.6, 0.1, 0.6) == 0.0
        assert ramp(2.0, 0.1, 0.6) == 0.0

    def test_midpoint(self):
        assert ramp(0.35, 0.1, 0.6) == pytest.approx(0.5)

    def test_c1_join(self):
        eps = 1e-7
        assert ramp(0.1 + eps, 0.1, 0.6) == pytest.approx(1.0, abs=1e-9)
        assert ramp(0.6 - eps, 0.1, 0.6) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_decreasing(self):
        xs = np.linspace(0, 1, 200)
        ys = [ramp(x, 0.1, 0.6) for x in xs]
        assert all(a >= b for a, b in zip(ys, ys[1:]))


class TestTravelingEfficiency:
    PATH = SmoothPath([[0, 0, 0], [10, 0, 0]])

    def test_perfect_tracking_is_one(self):
        q = SplineQuery(self.PATH).point_at(3.0)
        v = [BP.v_cruise, 0.0, 0.0]
        assert efficiency(q, v, frame(self.PATH, q, s=3.0), BP) == 1.0

    def test_large_error_is_zero(self):
        q = [0, 5, 0]
        assert efficiency(q, [0, 0, 0], frame(self.PATH, q), BP) == 0.0

    def test_position_velocity_blend(self):
        # alpha=0.5 weights 0.3 m position error and 0.3 m/s speed error equally
        bp = BehaviorParams(x_c=0.1, x_M=0.6, alpha=0.5)
        fr = frame(self.PATH, None, bp, s=3.0)
        lam_pos = efficiency([3.0, 0.3, 0.0], [bp.v_cruise, 0, 0], fr, bp)
        lam_vel = efficiency([3.0, 0.0, 0.0], [bp.v_cruise - 0.3, 0, 0], fr, bp)
        assert lam_pos == pytest.approx(lam_vel)
        assert 0.0 < lam_pos < 1.0


class TestAdaptiveGain:
    def test_pure_power_law_when_opposed(self):
        assert adaptive_gain(0.0, 0.5, 3.0) == pytest.approx(0.125)

    def test_pure_mirror_law_when_aligned(self):
        assert adaptive_gain(1.0, 0.5, 3.0) == pytest.approx(0.875)

    def test_endpoints(self):
        for theta in (0.0, 0.3, 1.0):
            assert adaptive_gain(theta, 0.0, 3.0) == 0.0
            assert adaptive_gain(theta, 1.0, 3.0) == 1.0

    def test_sigma_one_is_identity(self):
        for theta in (0.0, 0.5, 1.0):
            assert adaptive_gain(theta, 0.37, 1.0) == pytest.approx(0.37)

    def test_large_sigma_approaches_alignment(self):
        assert abs(adaptive_gain(0.3, 0.5, 200.0) - 0.3) < 0.01
        assert abs(adaptive_gain(0.9, 0.5, 200.0) - 0.9) < 0.01

    @given(unit_float, unit_float)
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_monotone_in_alignment(self, theta, lam):
        rho = adaptive_gain(theta, lam, 3.0)
        assert 0.0 <= rho <= 1.0
        # aligned forces never reduce the gain relative to opposed ones
        assert adaptive_gain(1.0, lam, 3.0) >= adaptive_gain(0.0, lam, 3.0) - 1e-12
        assert rho >= adaptive_gain(0.0, lam, 3.0) - 1e-12
        assert rho <= adaptive_gain(1.0, lam, 3.0) + 1e-12


def own_step(own, neighbor_values, k, dt):
    """consensus_step's new value for robot 0 of a star joining it to its neighbors."""
    lam = np.array([own, *neighbor_values], dtype=float)
    adj = np.zeros((len(lam), len(lam)))
    adj[0, 1:] = adj[1:, 0] = 1.0
    return consensus_step(lam, adj, adj.sum(axis=1), k, dt)[0]


class TestConsensusStep:
    def test_fixed_point_at_agreement(self):
        assert own_step(0.4, [0.4, 0.4], k=1.0, dt=0.1) == pytest.approx(0.4)

    def test_moves_toward_neighbors(self):
        up = own_step(0.2, [0.8], k=1.0, dt=0.1)
        assert 0.2 < up < 0.8

    def test_clamped(self):
        assert own_step(0.95, [5.0, 5.0], k=10.0, dt=1.0) == 1.0
        assert own_step(0.05, [-5.0], k=10.0, dt=1.0) == 0.0

    def test_no_neighbors_no_change(self):
        assert own_step(0.3, [], k=1.0, dt=0.1) == 0.3

    def test_line_converges_to_pinned_value(self):
        # robot 0 pins 0.7; the rest relax over a line graph
        vals = np.array([0.7, 0.0, 0.0, 0.0])
        adj = line_graph(4).astype(float)
        dt, k = 0.01, 1.0
        for _ in range(5000):
            vals = consensus_step(vals, adj, adj.sum(axis=1), k, dt)
            vals[0] = 0.7
        assert max(abs(v - 0.7) for v in vals) < 1e-3


class TestTravelForce:
    PATH = SmoothPath([[0, 0, 0], [10, 0, 0]])

    def test_pulls_back_to_path(self):
        q = [3.0, 1.0, 0.0]
        f = force(q, [BP.v_cruise, 0, 0], frame(self.PATH, q, s=3.0), BP)
        assert f[1] < 0.0

    def test_feedforward_only_on_track(self):
        q = [3.0, 0.0, 0.0]
        f = force(q, [BP.v_cruise, 0, 0], frame(self.PATH, q, s=3.0), BP)
        assert np.allclose(f, 0.0, atol=1e-9)

    def test_saturation_respected(self):
        q = [0.0, 50.0, 0.0]
        f = force(q, [0, 0, 0], frame(self.PATH, q), BP, f_max=2.0)
        assert np.linalg.norm(f) == pytest.approx(2.0)


class TestAnchorForce:
    def test_zero_at_center(self):
        assert np.array_equal(anchor([1, 1, 1], [1, 1, 1], 1.0, 2.0), np.zeros(3))

    def test_points_inward(self):
        f = anchor([0.5, 0, 0], [0, 0, 0], 1.0, 2.0)
        assert f[0] < 0 and f[1] == 0 and f[2] == 0

    def test_grows_unbounded_near_boundary(self):
        f1 = np.linalg.norm(anchor([0.9, 0, 0], [0, 0, 0], 1.0, 2.0))
        f2 = np.linalg.norm(anchor([0.999, 0, 0], [0, 0, 0], 1.0, 2.0))
        assert f2 > f1 > 0
        assert f2 > 100

    def test_violation_raises(self):
        with pytest.raises(AnchorViolation):
            anchor([1.0, 0, 0], [0, 0, 0], 1.0, 2.0)


class TestElectWinner:
    def test_empty_returns_none(self):
        assert elect_winner([]) is None

    def test_shortest_distance_wins(self):
        assert elect_winner([(0, 5.0), (1, 2.0), (2, 9.0)]) == 1

    def test_tie_breaks_to_lower_index(self):
        assert elect_winner([(3, 2.0), (1, 2.0), (2, 2.0)]) == 1


class TestFloodingElection:
    def test_host_decides_within_window(self):
        adj = line_graph(5)
        winner, rounds = run_election(adj, host=0, candidacies={2: 4.0, 4: 1.5})
        assert winner == 4
        assert rounds <= 2 * (5 - 1)

    def test_no_candidates_gives_none(self):
        winner, _ = run_election(line_graph(3), host=1, candidacies={})
        assert winner is None

    def test_host_candidacy_counts(self):
        winner, _ = run_election(line_graph(3), host=0, candidacies={0: 1.0, 2: 5.0})
        assert winner == 0

    def test_random_graphs_match_oracle(self):
        # distributed result equals the centralized rule on random graphs
        rng = np.random.default_rng(77)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            adj = random_connected(rng, n)
            host = int(rng.integers(0, n))
            m = int(rng.integers(0, n + 1))
            cands = {int(i): float(rng.random() * 10) for i in rng.choice(n, size=m, replace=False)}
            winner, rounds = run_election(adj, host, cands)
            assert rounds <= 2 * (n - 1)
            assert winner == elect_winner(cands.items())


class TestPresenceFlood:
    """A connector that takes a new target floods a presence query: it follows
    a prime that answers within 2(N-1) rounds, or else promotes itself."""

    @staticmethod
    def run(adj, prime=None):
        team = StaticTeam(adj)
        for i in range(team.n):
            if i == prime:
                team.travel(i, 5.0, PRIME)
            else:
                team.queue(i, 2.0)
        for _ in range(6 * (team.n - 1)):
            team.step()
        return team

    def test_everyone_learns_of_prime(self):
        team = self.run(line_graph(6), prime=5)
        assert [ag.role for ag in team.agents] == [SECONDARY] * 5 + [PRIME]
        assert team.max_primes == 1
        assert max(r for r, _, e, _ in team.events if e == "role_change") <= 2 * (6 - 1)

    def test_no_prime_all_false(self):
        # no reply comes: the lowest index promotes itself, the rest defer to it
        team = self.run(line_graph(4))
        assert [ag.role for ag in team.agents] == [PRIME] + [SECONDARY] * 3
        assert team.max_primes == 1
        assert [(r, i) for r, i, e, _ in team.events if e == "winner"] == [(2 * (4 - 1), 0)]

    def test_prime_outside_component_invisible(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[2, 3] = adj[3, 2] = True
        team = self.run(adj, prime=2)
        assert [ag.role for ag in team.agents] == [PRIME, SECONDARY, PRIME, SECONDARY]


def hops_from(adj, src):
    """Breadth-first hop counts from src."""
    hops = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for i in frontier:
            for j in np.nonzero(adj[i])[0]:
                if int(j) not in hops:
                    hops[int(j)] = hops[i] + 1
                    nxt.append(int(j))
        frontier = nxt
    return hops


# quantized distances force index tie-breaks; every target lies beyond the
# arrival radius, so a robot that stands still never reaches it
distances = st.one_of(st.integers(1, 3).map(float), st.floats(1.0, 10.0))


@st.composite
def protocol_cases(draw):
    """(adj, host, candidacies, queries): a random connected graph on 2-10
    robots, a host, and among the others candidates with their distances and
    connectors with the round at which each takes a target and its distance."""
    n = draw(st.integers(2, 10))
    order = draw(st.permutations(range(n)))
    adj = np.zeros((n, n), dtype=bool)
    for k in range(1, n):
        i, j = order[k], order[draw(st.integers(0, k - 1))]
        adj[i, j] = adj[j, i] = True
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        if i != j:
            adj[i, j] = adj[j, i] = True
    host = draw(st.integers(0, n - 1))
    cands, queries = {}, {}
    for i in range(n):
        kind = "host" if i == host else draw(st.sampled_from(("idle", "candidate", "connector")))
        if kind == "candidate":
            cands[i] = draw(distances)
        elif kind == "connector":
            queries[i] = (draw(st.integers(0, 4 * (n - 1))), draw(distances))
    return adj, host, cands, queries


class TestProtocolProperties:
    @given(protocol_cases())
    @settings(max_examples=60, deadline=None)
    def test_handoff_with_presence_queries(self, case):
        # a prime at its target hosts the hand-off while connectors take new
        # targets at drawn rounds; one that does so before the opening reaches
        # it is pending when the opening arrives, and stands on that path
        adj, host, cands, queries = case
        n = len(adj)
        team = StaticTeam(adj)
        team.travel(host, 0.5, PRIME)
        for i, d in cands.items():
            team.travel(i, d)
        hops = hops_from(adj, host)
        early = [(i, d) for i, (r, d) in queries.items() if r < hops[i]]
        expected = elect_winner([*cands.items(), *early])
        primes_after = []
        last = max((r for r, _ in queries.values()), default=0) + 2 * (n - 1) * (n + 2)
        for rnd in range(last):
            for i, (r, d) in queries.items():
                if r == rnd:
                    team.queue(i, d)
            team.step()
            primes_after.append(team.primes())
        # never two primes at once
        assert team.max_primes <= 1
        # the oracle's choice takes over, and keeps the role on its long path
        if expected is not None:
            assert team.primes() == [expected]
        # a connector that queries while a prime exists follows it in time
        for r, i, e, det in team.events:
            if e == "election_open" and det == "presence query" and primes_after[r]:
                followed = [
                    rr for rr, j, ee, dd in team.events
                    if j == i and ee == "role_change" and dd == SECONDARY and r < rr <= r + 2 * (n - 1)
                ]
                assert followed, (i, r)
