"""Diagnostics tests: correlations, the pair columns, consensus detection,
rate fits, gains, inequality audits (with mutation sensitivity), cubic
analysis, the weighted power-mean gap, and the slopes' grid rule."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from stiefel_sync.errors import (
    DimensionError,
    InsufficientDataError,
    UndefinedGainError,
    ValidationError,
)
from stiefel_sync.integrate import IntegratorConfig, Trajectory, integrate
from stiefel_sync.linalg import expm_skew
from stiefel_sync.manifold import (
    _PAIR_CHUNK_ENTRIES,
    ensemble_diameter,
    near_consensus_ensemble,
    orthonormality_drift,
    perturb_ensemble,
    random_ensemble,
    random_stiefel,
)
from stiefel_sync.model import (
    ModelConfig,
    Topology,
    contraction_slack,
    diameter_threshold,
    potential,
    random_frequencies,
    random_skew,
    rhs,
    zero_frequencies,
)
from stiefel_sync import diagnostics as dg
from stiefel_sync.scenario import Scenario, generate_scenario, generate_weights, run_scenario
from stiefel_sync.series_io import read_series

from conftest import (
    audit_chunks,
    audit_verdict,
    correlation_gap_components,
    correlation_gap_rate_series,
    correlation_gap_rates,
    gram_field,
    make_framework_config,
    phase_peaks,
    pointwise_audit,
    run_columns,
    run_framework_pair,
    worst_relative_bound_excess,
)


def circle_point(theta):
    return np.array([[np.cos(theta)], [np.sin(theta)]])


def uniform_config(count, n, p, kappa, freqs=None):
    return ModelConfig(
        kappa=kappa,
        topology=Topology.separable(np.ones(count)),
        freqs=zero_frequencies(count, p) if freqs is None else freqs,
        n=n,
        p=p,
    )


class TestCorrelations:
    def test_consensus_gives_identities(self):
        s = random_stiefel(4, 2, seed=0)
        a = dg.correlations(np.stack([s, s, s]))
        assert np.max(np.abs(a - np.eye(2))) <= 1e-12

    def test_circle_angles(self):
        thetas = [0.2, 1.5, -0.9]
        states = np.stack([circle_point(t) for t in thetas])
        a = dg.correlations(states)
        for j, tj in enumerate(thetas):
            for i, ti in enumerate(thetas):
                assert abs(a[j, i, 0, 0] - np.cos(tj - ti)) <= 1e-14

    def test_mirror_exactness(self):
        states = random_ensemble(5, 3, 4, seed=1)
        a = dg.correlations(states)
        for j in range(4):
            for i in range(4):
                assert np.array_equal(a[i, j], a[j, i].T)
        assert np.max(np.abs(a[np.arange(4), np.arange(4)] - np.eye(3))) <= 1e-10

    def test_norm_bounded_by_p(self):
        for p in (1, 2, 3):
            states = random_ensemble(5, p, 6, seed=p + 40)
            a = dg.correlations(states)
            norms = np.sqrt(np.sum(a * a, axis=(-2, -1)))
            assert np.max(norms) <= p + 1e-12


class TestGram:
    # N = 1, p = 1, n = p and p = 4
    SHAPES = [(1, 3, 2), (4, 5, 1), (3, 3, 3), (5, 6, 4)]

    @pytest.mark.parametrize("count, n, p", SHAPES)
    def test_matches_written_out_products(self, count, n, p):
        states = random_ensemble(n, p, count, seed=count + 10 * p)
        a = dg._gram(states)
        assert a.shape == (count, count, p, p)
        assert a.flags.c_contiguous
        # each entry is an n-term dot product: both sides round within
        # n eps of the product of absolute values
        for j in range(count):
            for i in range(count):
                written = states[j].T @ states[i]
                bound = 2 * n * np.finfo(float).eps * (np.abs(states[j]).T @ np.abs(states[i]))
                assert np.all(np.abs(a[j, i] - written) <= bound)

    @pytest.mark.parametrize("count, n, p", SHAPES)
    def test_stack_is_contiguous_and_per_ensemble(self, count, n, p):
        stack = np.stack([random_ensemble(n, p, count, seed=k) for k in range(6)])
        a = dg._gram(stack.reshape((2, 3, count, n, p)))
        assert a.flags.c_contiguous
        expected = np.stack([dg._gram(s) for s in stack]).reshape(a.shape)
        assert np.array_equal(a, expected)

    def test_chunked_gap_equals_per_snapshot_on_member_views(self):
        cfg = uniform_config(4, 3, 2, kappa=1.0)
        init = random_ensemble(3, 2, 4, seed=7)
        batch = integrate(
            np.stack([init, perturb_ensemble(init, 1e-2, seed=8)]),
            cfg,
            IntegratorConfig(h=1e-2, t_end=3.5, record_stride=1),
        )
        run, member = batch.members()
        assert member.states.base is not None  # a view into the batch stack
        assert len(member) > 2 * gram_chunk(4, 2)
        plain, skewed = dg.correlation_gap_series(run, member)
        expected = np.array(
            [correlation_gap_components(a, b) for a, b in zip(run.states, member.states)]
        )
        assert np.array_equal(plain, expected[:, 0])
        assert np.array_equal(skewed, expected[:, 1])


class TestCorrelationDiameter:
    def test_zero_for_equal(self):
        states = random_ensemble(4, 2, 3, seed=2)
        assert sum(correlation_gap_components(states, states)) == 0.0

    def test_single_agent_always_zero(self):
        a = random_ensemble(4, 2, 1, seed=3)
        b = random_ensemble(4, 2, 1, seed=4)
        assert sum(correlation_gap_components(a, b)) <= 1e-25

    def test_matches_double_loop(self):
        s1 = random_ensemble(4, 2, 4, seed=5)
        s2 = random_ensemble(4, 2, 4, seed=6)
        plain = 0.0
        skewed = 0.0
        for j in range(4):
            for i in range(4):
                a = s1[j].T @ s1[i]
                b = s2[j].T @ s2[i]
                plain += np.linalg.norm(a - b) ** 2
                skewed += np.linalg.norm((a - a.T) - (b - b.T)) ** 2
        px, sx = correlation_gap_components(s1, s2)
        assert abs(px - plain) <= 1e-12 * max(1, plain)
        assert abs(sx - skewed) <= 1e-12 * max(1, skewed)
        assert abs(px + sx - (plain + skewed)) <= 1e-12


def random_track(count, n, p, total, seed):
    """A stored stack of `total` random ensembles on a unit time grid (not a
    solution; the chunked series only read the stack)."""
    states = np.stack([random_ensemble(n, p, count, seed=seed + k) for k in range(total)])
    zeros = np.zeros(total)
    times = np.arange(total, dtype=float)
    return Trajectory(times=times, states=states, drift=zeros, diameters=zeros)


def gram_chunk(count, p):
    """Snapshots a chunk of the gap series holds: as many as have at most
    the budget's entries, N^2 p^2 a snapshot."""
    return _PAIR_CHUNK_ENTRIES // (count * p) ** 2


# lengths around the chunk size of the gap series (42 snapshots at
# (8, 6, 2), 47 at (5, 4, 3), 74 at (6, 5, 2)), and shapes up to p = 4
CHUNK_CASES = [
    ((3, 2, 1), 1), ((8, 6, 2), gram_chunk(8, 2) - 1), ((8, 6, 2), gram_chunk(8, 2)),
    ((5, 4, 3), gram_chunk(5, 3) + 1), ((6, 5, 2), 2 * gram_chunk(6, 2) + 1), ((4, 4, 4), 200),
]


class TestChunkedCorrelationPasses:
    @pytest.mark.parametrize("shape, total", CHUNK_CASES)
    def test_gap_series_equals_per_snapshot_components(self, shape, total):
        track = random_track(*shape, total, seed=100)
        other = random_track(*shape, total, seed=100 + total)
        plain, skewed = dg.correlation_gap_series(track, other)
        expected = np.array(
            [correlation_gap_components(a, b) for a, b in zip(track.states, other.states)]
        ).reshape(total, 2)
        assert np.array_equal(plain, expected[:, 0])
        assert np.array_equal(skewed, expected[:, 1])


class TestPairColumns:
    def test_misaligned_runs_rejected(self):
        with pytest.raises(DimensionError):
            dg.pair_columns(random_track(3, 4, 2, 5, seed=1), random_track(3, 4, 2, 6, seed=2))

    def test_distances_match_per_agent_norms(self):
        track = random_track(4, 5, 2, 7, seed=3)
        other = random_track(4, 5, 2, 7, seed=4)
        columns = dg.pair_columns(track, other)
        for k in range(7):
            norms = [np.linalg.norm(a - b) for a, b in zip(track.states[k], other.states[k])]
            for i, norm in enumerate(norms):
                assert abs(columns[f"dist_agent_{i}"][k] - norm) <= 1e-14
            assert abs(columns["dist_l1"][k] - sum(norms)) <= 1e-13
            assert abs(columns["dist_l2"][k] - math.hypot(*norms)) <= 1e-13
        assert np.array_equal(columns["diam_A"], columns["corr_sq"] + columns["corr_skew_sq"])

    def test_audit_series_gives_each_audits_verdict_on_the_columns(self, framework_pair_session):
        cfg, traj, partner = framework_pair_session
        columns = dg.pair_columns(traj, partner)
        audits = dg.audit_series(columns, cfg)
        by_name = {audit.name: audit for audit in audits}
        for audit in (
            dg.audit_diameter_bound(columns, cfg),
            dg.audit_correlation_contraction(columns, cfg),
            dg.audit_agent_distance_bound(columns, cfg),
        ):
            assert audit_verdict(audit) == audit_verdict(by_name.pop(audit.name))
        assert not by_name


def short_run(cfg, init, t_end=6.0, h=2e-3, stride=5):
    return integrate(init, cfg, IntegratorConfig(h=h, t_end=t_end, record_stride=stride))


class TestBatchRejected:
    @pytest.fixture(scope="class")
    def batch(self):
        stack = np.stack([random_track(3, 4, 2, 6, seed=k).states for k in (1, 2)])
        zeros = np.zeros((2, 6))
        return Trajectory(np.arange(6, dtype=float), stack, zeros, zeros)

    def test_consensus_status_names_members(self, batch):
        # the batch's last snapshots, (B, N, n, p)
        cfg = uniform_config(3, 4, 2, kappa=1.0)
        with pytest.raises(DimensionError, match=r"Trajectory\.members\(\)"):
            dg.consensus_status(batch.states[:, -1], cfg)

    def test_pair_columns_names_members(self, batch):
        with pytest.raises(DimensionError, match=r"Trajectory\.members\(\)"):
            dg.pair_columns(batch, batch)


def traced_excess(call) -> int:
    """Bytes of one call's ``tracemalloc`` peak above what is held after it,
    that is, above the memory before it and its result; after one untraced
    warm-up call, so that caches are built."""
    call()
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - held


# the series and analyses taken from a stored pair stack after the loop, on
# the stack, its two runs, a model and the runs' pair columns
STORED_SERIES = {
    "drift": lambda stack, runs, cfg, columns: orthonormality_drift(stack),
    "diameter": lambda stack, runs, cfg, columns: ensemble_diameter(stack),
    "potential": lambda stack, runs, cfg, columns: potential(stack, cfg.topology),
    "pair_columns": lambda stack, runs, cfg, columns: dg.pair_columns(*runs),
    "gap_series": lambda stack, runs, cfg, columns: dg.correlation_gap_series(*runs),
    "consensus_status": lambda stack, runs, cfg, columns: dg.consensus_status(
        runs[0].states[-1], cfg
    ),
    "audit_series": lambda stack, runs, cfg, columns: dg.audit_series(columns, cfg),
}


class TestSeriesMemory:
    @pytest.mark.parametrize("name", STORED_SERIES)
    def test_temporaries_do_not_grow_with_the_run(self, name):
        """Each series walks the stack in chunks, so what it allocates
        beyond its output is the same at 500 and at 2000 snapshots of a
        (2, K, 8, 6, 2) pair. The stack itself grows by 2.3 MB; a series
        with one temporary of the whole stack grows by about as much, and
        64 kB allows for the ragged last chunks and the allocator."""
        series = STORED_SERIES[name]
        topology = Topology.separable(np.linspace(0.8, 1.2, 8))
        cfg = ModelConfig(kappa=1.0, topology=topology, freqs=zero_frequencies(8, 2), n=6, p=2)
        excess = []
        for total in (500, 2000):
            stack = np.random.default_rng(total).standard_normal((2, total, 8, 6, 2))
            times, zeros = np.arange(total, dtype=float), np.zeros(total)
            runs = [Trajectory(times, states, zeros, zeros) for states in stack]
            columns = dg.pair_columns(*runs)
            excess.append(traced_excess(lambda: series(stack, runs, cfg, columns)))
        assert excess[1] - excess[0] <= 64_000, excess

    # the loop, with the series of each recorded chunk, the analyses after
    # it, and the emission, which stacks each block of rows from the columns
    PHASES = ("integrate", "consensus_status", "fit_decay_rate", "audit_series", "emit_series")

    @pytest.fixture(scope="class")
    def pair_runs(self, tmp_path_factory):
        """A generated heterogeneous pair scenario at t_end 0.5 and 2 (501
        and 2001 snapshots, stride 1), and an output directory that one
        untraced warm-up run has written to."""
        tmp_path = tmp_path_factory.mktemp("pair_runs")
        runs = {}
        for t_end in (0.5, 2.0):
            path = str(tmp_path / f"pair_{t_end}.json")
            generate_scenario("heterogeneous-framework", 3, {"integrator.t_end": t_end}, path)
            runs[t_end] = Scenario.from_file(path)
        out_dir = str(tmp_path / "out")
        run_scenario(runs[0.5], out_dir)
        return runs, out_dir

    def test_post_loop_phases_do_not_grow_with_the_run(self, pair_runs):
        """Each phase of a pair run allocates beyond what it keeps about as
        much at t_end 0.5 as at 2, measured by ``phase_peaks``. A stored
        pair would grow by 2.3 MB, and a table of the emitted columns by
        230 kB."""
        runs, out_dir = pair_runs
        short, long = (phase_peaks(lambda: run_scenario(sc, out_dir)) for sc in runs.values())
        for name in self.PHASES:
            assert long[name] - short[name] <= 64_000, (name, short[name], long[name])

    def test_whole_run_grows_by_its_columns(self, pair_runs):
        """The peak of a whole pair run grows from t_end 0.5 to 2 by at most
        what it keeps per snapshot, its series columns (the pair CSV's and
        the potential), plus 64 kB: the runs are streamed chunk by chunk,
        and no trajectory is held. A stored pair would add 2.3 MB, the
        series 0.23 MB."""
        runs, out_dir = pair_runs
        peaks, kept = [], []
        for sc in runs.values():
            peaks.append(traced_excess(lambda: run_scenario(sc, out_dir)))
            columns = read_series(os.path.join(out_dir, f"{sc.name}_pair.csv"))
            kept.append(len(columns["t"]) * (len(columns) + 1))
        assert peaks[1] - peaks[0] <= 8 * (kept[1] - kept[0]) + 64_000, (peaks, kept)


class TestConsensusStatus:
    def test_complete_for_gradient_flow(self):
        cfg = uniform_config(4, 4, 2, kappa=4.0)
        init = near_consensus_ensemble(4, 2, 4, 0.4, seed=7)
        traj = short_run(cfg, init, t_end=8.0)
        status = dg.consensus_status(traj.states[-1], cfg)
        assert status.kind == "complete"
        assert status.max_identity_gap <= 1e-6

    def test_none_for_decoupled_rotations(self):
        freqs = random_frequencies(3, 2, 2.0, seed=8)
        cfg = uniform_config(3, 4, 2, kappa=0.0, freqs=freqs)
        init = random_ensemble(4, 2, 3, seed=9)
        traj = short_run(cfg, init, t_end=8.0)
        status = dg.consensus_status(traj.states[-1], cfg)
        assert status.kind == "none"
        assert status.max_rate > status.rate_tol

    def test_partial_for_heterogeneous_locked_state(self):
        cfg, traj, _ = run_framework_pair(777, t_end=8.0)
        status = dg.consensus_status(traj.states[-1], cfg)
        assert status.kind == "partial"
        assert status.max_identity_gap > 1e-6
        assert status.max_rate <= status.rate_tol

    def test_zero_field_is_partial(self):
        # kappa = 0 and zero generators: the field, the rate and its
        # threshold are exactly zero, so a state off consensus is locked
        cfg = uniform_config(4, 5, 2, kappa=0.0)
        status = dg.consensus_status(random_ensemble(5, 2, 4, seed=11), cfg)
        assert (status.kind, status.max_rate, status.rate_tol) == ("partial", 0.0, 0.0)
        assert status.max_identity_gap > 1e-6

    @pytest.mark.parametrize(
        "p, topology, frequencies",
        [
            (p, topology, frequencies)
            for p in (1, 2, 3)
            for topology in ("separable", "general")
            for frequencies in (("zero",) if p == 1 else ("common", "random"))
        ],
    )
    def test_rate_is_the_closed_gram_flow(self, p, topology, frequencies):
        """The correlation rate consensus_status reads equals dG/dt of the
        correlations' closed flow (``conftest.gram_field``) on random
        states. Both sides sum rounded products of at most (N + n) p terms,
        each below the scale kappa max a_ik + max ||Omega_i|| (the entries
        of S and G are at most 1), so each entry differs by at most
        4 (N + n) p eps times that scale."""
        count, n = 5, 6
        for seed in range(5):
            rng = np.random.default_rng(seed)
            if topology == "separable":
                topo = Topology.separable(rng.uniform(0.7, 1.3, count))
            else:
                topo = Topology.general(generate_weights(count, 0.4, 1.4, 0.8, seed))
            if frequencies == "zero":
                freqs = zero_frequencies(count, p)
            elif frequencies == "common":
                freqs = np.repeat(random_skew(p, seed, 0.8)[None], count, axis=0)
            else:
                freqs = random_frequencies(count, p, 0.8, seed) + random_skew(p, seed, 0.5)
            cfg = ModelConfig(kappa=1.7, topology=topo, freqs=freqs, n=n, p=p)
            state = random_ensemble(n, p, count, seed=seed)
            rate = dg._correlation_rate(state, cfg)
            expected = gram_field(dg.correlations(state), cfg)
            generators = np.sqrt((freqs * freqs).sum(axis=(-2, -1))).max()
            scale = cfg.kappa * topo.weights.max() + generators
            bound = 4 * (count + n) * p * np.finfo(float).eps * scale
            assert np.abs(rate - expected).max() <= bound
            assert np.abs(expected).max() > 1e3 * bound

    @pytest.mark.parametrize("lead", [(7,), (2,)], ids=["snapshots", "batch"])
    def test_stack_rejected(self, lead):
        cfg = uniform_config(3, 4, 2, kappa=1.0)
        stack = np.stack([random_ensemble(4, 2, 3, seed=k) for k in range(lead[0])])
        with pytest.raises(DimensionError, match="one ensemble"):
            dg.consensus_status(stack, cfg)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_state_rejected(self, value):
        cfg = uniform_config(3, 4, 2, kappa=1.0)
        state = random_ensemble(4, 2, 3, seed=12)
        state[1, 0, 0] = value
        with pytest.raises(ValidationError, match="consensus: .* not finite"):
            dg.consensus_status(state, cfg)

    def test_tol_at_the_largest_gap_classifies_complete(self, monkeypatch):
        cfg = uniform_config(4, 4, 2, kappa=4.0)
        init = near_consensus_ensemble(4, 2, 4, 0.4, seed=7)
        state = short_run(cfg, init, t_end=8.0).states[-1]
        gap = dg.consensus_status(state, cfg).max_identity_gap
        monkeypatch.setattr(dg, "CONSENSUS_TOL", gap)
        assert dg.consensus_status(state, cfg).kind == "complete"
        monkeypatch.setattr(dg, "CONSENSUS_TOL", np.nextafter(gap, 0.0))
        assert dg.consensus_status(state, cfg).kind != "complete"

    def test_rate_at_its_threshold_classifies_partial(self, monkeypatch, framework_pair_session):
        cfg, traj, _ = framework_pair_session
        state = traj.states[-1]
        status = dg.consensus_status(state, cfg)
        scale = status.rate_tol / dg.CONSENSUS_TOL
        # the least tol whose threshold tol * scale reaches the rate
        tol = status.max_rate / scale
        while tol * scale < status.max_rate:
            tol = np.nextafter(tol, math.inf)
        while np.nextafter(tol, 0.0) * scale >= status.max_rate:
            tol = np.nextafter(tol, 0.0)
        assert status.max_identity_gap > tol
        monkeypatch.setattr(dg, "CONSENSUS_TOL", tol)
        assert dg.consensus_status(state, cfg).kind == "partial"
        monkeypatch.setattr(dg, "CONSENSUS_TOL", np.nextafter(tol, 0.0))
        assert dg.consensus_status(state, cfg).kind == "none"

    # N = 1, p = 1, n = p, n = p = 2 and p = 4
    RULE_SHAPES = [
        (8, 6, 2), (5, 4, 1), (5, 4, 3), (1, 3, 2), (1, 3, 1), (3, 3, 3), (4, 5, 4), (6, 2, 2),
    ]

    @pytest.mark.parametrize("count, n, p", RULE_SHAPES)
    @pytest.mark.parametrize("tol", [dg.CONSENSUS_TOL, 10.0])
    def test_norms_and_verdict_are_the_written_out_rule(self, monkeypatch, count, n, p, tol):
        """The gap, the rate and the threshold equal their per-pair
        definitions with V = rhs(S): each entry of S_i^T S_j and of
        V_i^T S_j + S_i^T V_j is a sum of at most 2 n products, each below 1
        or the field's scale kappa max a_ik + max ||Omega_i||, so the two
        sides differ by at most 8 n p eps times that; the verdict follows
        the rule at ``tol``."""
        seed = 10 * count + n + p
        rng = np.random.default_rng(seed)
        freqs = np.stack([random_skew(p, seed + i, 0.5) for i in range(count)])
        topo = Topology.separable(rng.uniform(0.7, 1.3, count))
        cfg = ModelConfig(kappa=1.3, topology=topo, freqs=freqs, n=n, p=p)
        state = random_ensemble(n, p, count, seed=seed)
        monkeypatch.setattr(dg, "CONSENSUS_TOL", tol)
        status = dg.consensus_status(state, cfg)

        v = rhs(state, cfg)
        pairs = [(i, j) for i in range(count) for j in range(count)]
        gap = max(np.linalg.norm(state[i].T @ state[j] - np.eye(p)) for i, j in pairs)
        rate = max(np.linalg.norm(v[i].T @ state[j] + state[i].T @ v[j]) for i, j in pairs)
        generators = max(np.linalg.norm(w) for w in freqs)
        rate_tol = tol * (cfg.kappa + generators)
        eps = np.finfo(float).eps
        assert abs(status.max_identity_gap - gap) <= 8 * n * p * eps
        scale = cfg.kappa * topo.weights.max() + generators
        assert abs(status.max_rate - rate) <= 8 * n * p * eps * scale
        assert math.isclose(status.rate_tol, rate_tol, rel_tol=4 * eps)
        if gap <= tol:
            expected = "complete"
        elif rate <= rate_tol:
            expected = "partial"
        else:
            expected = "none"
        assert status.kind == expected

    @pytest.mark.parametrize("p", [1, 2, 3, "locked"])
    def test_common_rotation_keeps_the_verdict(self, p, framework_pair_session):
        """Q S_i for one Q in O(n) has the correlations and the correlation
        rate of S, up to the rounding of Q^T Q = I and of the products: a
        few n p eps, times the field's scale for the rate."""
        if p == "locked":
            cfg, traj, _ = framework_pair_session
            state = traj.states[-1]
        else:
            count, n = 5, 6
            topo = Topology.general(generate_weights(count, 0.4, 1.4, 0.8, p))
            freqs = random_frequencies(count, p, 0.8 if p > 1 else 0.0, p)
            cfg = ModelConfig(kappa=1.7, topology=topo, freqs=freqs, n=n, p=p)
            state = random_ensemble(n, p, count, seed=p)
        count, n, cols = state.shape
        q = random_stiefel(n, n, seed=31)
        status = dg.consensus_status(state, cfg)
        rotated = dg.consensus_status(np.einsum("ab,ibc->iac", q, state), cfg)
        eps = np.finfo(float).eps
        scale = status.rate_tol / dg.CONSENSUS_TOL
        bound = 16 * (count + n) * cols * eps
        assert rotated.kind == status.kind
        assert abs(rotated.max_identity_gap - status.max_identity_gap) <= bound
        assert abs(rotated.max_rate - status.max_rate) <= bound * scale
        assert rotated.rate_tol == status.rate_tol
        if p == "locked":
            assert status.kind == "partial"
        else:
            assert status.kind == "none"
            assert status.max_rate > 1e6 * bound * scale

    @pytest.mark.parametrize("c", [2.0 ** -20, 0.5, 8.0])
    def test_field_scale_moves_rate_and_threshold_together(self, c, framework_pair_session):
        # the field is linear in (kappa, Omega) and a power of two scales
        # every product and sum exactly, so the rate and its threshold
        # scale by c bit for bit and a locked state stays locked
        cfg, traj, _ = framework_pair_session
        state = traj.states[-1]
        status = dg.consensus_status(state, cfg)
        scaled = dg.consensus_status(state, cfg.scaled(c))
        assert scaled.max_identity_gap == status.max_identity_gap
        assert scaled.max_rate == c * status.max_rate
        assert scaled.rate_tol == c * status.rate_tol
        assert (status.kind, scaled.kind) == ("partial", "partial")


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0, 5, 400)
        rate, r2 = dg.fit_decay_rate(t, np.exp(-3.0 * t))
        assert abs(rate - 3.0) <= 1e-9
        assert abs(r2 - 1.0) <= 1e-12

    @pytest.mark.parametrize("start, end", [(0.0, 5.0), (10.0, 20.0)])
    def test_fits_the_trailing_half(self, start, end):
        # a kink at the middle of the span: the rate of the second half
        # alone, on a grid from t = 0 and on one from t = 10
        t = np.linspace(start, end, 401)
        kink = (start + end) / 2.0
        values = np.exp(np.where(t < kink, -1.0 * t, -kink - 4.0 * (t - kink)))
        assert dg.decay_fit_window(t) == (kink, end)
        rate, r2 = dg.fit_decay_rate(t, values)
        assert abs(rate - 4.0) <= 1e-9
        assert abs(r2 - 1.0) <= 1e-12

    def test_constant_series(self):
        t = np.linspace(0, 5, 100)
        rate, r2 = dg.fit_decay_rate(t, np.full(100, 2.5))
        assert abs(rate) <= 1e-12
        assert r2 == 1.0

    def test_noise_has_poor_r_squared(self):
        rng = np.random.default_rng(99)
        t = np.linspace(0, 5, 200)
        _, r2 = dg.fit_decay_rate(t, np.exp(rng.standard_normal(200)))
        assert r2 < 0.5

    def test_floor_guards_log(self):
        t = np.linspace(0, 5, 50)
        values = np.zeros(50)
        rate, _ = dg.fit_decay_rate(t, values)
        assert abs(rate) <= 1e-9

    @pytest.mark.parametrize(
        "times",
        [[0.0], [0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 1.0, 1.9, 3.9, 4.0]],
        ids=["one-sample", "two-samples", "two-in-half", "edge-just-after-a-sample"],
    )
    def test_grid_without_three_points_rejected(self, times):
        times = np.array(times)
        with pytest.raises(InsufficientDataError, match="fewer than three points"):
            dg.fit_decay_rate(times, np.exp(-times))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_in_the_window_rejected(self, value):
        t = np.linspace(0, 5, 100)
        values = np.exp(-t)
        values[80] = value
        with pytest.raises(ValidationError, match="decay fit: .* not finite"):
            dg.fit_decay_rate(t, values)


class TestStabilityGain:
    def test_identical_initial_data_rejected(self):
        cfg = uniform_config(3, 4, 2, kappa=1.0)
        init = random_ensemble(4, 2, 3, seed=11)
        t1, t2 = integrate(
            np.stack([init, init.copy()]), cfg, IntegratorConfig(h=1e-2, t_end=0.5)
        ).members()
        with pytest.raises(UndefinedGainError):
            dg.stability_gain(dg.pair_columns(t1, t2), 2.0)

    def test_rotated_equilibria_have_unit_gain(self):
        s = random_stiefel(4, 2, seed=12)
        rot = expm_skew(random_skew(2, seed=13, scale=0.7))
        init1 = np.stack([s] * 3)
        init2 = np.stack([s @ rot] * 3)
        cfg = uniform_config(3, 4, 2, kappa=2.0)
        t1, t2 = integrate(
            np.stack([init1, init2]), cfg, IntegratorConfig(h=1e-2, t_end=2.0)
        ).members()
        assert abs(dg.stability_gain(dg.pair_columns(t1, t2), 2.0) - 1.0) <= 1e-9

    def test_invariant_under_common_rotation(self):
        cfg = uniform_config(4, 5, 2, kappa=2.0)
        init1 = near_consensus_ensemble(5, 2, 4, 0.3, seed=14)
        init2 = perturb_ensemble(init1, 1e-3, seed=15)
        icfg = IntegratorConfig(h=2e-3, t_end=2.0, record_stride=10)
        rot = expm_skew(random_skew(2, seed=16, scale=1.1))
        gains = []
        for a, b in ((init1, init2), (init1 @ rot, init2 @ rot)):
            t1, t2 = integrate(np.stack([a, b]), cfg, icfg).members()
            gains.append(dg.stability_gain(dg.pair_columns(t1, t2), 2.0))
        assert abs(gains[0] - gains[1]) <= 1e-8 * max(gains)

    @pytest.mark.parametrize(
        "p_exp, gain",
        [
            (1.0, 1.0),
            (2.0, math.sqrt(0.1 / 0.08)),
            (2000.0, 1.5 / 2 ** (1 / 2000)),
            (math.inf, 1.5),
        ],
    )
    def test_gain_from_agent_distance_columns(self, p_exp, gain):
        # from (0.2, 0.2) to (0.3, 0.1): the l1 distance stays at 0.4, the
        # squared l2 distance rises from 0.08 to 0.1, the l2000 distance from
        # 0.2 * 2^(1/2000) to 0.3 (0.2^2000 underflows, so only a sum scaled
        # by the row's largest distance sees either), and the largest agent
        # distance from 0.2 to 0.3
        columns = {"dist_agent_0": np.array([0.2, 0.3]), "dist_agent_1": np.array([0.2, 0.1])}
        assert dg.stability_gain(columns, p_exp) == pytest.approx(gain, rel=1e-15)

    @pytest.mark.parametrize("p_exp", [math.nan, 0.0, 0.5, -1.0, -math.inf, np.nextafter(1.0, 0.0)])
    def test_exponent_below_one_rejected(self, p_exp):
        columns = {"dist_agent_0": np.array([0.2, 0.3]), "dist_agent_1": np.array([0.2, 0.1])}
        with pytest.raises(ValidationError, match="p_exp must be >= 1"):
            dg.stability_gain(columns, p_exp)

    def test_exponent_beyond_the_float_range_rejected(self):
        columns = {"dist_agent_0": np.array([0.2, 0.3]), "dist_agent_1": np.array([0.2, 0.1])}
        with pytest.raises(ValidationError, match="p_exp is beyond the float range"):
            dg.stability_gain(columns, 10 ** 400)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("p_exp", [1.0, 2.0, math.inf])
    def test_non_finite_agent_distance_rejected(self, p_exp, value):
        columns = {
            "dist_agent_0": np.array([0.2, 0.3, 0.25]),
            "dist_agent_1": np.array([0.2, value, 0.1]),
        }
        with pytest.raises(ValidationError, match="stability gain: .* not finite"):
            dg.stability_gain(columns, p_exp)

    @pytest.mark.parametrize("name", ["framework_hetero", "stability_pair"])
    @pytest.mark.parametrize("p_exp", [1.0, 2.0, 3.5, 4.0, 2000.0, 1e300])
    def test_gain_at_least_one_on_bundled_pair(self, bundled_runs, name, p_exp):
        # a supremum over t >= 0 divided by its t = 0 value is at least 1; the
        # bundled pairs contract from the start, so their gains sit on that
        # floor, where one rounding of d0 apart from the series shows as
        # 1 - 1 ulp; their agents start about 1e-3 apart, where x_i^2000
        # underflows, so a large p_exp needs the scaled sum to stay finite
        columns = read_series(bundled_runs[name].csvs[f"{name}_pair.csv"])
        gain = dg.stability_gain(columns, p_exp)
        assert math.isfinite(gain) and gain >= 1.0


def test_series_names_are_the_audits():
    # the _series names stay for the benchmark's tracer only; as the same
    # objects, they time the one implementation and cannot grow another
    for name in ("audit_diameter_bound", "audit_correlation_contraction",
                 "audit_agent_distance_bound"):
        assert getattr(dg, f"{name}_series") is getattr(dg, name)


class TestDiameterBoundAudit:
    def test_consensus_trajectory_trivially_passes(self):
        s = random_stiefel(4, 2, seed=17)
        cfg = uniform_config(3, 4, 2, kappa=2.0)
        traj = short_run(cfg, np.stack([s] * 3), t_end=2.0)
        audit = dg.audit_diameter_bound(run_columns(traj), cfg)
        assert audit.passed
        assert audit.max_violation == 0.0

    def test_framework_run_passes(self, framework_pair_session):
        cfg, traj, _ = framework_pair_session
        audit = dg.audit_diameter_bound(run_columns(traj), cfg)
        assert audit.passed

    def test_cubic_mutation_detected_on_wide_pair(self):
        # two nearly antipodal circle agents: the cubic term dominates and
        # dropping it must register as a violation
        init = np.stack([circle_point(0.0), circle_point(2.8)])
        cfg = uniform_config(2, 2, 1, kappa=1.0)
        traj = short_run(cfg, init, t_end=1.0, h=1e-3, stride=1)
        columns = run_columns(traj)
        standard = dg.audit_diameter_bound(columns, cfg)
        mutated = dg.audit_diameter_bound(columns, cfg, mutation="drop_cubic_term")
        assert standard.passed
        assert not mutated.passed
        assert mutated.max_violation > 0.5

    def test_unknown_mutation_rejected(self, framework_pair_session):
        cfg, traj, _ = framework_pair_session
        with pytest.raises(ValidationError):
            dg.audit_diameter_bound(run_columns(traj), cfg, mutation="bogus")

    @pytest.mark.parametrize(
        "audit",
        [
            dg.audit_diameter_bound,
            dg.audit_correlation_contraction,
            dg.audit_agent_distance_bound,
        ],
    )
    def test_unknown_mutation_rejected_before_the_topology(self, framework_pair_session, audit):
        # a general topology has no xi statistics, which the diameter and
        # correlation bounds need; a bad mutation is named first all the same
        cfg, traj, partner = framework_pair_session
        count = cfg.agent_count
        general = ModelConfig(
            kappa=cfg.kappa,
            topology=Topology.general(np.ones((count, count))),
            freqs=cfg.freqs,
            n=cfg.n,
            p=cfg.p,
        )
        with pytest.raises(ValidationError, match="unknown mutation"):
            audit(dg.pair_columns(traj, partner), general, mutation="bogus")


class TestAgentDistanceAudit:
    def test_identical_trajectories_vacuous_pass(self):
        cfg = uniform_config(3, 4, 2, kappa=1.0)
        init = random_ensemble(4, 2, 3, seed=18)
        t1, t2 = integrate(
            np.stack([init, init.copy()]), cfg, IntegratorConfig(h=2e-3, t_end=1.0)
        ).members()
        audit = dg.audit_agent_distance_bound(dg.pair_columns(t1, t2), cfg)
        assert audit.passed
        assert audit.max_violation == 0.0

    @pytest.mark.parametrize(
        "value, audited",
        [
            (np.nextafter(dg.DISTANCE_FLOOR, 0.0), False),
            (dg.DISTANCE_FLOOR, True),
            (np.nextafter(dg.DISTANCE_FLOOR, 1.0), True),
        ],
    )
    def test_points_below_the_floor_are_not_audited(self, value, audited):
        # agent 0's distance is `value` at t_2 between 0 at t_1 and 1 at
        # t_3, so its slope there is 1 / 2h = 4 against a bound of about
        # kappa / 2; its other interior points sit at 0, below the floor
        # (t_1), or descend (t_3), and agent 1 stays at 1 under a bound of
        # at least kappa / 2, so t_2 is the one point that can violate. A
        # mask taken from the row after (t_3) audits it below the floor, and
        # one from the row before (t_1) never audits it
        cfg = uniform_config(2, 3, 1, kappa=1.0)
        columns = {
            "t": np.arange(5) / 8.0,
            "diam_S": np.ones(5),
            "diam_S_tilde": np.ones(5),
            "dist_agent_0": np.array([0.0, 0.0, value, 1.0, 0.0]),
            "dist_agent_1": np.ones(5),
        }
        audit = dg.audit_agent_distance_bound(columns, cfg)
        if audited:
            assert not audit.passed
            assert audit.max_violation > 3.0
        else:
            assert audit.max_violation == 0.0

    def test_framework_pair_passes(self, framework_pair_session):
        cfg, traj, partner = framework_pair_session
        audit = dg.audit_agent_distance_bound(dg.pair_columns(traj, partner), cfg)
        assert audit.passed

    def test_general_topology_supported(self):
        rng = np.random.default_rng(19)
        w = rng.uniform(0.3, 1.2, (4, 4))
        topo = Topology.general((w + w.T) / 2)
        cfg = ModelConfig(kappa=2.0, topology=topo, freqs=zero_frequencies(4, 2), n=4, p=2)
        init = random_ensemble(4, 2, 4, seed=20)
        pair = np.stack([init, perturb_ensemble(init, 0.05, seed=21)])
        t1, t2 = integrate(
            pair, cfg, IntegratorConfig(h=1e-3, t_end=2.0, record_stride=2)
        ).members()
        assert dg.audit_agent_distance_bound(dg.pair_columns(t1, t2), cfg).passed

    def test_heterogeneous_generators_cancel(self):
        # the per-agent bound carries no frequency term; a strongly
        # heterogeneous run must still pass
        freqs = random_frequencies(4, 2, 2.5, seed=22)
        cfg = uniform_config(4, 5, 2, kappa=5.0, freqs=freqs)
        init = random_ensemble(5, 2, 4, seed=23)
        pair = np.stack([init, perturb_ensemble(init, 0.02, seed=24)])
        t1, t2 = integrate(
            pair, cfg, IntegratorConfig(h=1e-3, t_end=2.0, record_stride=2)
        ).members()
        assert dg.audit_agent_distance_bound(dg.pair_columns(t1, t2), cfg).passed

    def test_state_term_mutation_detected(self):
        # widely separated random ensembles make the running-diameter term
        # essential
        cfg = uniform_config(5, 3, 2, kappa=3.0)
        init1 = random_ensemble(3, 2, 5, seed=25)
        init2 = random_ensemble(3, 2, 5, seed=26)
        t1, t2 = integrate(
            np.stack([init1, init2]), cfg, IntegratorConfig(h=1e-3, t_end=0.5, record_stride=1)
        ).members()
        columns = dg.pair_columns(t1, t2)
        standard = dg.audit_agent_distance_bound(columns, cfg)
        mutated = dg.audit_agent_distance_bound(columns, cfg, mutation="drop_state_term")
        assert standard.passed
        assert not mutated.passed


class TestCorrelationContractionAudit:
    def test_identical_trajectories_pass(self):
        cfg = uniform_config(3, 4, 2, kappa=1.0)
        init = random_ensemble(4, 2, 3, seed=27)
        t1, t2 = integrate(
            np.stack([init, init.copy()]),
            cfg,
            IntegratorConfig(h=2e-3, t_end=1.0, record_stride=1),
        ).members()
        assert dg.audit_correlation_contraction(dg.pair_columns(t1, t2), cfg).passed

    def test_single_column_pair_passes(self):
        # with one column the skew sector vanishes and the stated bound holds
        cfg, traj, partner = run_framework_pair_p1(seed=606)
        audit = dg.audit_correlation_contraction(dg.pair_columns(traj, partner), cfg)
        assert audit.passed

    def test_two_column_rate_deficit_is_reported(self, framework_pair_session):
        # with two or more columns the skew sector contracts at about half
        # the rate of the plain sector; the derived bound accounts for that
        # and holds, while the overstated skew rate kappa (4 xi_min xi_mean -
        # xi_max^2) is a real deficit that the audit must surface
        cfg, traj, partner = framework_pair_session
        columns = dg.pair_columns(traj, partner)
        audit = dg.audit_correlation_contraction(columns, cfg)
        assert audit.passed
        mutated = dg.audit_correlation_contraction(columns, cfg, mutation="overstated_skew_rate")
        assert not mutated.passed
        assert mutated.max_violation > mutated.tol

    def test_slack_mutation_increases_violation(self, framework_pair_session):
        cfg, traj, partner = framework_pair_session
        columns = dg.pair_columns(traj, partner)
        standard = dg.audit_correlation_contraction(columns, cfg)
        mutated = dg.audit_correlation_contraction(columns, cfg, mutation="overstated_skew_rate")
        assert not mutated.passed
        assert mutated.max_violation > standard.max_violation

    def test_correlation_audit_rejects_unknown_mutation_before_short_series(
        self, framework_pair_session
    ):
        # the mutation is checked before the series, as in the other audits
        cfg = framework_pair_session[0]
        short = {
            name: np.array([0.0, 0.1])
            for name in ("t", "corr_sq", "corr_skew_sq", "diam_S", "diam_S_tilde")
        }
        with pytest.raises(ValidationError, match="unknown mutation"):
            dg.audit_correlation_contraction(short, cfg, mutation="bogus")
        with pytest.raises(InsufficientDataError):
            dg.audit_correlation_contraction(short, cfg)

    def test_exact_derivative_within_bound(self, framework_pair_session, homogeneous_pairs):
        # dF/dt from the velocity field, no finite differences: the bound
        # must hold relative to F, not merely within the audit tolerance;
        # the homogeneous pairs are the sharp case of the skew-sector rate
        pairs = [framework_pair_session] + [homogeneous_pairs[p] for p in (2, 3)]
        for cfg, traj, partner in pairs:
            assert worst_relative_bound_excess(cfg, traj, partner) <= 0.0

    def test_stacked_rates_and_slacks_equal_the_per_snapshot_loops_bitwise(self):
        # the whole-stack forms that criterion 05's setup takes, against the
        # per-snapshot loops they replaced, on one short pair
        cfg, traj, partner = run_framework_pair(11, t_end=0.5)
        loop = [correlation_gap_rates(a, b, cfg) for a, b in zip(traj.states, partner.states)]
        stacked = correlation_gap_rate_series(traj.states, partner.states, cfg)
        assert np.array_equal(np.array(stacked), np.array(loop).T)
        slacks = [
            contraction_slack(cfg, float(a), float(b))
            for a, b in zip(traj.diameters, partner.diameters)
        ]
        assert np.array_equal(contraction_slack(cfg, traj.diameters, partner.diameters), slacks)


class TestAuditChunks:
    """The audits walk the interior of the grid in chunks of rows. A spike
    at a chunk's first or last interior row moves the slopes on both sides
    of it, one of them in the neighbouring chunk, and the verdict must be
    the one the written-out oracle ``pointwise_audit`` gives."""

    # each audit with the column whose slope it audits
    SPIKED = [
        (dg.audit_diameter_bound, "diam_S"),
        (dg.audit_correlation_contraction, "corr_sq"),
        (dg.audit_agent_distance_bound, "dist_agent_0"),
    ]

    @pytest.fixture(scope="class")
    def pair_series(self, framework_pair_session):
        _, traj, partner = framework_pair_session
        return dg.pair_columns(traj, partner)

    @pytest.mark.parametrize("audit, column", SPIKED)
    @pytest.mark.parametrize("edge", ["first", "last"])
    @pytest.mark.parametrize("factor", [3.0, 1.0 / 3.0])
    def test_spike_at_a_chunk_edge_gives_the_oracles_verdict(
        self, framework_pair_session, pair_series, audit, column, edge, factor
    ):
        # a raised sample makes the slope before it the largest gap, a
        # lowered one the slope after it; at a chunk's first interior row
        # the slope before it is the last of the chunk before, at its last
        # interior row the slope after it is the first of the chunk after
        cfg = framework_pair_session[0]
        chunks = audit_chunks(audit, pair_series, cfg)
        assert len(chunks) >= 3
        # interior row k is grid row k + 1
        row = chunks[1].start + 1 if edge == "first" else chunks[1].stop
        columns = dict(pair_series)
        columns[column] = columns[column].copy()
        columns[column][row] *= factor
        result = audit(columns, cfg)
        expected, rounding = pointwise_audit(result.name, columns, cfg)
        # the unspiked run violates nowhere, so the spike sets the verdict
        assert audit(pair_series, cfg).max_violation == 0.0
        assert result.max_violation > 0.0
        assert abs(result.max_violation - expected) <= rounding


class TestNaNGapRejected:
    """A NaN sample makes NaN gaps, and max(0.0, nan) is 0.0: an audit over
    it would pass with max_violation 0. Each audit raises instead."""

    # each audit with a column it reads, and whether it takes that column's
    # slopes, which read every row; a column that only enters the bound is
    # read at the interior rows, so its last row is no input here. The
    # diameter audit runs on the t and diam_S columns alone
    CORES = [
        (dg.audit_diameter_bound, "diam_S", True),
        (dg.audit_correlation_contraction, "corr_sq", True),
        (dg.audit_correlation_contraction, "diam_S", False),
        (dg.audit_agent_distance_bound, "dist_agent_0", True),
        (dg.audit_agent_distance_bound, "diam_S_tilde", False),
    ]
    # the middle of the run, the first and last interior rows of the
    # audit's second chunk, and the run's last row
    CASES = [
        (audit, column, row)
        for audit, column, sloped in CORES
        for row in ("middle", "chunk_first", "chunk_last", "last")
        if sloped or row != "last"
    ]

    @pytest.mark.parametrize("audit, column, row", CASES)
    def test_nan_sample_raises(self, framework_pair_session, audit, column, row):
        cfg, traj, partner = framework_pair_session
        columns = dg.pair_columns(traj, partner)
        if audit is dg.audit_diameter_bound:
            columns = run_columns(traj)
        if row in ("chunk_first", "chunk_last"):
            chunk = audit_chunks(audit, columns, cfg)[1]
            # interior row k is grid row k + 1
            index = chunk.start + 1 if row == "chunk_first" else chunk.stop
        else:
            index = len(traj) // 2 if row == "middle" else len(traj) - 1
        columns[column] = columns[column].copy()
        columns[column][index] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            audit(columns, cfg)

    @pytest.mark.parametrize("column", ["diam_S", "corr_sq", "dist_agent_0"])
    def test_audit_series_raises(self, framework_pair_session, column):
        cfg, traj, partner = framework_pair_session
        columns = dg.pair_columns(traj, partner)
        columns[column] = columns[column].copy()
        columns[column][1] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            dg.audit_series(columns, cfg)


def run_framework_pair_p1(seed):
    """Separable framework-style pair on the circle (single column): the
    heterogeneity lives only in the weights."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(4, 8))
    from stiefel_sync.scenario import generate_xi

    xi = generate_xi(count, 1.0, 0.05, seed)
    topo = Topology.separable(xi)
    cfg = ModelConfig(kappa=2.0, topology=topo, freqs=zero_frequencies(count, 1), n=3, p=1)
    init = near_consensus_ensemble(3, 1, count, 0.3 * diameter_threshold(cfg), seed + 1)
    icfg = IntegratorConfig(h=1e-3, t_end=6.0, record_stride=1)
    traj = integrate(init, cfg, icfg)
    partner = integrate(perturb_ensemble(init, 1e-3, seed + 2), cfg, icfg)
    return cfg, traj, partner


class TestCubicAnalysis:
    def test_zero_heterogeneity(self):
        cfg = uniform_config(4, 4, 2, kappa=2.0)
        report = dg.cubic_analysis(cfg)
        assert report.coefficient == 0.0
        assert report.roots_in_range == ()
        assert report.f_at_bound < 0.0
        assert report.invariant_region_ok

    def test_framework_config_brackets_threshold(self):
        cfg, _ = make_framework_config(808)
        report = dg.cubic_analysis(cfg)
        assert report.invariant_region_ok
        r1, r2 = report.roots_in_range
        assert r1 < report.threshold < r2
        for r in report.roots_in_range:
            assert abs(r ** 3 - 2.0 * r + report.coefficient) <= 1e-12

    def test_oversized_coefficient(self):
        # c = 8 sqrt(2) * 1.0 / (kappa * 1) >= limit for small kappa
        freqs = random_frequencies(3, 2, 1.0, seed=28)
        cfg = uniform_config(3, 4, 2, kappa=2.0, freqs=freqs)
        report = dg.cubic_analysis(cfg)
        assert report.coefficient > 4.0 * math.sqrt(2.0) / (3.0 * math.sqrt(3.0))
        assert report.roots_in_range == ()
        assert not report.invariant_region_ok


class TestDiameterMonitor:
    def test_true_under_framework(self, framework_pair_session):
        cfg, traj, _ = framework_pair_session
        assert np.all(traj.diameters < diameter_threshold(cfg))


class TestHolderGap:
    def test_exact_zero_for_equal_values(self):
        xi = np.array([0.3, 1.7, 0.9])
        x = np.full(3, 0.77)
        assert dg.holder_gap(xi, x, 2.5) == 0.0

    def test_exact_zero_for_unit_exponent(self):
        rng = np.random.default_rng(30)
        xi = rng.uniform(0.1, 2.0, 6)
        x = rng.uniform(0.0, 3.0, 6)
        assert dg.holder_gap(xi, x, 1.0) == 0.0

    def test_never_positive_and_matches_double_loop(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            count = int(rng.integers(1, 9))
            xi = rng.uniform(0.05, 3.0, count)
            x = rng.uniform(0.0, 4.0, count)
            p_exp = float(rng.uniform(1.0, 6.0))
            gap = dg.holder_gap(xi, x, p_exp)
            assert gap <= 0.0
            direct = 0.0
            for i in range(count):
                for k in range(count):
                    direct += xi[i] * xi[k] * (x[k] * x[i] ** (p_exp - 1) - x[i] ** p_exp)
            scale = max(1.0, float(np.sum(np.outer(xi, xi) * x[None, :] ** p_exp)))
            assert abs(gap - direct) <= 1e-12 * scale

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            dg.holder_gap(np.array([1.0, -1.0]), np.array([1.0, 1.0]), 2.0)
        with pytest.raises(ValidationError):
            dg.holder_gap(np.array([1.0, 1.0]), np.array([-1.0, 1.0]), 2.0)
        with pytest.raises(ValidationError):
            dg.holder_gap(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 0.5)


class TestSlopeSpacing:
    @pytest.mark.parametrize(
        "times, error",
        [
            (np.array([0.0, 0.1, 0.3]), ValidationError),
            (np.array([0.0, 0.1]), InsufficientDataError),
        ],
        ids=["non_uniform", "two_samples"],
    )
    def test_rejected(self, times, error):
        with pytest.raises(error):
            dg.slope_spacing(times)


class TestAuditTolerance:
    def test_tracks_grid_spacing(self):
        assert dg.audit_tolerance(1e-3) == pytest.approx(1e-6 + 1e-5)
        assert dg.audit_tolerance(1e-2) == pytest.approx(1e-6 + 1e-3)
