"""Model tests: topology validation, dynamics, potential, frame transform,
sufficient conditions, and the derived rate quantities."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stiefel_sync.diagnostics import correlation_gap_series, fit_decay_rate
from stiefel_sync.errors import (
    DimensionError,
    DisconnectedTopologyError,
    UnsupportedTopologyError,
    ValidationError,
)
from stiefel_sync.linalg import expm_skew
from stiefel_sync.manifold import (
    near_consensus_ensemble,
    random_ensemble,
    random_stiefel,
    tangent_residual,
)
from stiefel_sync.model import (
    CUBIC_COEFF_LIMIT,
    ModelConfig,
    Topology,
    _connected,
    check_framework,
    common_frequencies,
    contraction_slack,
    coupling_margin_threshold,
    cubic_coefficient,
    cubic_invariant_roots,
    decay_rate_bound,
    diameter_threshold,
    frequency_spread,
    moving_frame,
    potential,
    random_frequencies,
    random_skew,
    rhs,
    zero_frequencies,
)
from stiefel_sync.tolerances import ALGEBRAIC_TOL

from conftest import loop_frequency_checks, make_framework_config


def uniform_config(count=4, n=4, p=2, kappa=2.0, freqs=None):
    topo = Topology.separable(np.ones(count))
    if freqs is None:
        freqs = zero_frequencies(count, p)
    return ModelConfig(kappa=kappa, topology=topo, freqs=freqs, n=n, p=p)


class TestTopology:
    def test_separable_outer_product(self):
        xi = np.array([1.0, 2.0, 0.5])
        topo = Topology.separable(xi)
        assert np.max(np.abs(topo.weights - np.outer(xi, xi))) == 0.0
        assert topo.kind == "separable"

    @pytest.mark.parametrize("build", ["separable", "weights and xi"])
    def test_keeps_copies_of_the_callers_arrays(self, build):
        # the topology's arrays are read-only copies; the caller's stay
        # writable, and writing them changes nothing the topology holds
        xi = np.array([1.0, 2.0, 0.5])
        weights = np.outer(xi, xi)
        if build == "separable":
            topo = Topology.separable(xi)
        else:
            topo = Topology(weights=weights, xi=xi)
        for given, kept in ((xi, topo.xi), (weights, topo.weights)):
            assert not np.shares_memory(given, kept)
            assert given.flags.writeable and not kept.flags.writeable
        xi[0] = 3.0
        assert topo.xi[0] == 1.0

    def test_stats(self):
        stats = Topology.separable(np.array([0.5, 1.0, 1.5])).xi_stats()
        assert stats.xi_min == 0.5
        assert stats.xi_max == 1.5
        assert stats.xi_mean == 1.0
        assert stats.spread == 1.0

    def test_rejects_asymmetric(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError):
            Topology.general(w)

    def test_rejects_negative(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValidationError):
            Topology.general(w)

    def test_rejects_weights_whose_symmetrization_overflows(self):
        # each entry is finite, but w + w.T is not
        w = np.full((2, 2), 1.5e308)
        with pytest.raises(ValidationError, match="NaN or Inf"):
            Topology.general(w)

    def test_rejects_disconnected(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(DisconnectedTopologyError):
            Topology.general(w)

    def test_rejects_nonpositive_xi(self):
        with pytest.raises(ValidationError):
            Topology.separable(np.array([1.0, 0.0]))

    def test_rejects_mismatched_outer_product(self):
        xi = np.array([1.0, 1.0])
        weights = np.outer(xi, xi)
        weights[0, 1] = weights[1, 0] = 1.5
        with pytest.raises(ValidationError):
            Topology(weights=weights, xi=xi)

    def test_general_stats_unsupported(self):
        topo = Topology.general(np.ones((3, 3)))
        with pytest.raises(UnsupportedTopologyError):
            topo.xi_stats()

    @settings(max_examples=200, deadline=None)
    @given(
        pattern=st.integers(min_value=1, max_value=8).flatmap(
            lambda n: st.lists(
                st.booleans(), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2
            ).map(lambda bits: (n, bits))
        )
    )
    def test_connected_matches_transitive_closure(self, pattern):
        # symmetric 0/1 weights, diagonal included; Warshall's closure of
        # the positive off-diagonal links is the oracle
        n, bits = pattern
        weights = np.zeros((n, n))
        weights[np.triu_indices(n)] = bits
        weights = np.maximum(weights, weights.T)
        reach = (weights > 0.0) | np.eye(n, dtype=bool)
        for k in range(n):
            reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
        assert _connected(weights) == bool(reach.all())


class TestFrequencies:
    def test_spread_zero_for_common(self):
        freqs = common_frequencies(random_skew(3, seed=1), 5)
        assert frequency_spread(freqs) == 0.0

    def test_spread_matches_brute_force(self):
        freqs = random_frequencies(5, 3, 0.8, seed=2)
        best = 0.0
        for i in range(5):
            for j in range(5):
                best = max(best, np.linalg.norm(freqs[i] - freqs[j]))
        assert abs(frequency_spread(freqs) - best) <= 1e-15

    def test_requested_spread_is_exact(self):
        freqs = random_frequencies(6, 2, 0.37, seed=3)
        assert abs(frequency_spread(freqs) - 0.37) <= 1e-13

    def test_negative_scale_rejected(self):
        assert abs(np.linalg.norm(random_skew(3, seed=5, scale=0.5)) - 0.5) <= 1e-15
        for p in (1, 2, 3):
            with pytest.raises(ValidationError, match="scale must be nonnegative"):
                random_skew(p, seed=5, scale=-0.5)

    def test_p1_spread_impossible(self):
        with pytest.raises(ValidationError):
            random_frequencies(4, 1, 0.1, seed=4)

    @pytest.mark.parametrize("spread", [1e155, 1e300, 1e308])
    def test_overflowing_spread_rejected_without_warning(self, spread):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="overflows"):
                random_frequencies(3, 2, spread, seed=1)

    def test_config_validates_skewness(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = 1.0
        with pytest.raises(ValidationError):
            uniform_config(count=2, freqs=bad)

    @staticmethod
    def outcome(check, freqs):
        try:
            check(freqs)
        except ValidationError as exc:
            return str(exc)
        return "pass"

    def test_stacked_skew_test_errors_are_the_loops(self):
        # generators at scales where the unscaled loop's norms do not
        # overflow, with symmetric parts of 0-2 times the tolerance on some
        # agents and a NaN on some stacks: every outcome, pass or the error
        # of the first failing generator, is the loop's
        seen = set()
        for count, p in [(1, 2), (3, 1), (4, 3), (6, 2)]:

            def check(f, count=count, p=p):
                uniform_config(count=count, n=p + 1, p=p, freqs=f)

            for scale in (1e-300, 1e-3, 1.0, 7.5, 1e100, 1e150):
                for seed in range(4):
                    rng = np.random.default_rng(seed)
                    g = rng.standard_normal((count, p, p))
                    freqs = scale * (g - g.swapaxes(1, 2)) / 2.0
                    sym = rng.standard_normal((count, p, p))
                    sym += sym.swapaxes(1, 2)
                    sizes = np.linalg.norm(freqs, axis=(1, 2))
                    ratio = rng.choice([0.0, 0.5, 0.99, 1.01, 2.0], size=count)
                    allowed = ALGEBRAIC_TOL * np.maximum(1.0, sizes) / 2.0
                    sym *= (ratio * allowed / np.linalg.norm(sym, axis=(1, 2)))[:, None, None]
                    freqs += sym
                    if seed == 3:
                        freqs[rng.integers(count), 0, 0] = np.nan
                    expected = self.outcome(loop_frequency_checks, freqs)
                    assert self.outcome(check, freqs) == expected
                    seen.add("pass" if expected == "pass" else "NaN" if "NaN" in expected else "skew")
        assert seen == {"pass", "NaN", "skew"}

    @pytest.mark.parametrize("entry", [1e154, 1e300, 1e308, 1.7976931348623157e308])
    def test_huge_symmetric_generator_rejected_without_warning(self, entry):
        freqs = np.zeros((3, 2, 2))
        freqs[1] = [[0.0, entry], [entry, 0.0]]
        freqs[2] = [[0.0, entry], [-entry, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="frequency generator 1 is not skew"):
                uniform_config(count=3, freqs=freqs)
            # the huge skew generator, common to every agent, passes
            uniform_config(count=3, freqs=np.repeat(freqs[2:], 3, axis=0))


    @staticmethod
    def unscaled_spread(freqs):
        diffs = freqs[:, None] - freqs[None, :]
        return float(np.max(np.sqrt(np.sum(diffs * diffs, axis=(-2, -1)))))

    @pytest.mark.parametrize("scale", [1e-300, 1e-3, 1.0, 7.5, 1e100, 1e150])
    def test_scaled_spread_equals_the_unscaled_one_bitwise(self, scale):
        # away from overflow and underflow, scaling by powers of two is exact
        for seed in range(4):
            common = random_skew(3, seed)
            freqs = scale * (common[None] + random_frequencies(5, 3, 0.8, seed=seed))
            assert frequency_spread(freqs) == self.unscaled_spread(freqs)

    @pytest.mark.parametrize("a", [1e154, 1e200])
    def test_huge_finite_spread_is_finite_without_warning(self, a):
        # the unscaled sums of squares overflow at both sizes
        w = np.array([[0.0, a], [-a, 0.0]])
        freqs = np.stack([np.zeros((2, 2)), w, w, w])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = uniform_config(count=4, freqs=freqs)
            assert frequency_spread(freqs) == cfg.freq_spread
        assert math.isclose(cfg.freq_spread, math.sqrt(2.0) * a, rel_tol=4 * np.finfo(float).eps)

    def test_spread_beyond_the_float_range_rejected_without_warning(self):
        w = np.array([[0.0, 1e308], [-1e308, 0.0]])
        freqs = np.stack([w, -w, w])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frequency_spread(freqs) == math.inf
            with pytest.raises(ValidationError, match="frequency spread overflows"):
                uniform_config(count=3, freqs=freqs)


class TestRhs:
    def test_consensus_is_coupling_equilibrium(self):
        s = random_stiefel(5, 2, seed=5)
        states = np.stack([s] * 4)
        rng = np.random.default_rng(6)
        w = rng.uniform(0.5, 1.5, (4, 4))
        topo = Topology.general((w + w.T) / 2)
        cfg = ModelConfig(kappa=3.0, topology=topo, freqs=zero_frequencies(4, 2), n=5, p=2)
        assert np.max(np.abs(rhs(states, cfg))) <= 1e-12

    def test_kappa_zero_gives_pure_drift(self):
        freqs = random_frequencies(3, 2, 0.5, seed=7)
        cfg = uniform_config(count=3, kappa=0.0, freqs=freqs)
        states = random_ensemble(4, 2, 3, seed=8)
        assert np.array_equal(rhs(states, cfg), states @ freqs)

    def test_config_keeps_a_copy_of_the_generators(self):
        freqs = random_frequencies(3, 2, 0.5, seed=7)
        before = freqs.copy()
        cfg = uniform_config(count=3, kappa=1.3, freqs=freqs)
        assert not np.shares_memory(cfg.freqs, freqs)
        assert freqs.flags.writeable and not cfg.freqs.flags.writeable
        freqs[0] = 0.0
        assert np.array_equal(cfg.freqs, before)

    @pytest.mark.parametrize("c", [0.0, 1e-3 / 6.0, 0.5, 2.0])
    def test_scaled_config_is_the_replaced_one(self, c):
        cfg = uniform_config(count=3, kappa=1.3, freqs=random_frequencies(3, 2, 0.5, seed=7))
        scaled = cfg.scaled(c)
        replaced = dataclasses.replace(cfg, kappa=c * cfg.kappa, freqs=c * cfg.freqs)
        for name in ("kappa", "freq_spread", "state_shape", "topology", "n", "p"):
            assert getattr(scaled, name) == getattr(replaced, name)
        for name in ("freqs", "half_weights"):
            assert np.array_equal(getattr(scaled, name), getattr(replaced, name))
            assert not getattr(scaled, name).flags.writeable
        assert cfg.kappa == 1.3
        states = random_ensemble(4, 2, 3, seed=8)
        assert np.allclose(rhs(states, scaled), c * rhs(states, cfg), rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("lead", [(1,), (2,), (3,), (2, 3)])
    def test_scaled_config_stacks_generators_to_the_batch(self, lead):
        cfg = uniform_config(count=3, kappa=1.3, freqs=random_frequencies(3, 2, 0.5, seed=7))
        freqs = cfg.freqs
        plain, stacked = cfg.scaled(0.25), cfg.scaled(0.25, lead)
        assert stacked.freqs.shape == lead + (3, 2, 2)
        assert not stacked.freqs.flags.writeable
        assert np.array_equal(stacked.freqs, np.broadcast_to(plain.freqs, stacked.freqs.shape))
        for name in ("kappa", "freq_spread", "state_shape", "topology", "n", "p"):
            assert getattr(stacked, name) == getattr(plain, name)
        assert np.array_equal(stacked.half_weights, plain.half_weights)
        # the caller's config keeps its own (N, p, p) generators
        assert cfg.freqs is freqs and freqs.shape == (3, 2, 2)
        states = np.stack(
            [random_ensemble(4, 2, 3, seed=8 + b) for b in range(math.prod(lead))]
        ).reshape(lead + (3, 4, 2))
        assert np.array_equal(rhs(states, stacked), rhs(states, plain))

    def test_scaled_config_is_not_checked_again(self):
        # a generator whose skew defect is 0.6 of the absolute floor of 1e-12
        # passes; doubled, it would fail, and so would kappa 1e308 doubled
        w = np.array([[0.0, 0.5], [-0.5 + 0.6e-12, 0.0]])
        cfg = uniform_config(count=3, kappa=1e308, freqs=np.repeat(w[None], 3, 0))
        with pytest.raises(ValidationError):
            dataclasses.replace(cfg, kappa=1.0, freqs=2.0 * cfg.freqs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = cfg.scaled(2.0)
        assert scaled.kappa == math.inf
        assert np.array_equal(scaled.freqs, 2.0 * cfg.freqs)

    def test_matches_scalar_kuramoto_form(self):
        # on St(1,2) the flow reduces to dtheta_i = (k/N) sum a_ik sin(theta_k - theta_i)
        thetas = np.array([0.3, 1.1, -2.0])
        states = np.stack([[[np.cos(t)], [np.sin(t)]] for t in thetas])
        kappa = 1.7
        cfg = ModelConfig(
            kappa=kappa,
            topology=Topology.separable(np.ones(3)),
            freqs=zero_frequencies(3, 1),
            n=2,
            p=1,
        )
        v = rhs(states, cfg)
        for i in range(3):
            rate = kappa / 3.0 * np.sum(np.sin(thetas - thetas[i]))
            normal = np.array([[-np.sin(thetas[i])], [np.cos(thetas[i])]])
            assert np.linalg.norm(v[i] - rate * normal) <= 1e-13

    def test_tangency_fuzz(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            count = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, min(n, 3) + 1))
            xi = rng.uniform(0.6, 1.4, count)
            spread = float(rng.uniform(0, 1.0)) if p > 1 else 0.0
            freqs = (
                random_frequencies(count, p, spread, int(rng.integers(1e6)))
                if spread > 0
                else zero_frequencies(count, p)
            )
            cfg = ModelConfig(
                kappa=float(rng.uniform(0, 10)),
                topology=Topology.separable(xi),
                freqs=freqs,
                n=n,
                p=p,
            )
            states = random_ensemble(n, p, count, rng)
            v = rhs(states, cfg)
            for i in range(count):
                assert tangent_residual(states[i], v[i]) <= 1e-12

    def test_shape_mismatch(self):
        cfg = uniform_config()
        with pytest.raises(DimensionError):
            rhs(random_ensemble(4, 2, 3, seed=10), cfg)

    def test_matches_six_product_form(self):
        # the field S Omega + kappa (C - (S M1 + S M2)/2), M1 = S^T C and
        # M2 = C^T S, as six separate products. The two evaluations round
        # differently; the field is a difference of terms of size |S Omega|
        # and kappa |C| that cancel near consensus, so the error is measured
        # against the size of those terms
        rng = np.random.default_rng(15)
        for trial in range(200):
            count = int(rng.integers(2, 9))
            n = int(rng.integers(2, 8))
            p = int(rng.integers(1, min(n, 4) + 1))
            freqs = (
                random_frequencies(count, p, float(rng.uniform(0.1, 1.0)), trial)
                if p > 1
                else zero_frequencies(count, p)
            )
            cfg = ModelConfig(
                kappa=float(rng.uniform(0.1, 10.0)),
                topology=Topology.separable(rng.uniform(0.6, 1.4, count)),
                freqs=freqs,
                n=n,
                p=p,
            )
            s = np.stack([
                random_ensemble(n, p, count, rng),
                near_consensus_ensemble(n, p, count, 0.05, seed=trial),
            ])
            w = cfg.topology.weights
            c = np.stack([np.einsum("ik,kab->iab", w, member) for member in s]) / count
            m1 = s.swapaxes(-2, -1) @ c
            m2 = c.swapaxes(-2, -1) @ s
            six = s @ freqs + cfg.kappa * (c - 0.5 * (s @ m1 + s @ m2))
            scale = np.max(np.abs(s @ freqs) + cfg.kappa * np.abs(c))
            assert np.max(np.abs(rhs(s, cfg) - six)) <= 1e-15 * scale


class TestPotential:
    def test_consensus_zero(self):
        s = random_stiefel(4, 2, seed=11)
        topo = Topology.separable(np.ones(3))
        assert potential(np.stack([s, s, s]), topo) <= 1e-25

    def test_two_agent_formula(self):
        states = random_ensemble(4, 2, 2, seed=12)
        d = np.linalg.norm(states[0] - states[1])
        topo = Topology.general(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert abs(potential(states, topo) - d ** 2) <= 1e-12

    def test_matches_double_loop(self):
        states = random_ensemble(4, 2, 5, seed=13)
        rng = np.random.default_rng(14)
        w = rng.uniform(0.1, 2.0, (5, 5))
        topo = Topology.general((w + w.T) / 2)
        expected = 0.0
        for i in range(5):
            for k in range(5):
                expected += topo.weights[i, k] * np.linalg.norm(states[i] - states[k]) ** 2
        expected /= 5
        assert abs(potential(states, topo) - expected) <= 1e-12


    def test_stack_equals_per_ensemble_calls(self):
        rng = np.random.default_rng(15)
        w = rng.uniform(0.1, 2.0, (5, 5))
        topo = Topology.general((w + w.T) / 2)
        stack = np.stack([
            np.stack([random_ensemble(4, 2, 5, rng) for _ in range(6)]) for _ in range(2)
        ])
        values = potential(stack, topo)
        assert values.shape == (2, 6)
        expected = np.array([[potential(ensemble, topo) for ensemble in run] for run in stack])
        assert np.array_equal(values, expected)
        assert type(potential(stack[0, 0], topo)) is float

    def test_wrong_agent_count(self):
        topo = Topology.separable(np.ones(4))
        with pytest.raises(DimensionError):
            potential(random_ensemble(4, 2, 3, seed=16), topo)
        with pytest.raises(DimensionError):
            potential(np.stack([random_ensemble(4, 2, 3, seed=17)] * 2), topo)


class TestMovingFrame:
    def test_time_zero_identity(self):
        states = random_ensemble(4, 2, 3, seed=15)
        out = moving_frame(states, random_skew(2, seed=16), 0.0)
        assert np.max(np.abs(out - states)) <= 1e-15

    def test_zero_generator_identity(self):
        states = random_ensemble(4, 2, 3, seed=17)
        out = moving_frame(states, np.zeros((2, 2)), 5.0)
        assert np.array_equal(out, states)

    def test_preserves_manifold(self):
        states = random_ensemble(5, 3, 4, seed=18)
        out = moving_frame(states, random_skew(3, seed=19), 2.5)
        gram = np.swapaxes(out, -2, -1) @ out
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12

    def test_frame_equivariance_for_commuting_generators(self):
        # generators proportional to a common skew commute with it; observing
        # in the rotating frame shifts every generator by the common part
        count, n, p = 4, 5, 2
        base = random_skew(p, seed=20)
        coeffs = np.array([0.5, 1.0, -0.3, 2.0])
        freqs = np.stack([c * base for c in coeffs])
        topo = Topology.separable(np.ones(count))
        cfg = ModelConfig(kappa=1.3, topology=topo, freqs=freqs, n=n, p=p)
        shifted = ModelConfig(
            kappa=1.3, topology=topo, freqs=freqs - base[None], n=n, p=p
        )
        states = random_ensemble(n, p, count, seed=21)
        t = 0.8
        rot = expm_skew(-t * base)
        transformed = states @ rot
        transported = rhs(states, cfg) @ rot - transformed @ base
        direct = rhs(transformed, shifted)
        assert np.max(np.abs(direct - transported)) <= 1e-10


class TestFramework:
    def test_uniform_xi_first_two_conditions(self):
        cfg = uniform_config()
        report = check_framework(cfg, near_consensus_ensemble(4, 2, 4, 0.01, seed=22))
        assert report.weight_ratio.lhs == 1.0
        assert report.weight_ratio.rhs == 2.0
        assert report.weight_spread.lhs == 0.0
        assert abs(report.weight_spread.rhs - 1.0 / 3.0) <= 1e-15

    def test_zero_frequency_threshold(self):
        for p in (1, 2, 4):
            cfg = uniform_config(n=5, p=p)
            assert abs(diameter_threshold(cfg) - 1.0 / (10.0 * math.sqrt(p))) <= 1e-15
            report = check_framework(cfg, near_consensus_ensemble(5, p, 4, 0.01, seed=23))
            assert report.coupling_margin.lhs == 0.0
            assert report.coupling_margin.rhs > 0.0

    def test_weight_spread_boundary_failure(self):
        # the spread condition flips sign near xi = [1, 1.2953]; the flag
        # must track the strict inequality on either side
        for bump, expected in ((1.28, True), (1.31, False)):
            xi = np.array([1.0, bump])
            stats = Topology.separable(xi).xi_stats()
            assert (stats.spread < stats.xi_min * stats.xi_mean / (3 * stats.xi_max)) == expected
            cfg = ModelConfig(
                kappa=50.0,
                topology=Topology.separable(xi),
                freqs=zero_frequencies(2, 2),
                n=4,
                p=2,
            )
            report = check_framework(cfg, near_consensus_ensemble(4, 2, 2, 0.001, seed=24))
            assert report.weight_spread.satisfied == expected
            assert report.weight_ratio.satisfied
            assert report.satisfied == expected or not expected

    # supremum of xi_max^2 / (xi_min xi_mean) under the weight_spread condition
    RATIO_SUP = (3.0 + math.sqrt(21.0)) ** 2 / 36.0

    @settings(max_examples=150, deadline=None)
    @given(
        xi=st.lists(st.floats(min_value=1.0, max_value=1.35), min_size=2, max_size=8),
        scale=st.floats(min_value=0.1, max_value=10.0),
        p=st.sampled_from((1, 2, 3)),
    )
    # near the supremum: xi_mean close to xi_min, xi_max close to (3 + sqrt(21)) / 6
    @example(xi=[1.0] * 7 + [1.264], scale=1.0, p=1)
    @example(xi=[1.0] * 7 + [1.264], scale=1.0, p=2)
    def test_weight_spread_implies_weight_ratio(self, xi, scale, p):
        xi = scale * np.array(xi)
        count = xi.shape[0]
        cfg = ModelConfig(
            kappa=1.0,
            topology=Topology.separable(xi),
            freqs=zero_frequencies(count, p),
            n=p + 1,
            p=p,
        )
        report = check_framework(cfg, random_ensemble(p + 1, p, count, seed=0))
        assume(report.weight_spread.satisfied)
        assert report.weight_ratio.satisfied
        stats = cfg.topology.xi_stats()
        ratio = stats.xi_max ** 2 / (stats.xi_min * stats.xi_mean)
        assert ratio < self.RATIO_SUP * (1.0 + 1e-12)

    def test_framework_satisfied_config(self):
        cfg, initial = make_framework_config(31)
        report = check_framework(cfg, initial)
        assert report.satisfied
        assert all(c.margin > 0 for c in report.conditions())
        assert report.delta_lower is not None and report.delta_lower > 0

    def test_rejects_general_topology(self):
        topo = Topology.general(np.ones((3, 3)) - np.eye(3))
        cfg = ModelConfig(kappa=1.0, topology=topo, freqs=zero_frequencies(3, 2), n=4, p=2)
        with pytest.raises(UnsupportedTopologyError):
            check_framework(cfg, random_ensemble(4, 2, 3, seed=25))

    def test_rejects_zero_kappa(self):
        cfg = uniform_config(kappa=0.0)
        with pytest.raises(ValidationError):
            check_framework(cfg, random_ensemble(4, 2, 4, seed=26))


class TestRateQuantities:
    def test_slack_zero_in_homogeneous_consensus(self):
        cfg = uniform_config()
        assert contraction_slack(cfg, 0.0, 0.0) == 0.0

    def test_slack_arithmetic_example(self):
        cfg = uniform_config(count=3, n=3, p=1, kappa=1.0)
        assert abs(contraction_slack(cfg, 0.1, 0.1) - 1.0) <= 1e-15

    def test_slack_matches_independent_formula(self):
        rng = np.random.default_rng(27)
        for _ in range(25):
            cfg, _ = make_framework_config(int(rng.integers(1e6)))
            d1, d2 = rng.uniform(0, 0.5, 2)
            stats = cfg.topology.xi_stats()
            expected = (
                5.0 * cfg.kappa * stats.xi_max ** 2 * math.sqrt(cfg.p) * (d1 + d2)
                + 3.0 * cfg.kappa * stats.xi_max * stats.spread
                + cfg.freq_spread
            )
            assert abs(contraction_slack(cfg, d1, d2) - expected) <= 1e-12 * max(1, expected)
        # aligned arrays give the scalar result element by element, bit for bit
        cfg, _ = make_framework_config(28)
        d1, d2 = rng.uniform(0, 0.5, (2, 40))
        slack = contraction_slack(cfg, d1, d2)
        assert slack.shape == (40,)
        expected = [contraction_slack(cfg, float(a), float(b)) for a, b in zip(d1, d2)]
        assert np.array_equal(slack, expected)
        with pytest.raises(ValidationError):
            contraction_slack(cfg, d1, -d2)

    def test_rate_bound_at_critical_slack(self):
        cfg = uniform_config(kappa=2.0)
        stats = cfg.topology.xi_stats()
        critical = cfg.kappa * stats.xi_min * stats.xi_mean
        assert decay_rate_bound(cfg, critical) == min(0.0, cfg.kappa * 3.0)

    def test_rate_bound_uniform_zero_slack(self):
        # two columns: min(r_X, (r_X + 4 r_Y) / 5) = min(4, (4 + 4 * 1.5) / 5)
        # kappa = 2 kappa, the rate of the skew sector
        cfg = uniform_config(kappa=1.7)
        assert abs(decay_rate_bound(cfg, 0.0) - 2.0 * 1.7) <= 1e-14

    def test_rate_bound_single_column_zero_slack(self):
        # one column: no skew sector, so the bound is r_X = 4 kappa
        cfg = uniform_config(p=1, kappa=1.7)
        assert abs(decay_rate_bound(cfg, 0.0) - 4.0 * 1.7) <= 1e-14

    def test_delta_lower_below_homogeneous_fitted_rate(self, homogeneous_pairs):
        for p in (1, 2, 3):
            cfg, traj, partner = homogeneous_pairs[p]
            report = check_framework(cfg, traj.states[0])
            assert report.satisfied and report.delta_lower is not None
            plain, skewed = correlation_gap_series(traj, partner)
            rate, r_squared = fit_decay_rate(traj.times, plain + skewed)
            assert r_squared >= 0.99
            assert rate >= report.delta_lower

    def test_positive_under_framework(self):
        cfg, initial = make_framework_config(28)
        report = check_framework(cfg, initial)
        assert report.satisfied
        slack = contraction_slack(cfg, report.initial_diameter.lhs, report.initial_diameter.lhs)
        assert decay_rate_bound(cfg, slack) > 0


class TestCubicRoots:
    def test_no_interior_roots_at_zero(self):
        assert cubic_invariant_roots(0.0) == ()

    def test_factorized_case(self):
        # r^3 - 2r + 1 = (r - 1)(r^2 + r - 1)
        roots = cubic_invariant_roots(1.0)
        assert len(roots) == 2
        assert abs(roots[0] - (math.sqrt(5) - 1) / 2) <= 1e-10
        assert abs(roots[1] - 1.0) <= 1e-10
        for r in roots:
            assert abs(r ** 3 - 2 * r + 1.0) <= 1e-12

    def test_past_limit_empty(self):
        assert cubic_invariant_roots(1.2) == ()

    def test_roots_bracket_residuals(self):
        for c in (0.05, 0.3, 0.8, 1.05):
            roots = cubic_invariant_roots(c)
            assert len(roots) == 2
            r1, r2 = roots
            assert 0 < r1 < math.sqrt(2.0 / 3.0) < r2 < math.sqrt(2.0)
            for r in roots:
                assert abs(r ** 3 - 2 * r + c) <= 1e-12

    @pytest.mark.parametrize("c", [1e-300, 1e-30, 1e-20, 1e-9])
    def test_small_root_keeps_relative_precision(self, c):
        # the smaller root is c/2 + c^3/16 + ..., so c/2 to within c^2/8
        roots = cubic_invariant_roots(c)
        assert len(roots) == 2
        assert abs(roots[0] - c / 2.0) <= 1e-15 * (c / 2.0)

    def test_floats_just_below_limit(self):
        # the two roots merge at sqrt(2/3) as c reaches the limit
        below = math.nextafter(CUBIC_COEFF_LIMIT, 0.0)
        for c in (below, math.nextafter(below, 0.0)):
            roots = cubic_invariant_roots(c)
            assert len(roots) == 2
            assert roots[0] <= roots[1]
            for r in roots:
                assert abs(r - math.sqrt(2.0 / 3.0)) <= 1e-7

    def test_coefficient_formula(self):
        # exact arithmetic instance: 8 sqrt(4) * 1 / (16 * 1) = 1
        topo = Topology.separable(np.ones(3))
        freqs = random_frequencies(3, 4, 1.0, seed=29)
        cfg = ModelConfig(kappa=16.0, topology=topo, freqs=freqs, n=6, p=4)
        assert abs(cubic_coefficient(cfg) - 1.0) <= 1e-12


class TestCouplingMargin:
    def test_threshold_formula(self):
        cfg = uniform_config(p=2)
        shrink = 2.0 - 1.0 / 200.0
        expected = shrink / (160.0 + shrink)
        assert abs(coupling_margin_threshold(cfg) - expected) <= 1e-15
