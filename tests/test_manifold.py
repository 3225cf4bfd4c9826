"""Manifold-layer tests: sampling, validation, retraction, distances."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefel_sync.errors import (
    DimensionError,
    ProjectionError,
    StiefelSyncError,
    ValidationError,
)
from stiefel_sync.linalg import frobenius
from stiefel_sync.manifold import (
    _PAIR_CHUNK_ENTRIES,
    _drift_within,
    ensemble_diameter,
    near_consensus_ensemble,
    orthonormality_drift,
    pair_sq_distances,
    perturb_ensemble,
    random_ensemble,
    random_stiefel,
    random_tangent,
    retract,
    tangent_residual,
    validate_ensemble,
    validate_stiefel,
)
from stiefel_sync.tolerances import NEWTON_SCHULZ_DEFECT

from conftest import (
    ensemble_lp_distance,
    loop_perturb_ensemble,
    loop_random_ensemble,
    loop_retract,
)


def circle_point(theta):
    return np.array([[np.cos(theta)], [np.sin(theta)]])


class TestRandomStiefel:
    def test_one_by_one_is_sign(self):
        x = random_stiefel(1, 1, seed=0)
        assert x.shape == (1, 1)
        assert abs(abs(x[0, 0]) - 1.0) <= 1e-15

    def test_deterministic_per_seed(self):
        assert np.array_equal(random_stiefel(6, 3, seed=42), random_stiefel(6, 3, seed=42))

    def test_sampling_orthonormality_statistics(self):
        rng = np.random.default_rng(1)
        total = 0.0
        samples = 10_000
        for _ in range(samples):
            x = random_stiefel(3, 2, rng)
            total += frobenius(x.T @ x - np.eye(2))
        assert total / samples <= 1e-10

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            random_stiefel(2, 3, seed=0)

    def test_haar_column_symmetry(self):
        # first-coordinate statistics of a Haar point on the sphere: mean 0
        rng = np.random.default_rng(2)
        vals = [random_stiefel(4, 1, rng)[0, 0] for _ in range(4000)]
        assert abs(np.mean(vals)) <= 0.05


class TestValidation:
    def test_accepts_manifold_point(self):
        validate_stiefel(random_stiefel(5, 2, seed=3))

    def test_rejects_off_manifold(self):
        x = random_stiefel(5, 2, seed=4)
        with pytest.raises(ValidationError):
            validate_stiefel(x + 1e-4)

    @settings(max_examples=60)
    @given(size=st.floats(min_value=1e-13, max_value=1e-2, allow_nan=False))
    def test_near_violation_fuzz(self, size):
        # acceptance depends only on the measured defect vs the tolerance
        x = random_stiefel(4, 2, seed=5)
        bumped = x + size * np.ones_like(x)
        defect = frobenius(bumped.T @ bumped - np.eye(2))
        if defect > 1e-10:
            with pytest.raises(ValidationError):
                validate_stiefel(bumped)
        else:
            validate_stiefel(bumped)

    def test_ensemble_checks_each_agent(self):
        states = random_ensemble(4, 2, 3, seed=6)
        states[1, 0, 0] += 1e-3
        with pytest.raises(ValidationError):
            validate_ensemble(states)

    def test_drift_measure(self):
        states = random_ensemble(4, 2, 3, seed=7)
        assert orthonormality_drift(states) <= 1e-14


class TestRetract:
    def test_fixed_point(self):
        x = random_stiefel(5, 3, seed=8)
        assert frobenius(retract(x) - x) <= 1e-12

    def test_small_perturbation_sensitivity(self):
        rng = np.random.default_rng(9)
        s = random_stiefel(5, 3, rng)
        delta = rng.standard_normal(s.shape)
        delta *= 1e-8 / frobenius(delta)
        assert frobenius(retract(s + delta) - s) <= 3e-8

    def test_column_scaled_frame_recovered(self):
        s = random_stiefel(6, 2, seed=10)
        assert frobenius(retract(s @ np.diag([3.0, 0.5])) - s) <= 1e-12

    def test_idempotent(self):
        x = np.random.default_rng(11).standard_normal((5, 2))
        once = retract(x)
        assert frobenius(retract(once) - once) <= 1e-12


class TestTangent:
    def test_vertical_direction_is_tangent(self):
        s = random_stiefel(5, 3, seed=12)
        omega = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        assert tangent_residual(s, s @ omega) <= 1e-12

    def test_radial_direction_residual(self):
        s = random_stiefel(5, 3, seed=13)
        assert abs(tangent_residual(s, s) - 2.0 * np.sqrt(3)) <= 1e-12

    def test_projection_produces_tangents(self):
        rng = np.random.default_rng(14)
        s = random_stiefel(6, 2, rng)
        for _ in range(20):
            assert tangent_residual(s, random_tangent(s, rng)) <= 1e-12

    def test_shape_mismatch(self):
        s = random_stiefel(4, 2, seed=15)
        with pytest.raises(DimensionError):
            tangent_residual(s, np.ones((4, 3)))


class TestEnsembleDiameter:
    def test_identical_agents(self):
        s = random_stiefel(4, 2, seed=16)
        assert ensemble_diameter(np.stack([s, s, s])) == 0.0

    def test_antipodal_circle_points(self):
        states = np.stack([circle_point(0.0), circle_point(np.pi)])
        assert abs(ensemble_diameter(states) - 2.0) <= 1e-12

    def test_matches_brute_force(self):
        states = random_ensemble(4, 2, 5, seed=17)
        best = 0.0
        for i in range(5):
            for j in range(5):
                best = max(best, frobenius(states[i] - states[j]))
        assert abs(ensemble_diameter(states) - best) <= 1e-15

    def test_bounded_by_two_sqrt_p(self):
        for p in (1, 2, 3):
            states = random_ensemble(5, p, 8, seed=18 + p)
            assert ensemble_diameter(states) <= 2.0 * np.sqrt(p) + 1e-12


def ensemble_stack(batch, snapshots, count, n, p, seed):
    """(B, K, N, n, p) stack of slightly off-manifold ensembles."""
    rng = np.random.default_rng(seed)
    stack = np.stack([
        np.stack([random_ensemble(n, p, count, rng) for _ in range(snapshots)])
        for _ in range(batch)
    ])
    return stack + 1e-6 * rng.standard_normal(stack.shape)


class TestLeadingAxes:
    @pytest.mark.parametrize("count", [1, 2, 5])
    @pytest.mark.parametrize("fn", [orthonormality_drift, ensemble_diameter])
    def test_stack_equals_per_ensemble_calls(self, fn, count):
        stack = ensemble_stack(2, 6, count, 4, 2, seed=80 + count)
        values = fn(stack)
        assert values.shape == (2, 6)
        expected = np.array([[fn(ensemble) for ensemble in run] for run in stack])
        assert np.array_equal(values, expected)
        assert np.array_equal(fn(stack[0]), expected[0])

    @pytest.mark.parametrize("fn", [orthonormality_drift, ensemble_diameter])
    def test_single_ensemble_gives_python_float(self, fn):
        assert type(fn(random_ensemble(4, 2, 3, seed=84))) is float

    def test_pair_table_matches_brute_force(self):
        stack = ensemble_stack(2, 3, 4, 5, 3, seed=85)
        table = pair_sq_distances(stack)
        assert table.shape == (2, 3, 4, 4)
        for index in np.ndindex(2, 3):
            diffs = stack[index][:, None] - stack[index][None, :]
            assert np.array_equal(table[index], np.sum(diffs * diffs, axis=(-2, -1)))

    def test_rejects_single_point(self):
        with pytest.raises(DimensionError):
            ensemble_diameter(random_stiefel(4, 2, seed=86))

    # several chunks with a ragged last one, one chunk, and stacks with no
    # pair (N = 1) or one pair (N = 2)
    @pytest.mark.parametrize(
        "shape, chunks",
        [
            ((2, 70, 5, 4, 2), 2),
            ((2, 300, 5, 4, 2), 5),
            ((2, 1001, 8, 6, 2), 63),
            ((3, 3, 2, 1), 1),
            ((40, 1, 4, 2), 0),
            ((7, 2, 4, 2), 1),
            ((2, 300, 2, 3, 3), 1),
        ],
    )
    def test_chunked_table_equals_brute_force_bitwise(self, shape, chunks):
        *lead, count, n, p = shape
        pairs = count * (count - 1) // 2
        per_chunk = _PAIR_CHUNK_ENTRIES // max(1, pairs * n * p)
        assert (math.ceil(math.prod(lead) / per_chunk) if pairs else 0) == chunks
        stack = np.random.default_rng(87).standard_normal(shape)
        diffs = stack[..., :, None, :, :] - stack[..., None, :, :, :]
        expected = np.sum(diffs * diffs, axis=(-2, -1))
        table = pair_sq_distances(stack)
        assert table.shape == tuple(lead) + (count, count)
        assert np.array_equal(table, expected)


# multiples of the retraction's bound at which the drift sits: at, just
# under and just over it, and well on either side
DEFECT_RATIOS = [0.0, 0.5, 1 - 1e-9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-9, 2.0, 4.0]


def defect_root(c, v):
    """(I + beta v v^T), whose square is I + c v v^T for a sign vector v."""
    return np.eye(len(v)) + c / (np.sqrt(1.0 + len(v) * c) + 1.0) * np.outer(v, v)


@st.composite
def defect_stacks(draw):
    """A (B, N, n, p) stack whose agents have the Gram defect
    S^T S - I = c v v^T, v a sign vector. Such a defect has ||d||_F =
    p |c| = p max|d|, and p |c| is a drawn multiple of the retraction's
    bound: with one agent in the stack, the gate's sum of squares is tight
    on the drift."""
    p = draw(st.integers(1, 4))
    n = p + draw(st.integers(0, 2))
    batch, count = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # exact columns of the identity keep rounding out of S^T S at small c
    exact = draw(st.booleans())
    agents = []
    for _ in range(batch * count):
        ratio = draw(st.one_of(st.sampled_from(DEFECT_RATIOS), st.floats(0.0, 5.0)))
        c = ratio * NEWTON_SCHULZ_DEFECT / p
        if draw(st.booleans()):
            c = -c
        q = np.eye(n)[:, :p] if exact else random_stiefel(n, p, seed=rng)
        agents.append(q @ defect_root(c, rng.choice([-1.0, 1.0], p)))
    return np.reshape(agents, (batch, count, n, p))


class TestDriftGate:
    @settings(max_examples=400, deadline=None)
    @given(states=defect_stacks())
    def test_pass_bounds_every_drift(self, states):
        if _drift_within(states):
            assert (orthonormality_drift(states) <= NEWTON_SCHULZ_DEFECT).all()

    @settings(max_examples=100, deadline=None)
    @given(
        states=defect_stacks(),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        where=st.integers(0, 10**6),
    )
    def test_non_finite_entry_never_passes(self, states, bad, where):
        states.flat[where % states.size] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            assert not _drift_within(states)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("batch, count", [(1, 1), (1, 3), (2, 3)])
    def test_decides_both_ways_near_the_bound(self, p, batch, count):
        # the gate bounds the sum of the squares of every defect entry of
        # the stack; agents sharing the sum equally each sit at the bound /
        # sqrt(agents), and the stack passes just under the bound and fails
        # just over it, whether or not any one drift is over the bound
        agents = batch * count
        v = np.where(np.arange(p) % 2, -1.0, 1.0)
        for ratio, passes in ((1 - 1e-6, True), (1 + 1e-6, False)):
            root = defect_root(ratio * NEWTON_SCHULZ_DEFECT / (p * np.sqrt(agents)), v)
            agent = np.eye(p + 1)[:, :p] @ root
            states = np.broadcast_to(agent, (batch, count) + agent.shape)
            assert _drift_within(states) == passes
            drift = orthonormality_drift(states)
            assert (drift <= NEWTON_SCHULZ_DEFECT).all() == (passes or agents > 1)


class TestLpDistance:
    def test_zero_for_equal(self):
        states = random_ensemble(4, 2, 3, seed=21)
        assert ensemble_lp_distance(states, states, 2.0) == 0.0

    def test_l1_two_unit_gaps(self):
        # angle pi/3 on the circle gives chord length exactly 1
        e1 = np.stack([circle_point(0.0), circle_point(1.0)])
        e2 = np.stack([circle_point(np.pi / 3), circle_point(1.0 + np.pi / 3)])
        assert abs(ensemble_lp_distance(e1, e2, 1.0) - 2.0) <= 1e-12

    def test_l2_matches_flattened_norm(self):
        e1 = random_ensemble(5, 2, 4, seed=22)
        e2 = random_ensemble(5, 2, 4, seed=23)
        expected = np.linalg.norm((e1 - e2).ravel())
        assert abs(ensemble_lp_distance(e1, e2, 2.0) - expected) <= 1e-12

    def test_rejects_bad_exponent(self):
        e = random_ensemble(3, 1, 2, seed=24)
        with pytest.raises(ValidationError):
            ensemble_lp_distance(e, e, 0.5)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionError):
            ensemble_lp_distance(
                random_ensemble(3, 1, 2, seed=25), random_ensemble(3, 1, 3, seed=26), 1.0
            )

    @settings(max_examples=40)
    @given(
        p_exp=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_metric_properties(self, p_exp, seed):
        rng = np.random.default_rng(seed)
        a = random_ensemble(4, 2, 3, rng)
        b = random_ensemble(4, 2, 3, rng)
        c = random_ensemble(4, 2, 3, rng)
        dab = ensemble_lp_distance(a, b, p_exp)
        dba = ensemble_lp_distance(b, a, p_exp)
        assert abs(dab - dba) <= 1e-12 * max(1.0, dab)
        dac = ensemble_lp_distance(a, c, p_exp)
        dcb = ensemble_lp_distance(c, b, p_exp)
        assert dab <= dac + dcb + 1e-12


class TestEnsembleBuilders:
    def test_near_consensus_radius_controls_diameter(self):
        states = near_consensus_ensemble(5, 2, 6, radius=0.1, seed=27)
        validate_ensemble(states)
        assert ensemble_diameter(states) <= 0.21

    def test_perturb_ensemble_distance(self):
        base = random_ensemble(5, 2, 4, seed=28)
        moved = perturb_ensemble(base, 1e-4, seed=29)
        validate_ensemble(moved)
        gaps = np.sqrt(np.sum((base - moved) ** 2, axis=(-2, -1)))
        assert np.all(gaps <= 2e-4)
        assert np.all(gaps >= 1e-5)

    @pytest.mark.parametrize("n, p, count", [(3, 1, 3), (4, 2, 5), (6, 2, 8), (5, 3, 1)])
    def test_near_consensus_draws_as_before(self, n, p, count):
        # the agents are one base point perturbed: the same draws in the
        # same order as retracting base + tangent agent by agent
        rng = np.random.default_rng(31)
        base = random_stiefel(n, p, rng)
        agents = [retract(base + random_tangent(base, rng, norm=0.3)) for _ in range(count)]
        states = near_consensus_ensemble(n, p, count, radius=0.3, seed=31)
        assert np.array_equal(states, np.stack(agents))

    def test_deterministic(self):
        a = near_consensus_ensemble(4, 2, 3, radius=0.2, seed=30)
        b = near_consensus_ensemble(4, 2, 3, radius=0.2, seed=30)
        assert np.array_equal(a, b)


def outcome(build, *args):
    """What ``build(*args)`` gives: its array, or its error's type and text.
    The per-agent loop warns where a rescaling overflows; that is silenced
    here, and the batched builders are held to no warning by the suite."""
    try:
        with warnings.catch_warnings():
            if build is loop_perturb_ensemble:
                warnings.simplefilter("ignore", RuntimeWarning)
            return build(*args)
    except (StiefelSyncError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def same(a, b) -> bool:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    return a == b


# p = 1, p = n and N = 1 each appear
SAMPLING_SHAPES = [(1, 1, 1), (1, 1, 4), (3, 1, 5), (2, 2, 3), (4, 4, 2), (5, 2, 1), (6, 3, 7)]


class TestBatchedSampling:
    """The ensemble builders take one draw per ensemble; they give what the
    per-agent loops in conftest give, bit for bit, errors included."""

    @pytest.mark.parametrize("n, p, count", SAMPLING_SHAPES)
    def test_random_ensemble_is_the_loop(self, n, p, count):
        for seed in range(5):
            assert same(random_ensemble(n, p, count, seed), loop_random_ensemble(n, p, count, seed))

    @pytest.mark.parametrize("n, p, count", [s for s in SAMPLING_SHAPES if s[0] > 1])
    @pytest.mark.parametrize("radius", [1e-8, 1e-3, 0.3, 2.0, 40.0])
    def test_perturb_ensemble_is_the_loop(self, n, p, count, radius):
        for seed in range(3):
            states = random_ensemble(n, p, count, seed)
            moved = perturb_ensemble(states, radius, seed + 10)
            assert same(moved, loop_perturb_ensemble(states, radius, seed + 10))

    def test_shared_generator_through_successive_calls(self):
        batched, looped = np.random.default_rng(77), np.random.default_rng(77)
        for n, p, count in SAMPLING_SHAPES[2:]:
            states = random_ensemble(n, p, count, batched)
            assert same(states, loop_random_ensemble(n, p, count, looped))
            moved = perturb_ensemble(states, 0.05, batched)
            assert same(moved, loop_perturb_ensemble(states, 0.05, looped))
        # both generators have taken the same draws
        assert batched.standard_normal() == looped.standard_normal()

    def test_errors_are_the_loops(self):
        # radii where the retraction is exact, where it drifts off the
        # manifold or a^T a turns singular (at p = n odd, where a tangent is
        # rank-deficient), where a^T a overflows, and where the rescaling
        # itself overflows for some agents: the first agent to fail names
        # the error, as in the loop, and nothing warns
        radii = np.concatenate([np.logspace(2, 12, 41), [1e150, 1e200, 1e300, 1e308, 1.7e308]])
        seen = set()
        for n, p, count in [(3, 1, 3), (2, 1, 6), (6, 3, 10), (3, 3, 8), (5, 5, 3)]:
            for seed in range(3):
                states = random_ensemble(n, p, count, seed)
                for radius in radii:
                    got = outcome(perturb_ensemble, states, float(radius), seed + 20)
                    want = outcome(loop_perturb_ensemble, states, float(radius), seed + 20)
                    if want[0] is np.linalg.LinAlgError:
                        # the loop's eigh took the NaN of an a^T a that
                        # overflows and raised, untyped: the batched
                        # retraction reports the singular a^T a
                        want = (ProjectionError, "a^T a is numerically singular; projection undefined")
                    assert same(got, want), (n, p, count, seed, radius)
                    seen.add("ok" if isinstance(got, np.ndarray) else got[1].split(":")[0])
        assert seen == {
            "ok",
            "retracted point is off the manifold",
            "a^T a is numerically singular; projection undefined",
            "polar_factor input contains NaN or Inf entries",
        }

    def test_zero_tangent_at_one_row_one_column(self):
        states = random_ensemble(1, 1, 4, seed=5)
        for build in (perturb_ensemble, loop_perturb_ensemble):
            with pytest.raises(ValidationError, match="degenerate zero tangent sample"):
                build(states, 0.1, 6)

    @pytest.mark.parametrize("count", [1, 2, 9])
    def test_one_decomposition_per_ensemble(self, monkeypatch, count):
        calls = {"eigh": 0, "qr": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        states = random_ensemble(4, 2, count, seed=3)
        assert calls == {"eigh": 0, "qr": 1}
        perturb_ensemble(states, 0.1, seed=4)
        assert calls == {"eigh": 1, "qr": 1}
        near_consensus_ensemble(4, 2, count, 0.1, seed=5)
        assert calls == {"eigh": 2, "qr": 2}

    def test_retract_stack_is_each_matrix_alone(self):
        stack = np.random.default_rng(8).standard_normal((3, 4, 5, 2))
        u = retract(stack)
        for index in np.ndindex(3, 4):
            assert np.array_equal(u[index], loop_retract(stack[index]))

    def test_empty_random_ensemble_rejected(self):
        with pytest.raises(DimensionError, match="at least one agent"):
            random_ensemble(3, 1, 0, seed=1)
