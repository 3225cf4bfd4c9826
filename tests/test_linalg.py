"""Matrix-core tests: validation, factorizations, matrix exponential."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefel_sync.errors import (
    DimensionError,
    ProjectionError,
    RankDeficiencyError,
    ValidationError,
)
from stiefel_sync.linalg import (
    _polar_unchecked,
    expm_skew,
    qr_thin,
    require_matrix,
    require_skew,
)
from stiefel_sync.manifold import random_ensemble, random_stiefel, random_tangent, retract

def square(dim, seed):
    return np.random.default_rng(seed).standard_normal((dim, dim))


def skew(dim, seed, scale=1.0):
    g = square(dim, seed)
    s = (g - g.T) / 2.0
    return s * scale / np.linalg.norm(s)


class TestQrThin:
    def test_orthonormal_input_is_fixed(self):
        a = random_stiefel(5, 3, seed=3)
        q, r = qr_thin(a)
        assert np.max(np.abs(q - a)) <= 1e-12
        assert np.max(np.abs(r - np.eye(3))) <= 1e-12

    def test_column_scaling_recovers_frame(self):
        q0 = random_stiefel(6, 2, seed=4)
        a = q0 @ np.diag([2.0, 5.0])
        q, r = qr_thin(a)
        assert np.max(np.abs(q - q0)) <= 1e-12
        assert np.max(np.abs(r - np.diag([2.0, 5.0]))) <= 1e-12

    def test_reconstruction_residual(self):
        a = np.random.default_rng(5).standard_normal((5, 2))
        q, r = qr_thin(a)
        assert np.linalg.norm(q @ r - a) <= 1e-12
        assert np.linalg.norm(q.T @ q - np.eye(2)) <= 1e-12

    def test_sign_convention_and_triangularity(self):
        a = np.random.default_rng(6).standard_normal((7, 4))
        _, r = qr_thin(a)
        assert np.all(np.diag(r) >= 0)
        assert np.max(np.abs(np.tril(r, k=-1))) == 0.0

    def test_rank_deficiency(self):
        col = np.random.default_rng(7).standard_normal((4, 1))
        with pytest.raises(RankDeficiencyError):
            qr_thin(np.hstack([col, col]))

    def test_wide_input_rejected(self):
        with pytest.raises(DimensionError):
            qr_thin(np.ones((2, 3)))


class TestPolarFactor:
    """The polar factor, as the validated retraction returns it."""

    def test_positive_scaling_removed(self):
        x = random_stiefel(5, 2, seed=9)
        assert np.linalg.norm(retract(2.0 * x) - x) <= 1e-12

    def test_orthonormal_output(self):
        a = np.random.default_rng(10).standard_normal((6, 3))
        u = retract(a)
        assert np.linalg.norm(u.T @ u - np.eye(3)) <= 1e-12

    def test_closest_point_spot_check(self):
        # the polar factor must beat nearby manifold points sampled around it
        rng = np.random.default_rng(11)
        a = random_stiefel(5, 2, rng) + 0.1 * rng.standard_normal((5, 2))
        u = retract(a)
        base = np.linalg.norm(a - u)
        for _ in range(200):
            v = retract(u + random_tangent(u, rng, norm=float(rng.uniform(1e-3, 0.3))))
            assert base <= np.linalg.norm(a - v) + 1e-12

    def test_spd_factor_removed(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            u = random_stiefel(6, 3, rng)
            g = rng.standard_normal((3, 3))
            spd = g @ g.T + 0.2 * np.eye(3)
            assert np.linalg.norm(retract(u @ spd) - u) <= 1e-11

    def test_singular_input(self):
        col = np.random.default_rng(13).standard_normal((4, 1))
        with pytest.raises(ProjectionError):
            retract(np.hstack([col, col]))

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_overflowing_gram_is_singular(self, scale):
        # a^T a overflows: the eigenvalues are inf or NaN, and either is
        # reported as an undefined projection
        a = scale * random_stiefel(4, 2, seed=15) + scale * np.ones((4, 2))
        with pytest.raises(ProjectionError):
            retract(a)

    def test_stacked_input(self):
        rng = np.random.default_rng(14)
        stack = rng.standard_normal((4, 5, 2))
        u = retract(stack)
        for k in range(4):
            assert np.linalg.norm(u[k] - retract(stack[k])) <= 1e-12


def near_manifold(shape, defect, seed):
    """Random ensembles (..., N, n, p) moved off the manifold so that
    max|a^T a - I| is about `defect` in every ensemble."""
    rng = np.random.default_rng(seed)
    *lead, count, n, p = shape
    points = np.stack([random_ensemble(n, p, count, rng) for _ in range(int(np.prod(lead)))])
    points = points.reshape(shape)
    return points + (defect / (2 * np.sqrt(n))) * rng.standard_normal(shape)


def max_defect(a):
    return np.abs(np.swapaxes(a, -2, -1) @ a - np.eye(a.shape[-1])).max(axis=(-3, -2, -1))


def newton_schulz(a):
    return 1.5 * a - 0.5 * a @ (np.swapaxes(a, -2, -1) @ a)


class TestGatedRetraction:
    SHAPES = [(6, 4, 2), (3, 5, 1), (4, 7, 4), (3, 8, 6, 2), (5, 2, 4, 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("defect", [1e-15, 1e-12, 5e-9])
    def test_newton_schulz_branch_agrees_with_eigh(self, shape, defect):
        a = near_manifold(shape, defect, seed=len(shape) + int(-np.log10(defect)))
        assert np.all(max_defect(a) <= 1e-8)
        u = _polar_unchecked(a)
        assert np.max(np.abs(u - retract(a))) <= 1e-15
        assert np.max(np.abs(u - newton_schulz(a))) <= 1e-15

    def test_far_member_gets_eigh_bitwise(self):
        a = near_manifold((4, 5, 6, 2), 1e-10, seed=20)
        a[2] += 1e-6 * np.random.default_rng(21).standard_normal(a[2].shape)
        assert max_defect(a)[2] > 1e-8 and np.all(np.delete(max_defect(a), 2) <= 1e-8)
        u = _polar_unchecked(a)
        assert np.array_equal(u[2], retract(a[2]))
        for b in (0, 1, 3):
            d = np.swapaxes(a[b], -2, -1) @ a[b] - np.eye(2)
            assert np.array_equal(u[b], a[b] - a[b] @ (0.5 * d))

    def test_single_ensemble_off_the_gate_gets_eigh_bitwise(self):
        a = near_manifold((5, 6, 2), 1e-3, seed=22)
        assert np.array_equal(_polar_unchecked(a), retract(a))


class TestExpmSkew:
    def test_zero(self):
        assert np.array_equal(expm_skew(np.zeros((3, 3))), np.eye(3))

    def test_planar_rotation(self):
        theta = 0.77
        x = np.array([[0.0, -theta], [theta, 0.0]])
        expected = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        assert np.linalg.norm(expm_skew(x) - expected) <= 1e-14

    def test_block_rotation(self):
        # p = 4: two planar blocks, one at an angle past pi/2
        angles = (0.3, 2.9)
        x = np.zeros((4, 4))
        expected = np.zeros((4, 4))
        for k, theta in enumerate(angles):
            block = slice(2 * k, 2 * k + 2)
            x[block, block] = [[0.0, -theta], [theta, 0.0]]
            expected[block, block] = [
                [np.cos(theta), -np.sin(theta)],
                [np.sin(theta), np.cos(theta)],
            ]
        assert np.linalg.norm(expm_skew(x) - expected) <= 1e-14

    def test_against_long_taylor_series(self):
        x = skew(4, 15, scale=3.0)
        expected = np.zeros((4, 4))
        term = np.eye(4)
        expected += term
        for k in range(1, 31):
            term = term @ x / k
            expected += term
        assert np.linalg.norm(expm_skew(x) - expected) <= 1e-12

    def test_inverse_identity(self):
        x = skew(3, 16, scale=2.0)
        assert np.linalg.norm(expm_skew(x) @ expm_skew(-x) - np.eye(3)) <= 1e-12

    @pytest.mark.parametrize("scale", [0.01, 1.0, 5.0, 10.0])
    def test_orthogonal_output(self, scale):
        x = skew(4, 17, scale=scale)
        r = expm_skew(x)
        assert np.linalg.norm(r.T @ r - np.eye(4)) <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12

    def test_rejects_non_skew(self):
        with pytest.raises(ValidationError):
            expm_skew(np.eye(2))


class TestValidators:
    def test_require_matrix_rejects_nan(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            require_matrix(bad)

    def test_require_matrix_rejects_vector(self):
        with pytest.raises(DimensionError):
            require_matrix(np.ones(3))

    def test_require_skew_tolerance_scales_with_norm(self):
        x = skew(3, 18, scale=100.0)
        assert require_skew(x) is not None
        with pytest.raises(ValidationError):
            require_skew(x + 1e-8)

    @pytest.mark.parametrize("ratio", [0.0, 0.5, 0.9, 1.1, 2.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_require_skew_decides_alike_at_every_power_of_two(self, ratio, seed):
        # a symmetric part of ratio times the allowed defect; scaled by 2^k,
        # up to where the largest entry nears the float limit, the matrix
        # passes or fails as it does at k = 0, with the same defect times 2^k
        # unit norm and ||x + x^T|| = ratio 1e-12
        x = skew(3, seed) + ratio * 1e-12 / (2.0 * np.sqrt(3.0)) * np.eye(3)
        expected = None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (0, 1, 200, 600, 1000, 1023):
                try:
                    require_skew(np.ldexp(x, k))
                    outcome = "pass"
                except ValidationError as exc:
                    defect = float(str(exc).split("defect ")[1].rstrip(")"))
                    outcome = float(f"{np.ldexp(defect, -k):.2e}")
                expected = outcome if expected is None else expected
                assert outcome == expected
        assert (expected == "pass") == (ratio < 1.0)

    @pytest.mark.parametrize("entry", [1e154, 1e308, np.finfo(float).max])
    def test_require_skew_rejects_huge_symmetric_without_warning(self, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="not skew-symmetric"):
                require_skew([[0.0, entry], [entry, 0.0]])
            assert require_skew([[0.0, entry], [-entry, 0.0]]) is not None

    @settings(max_examples=50)
    @given(theta=st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_expm_skew_orthogonality_property(self, theta):
        x = np.array([[0.0, -theta], [theta, 0.0]])
        r = expm_skew(x)
        assert np.linalg.norm(r.T @ r - np.eye(2)) <= 1e-12
