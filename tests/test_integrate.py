"""Integrator tests: accuracy order, manifold preservation, pairing,
determinism, and divergence handling."""

import dataclasses
import importlib
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import stiefel_sync
from stiefel_sync.errors import (
    DimensionError,
    DivergenceError,
    ValidationError,
)
from stiefel_sync.integrate import RETRACTION_POLICIES, IntegratorConfig, integrate
from stiefel_sync.linalg import _polar_unchecked, _Workspace, expm_skew
from stiefel_sync.manifold import (
    _drift_within,
    near_consensus_ensemble,
    perturb_ensemble,
    random_ensemble,
    random_stiefel,
)
from stiefel_sync.model import (
    ModelConfig,
    Topology,
    common_frequencies,
    potential,
    random_frequencies,
    random_skew,
    rhs,
    zero_frequencies,
)
from stiefel_sync.tolerances import NEWTON_SCHULZ_DEFECT

from conftest import ensemble_lp_distance
from test_golden import STATE_ERROR


def drift_free_config(count=3, n=4, p=2, skew_scale=1.0, seed=0):
    """kappa = 0 with a common generator: closed-form solution
    S_i(t) = S_i(0) exp(t W)."""
    skew = random_skew(p, seed=seed, scale=skew_scale)
    cfg = ModelConfig(
        kappa=0.0,
        topology=Topology.separable(np.ones(count)),
        freqs=common_frequencies(skew, count),
        n=n,
        p=p,
    )
    return cfg, skew


class TestIntegratorConfig:
    def test_rejects_bad_step(self):
        with pytest.raises(ValidationError):
            IntegratorConfig(h=0.0)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValidationError):
            IntegratorConfig(t_end=-1.0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValidationError):
            IntegratorConfig(retraction="sometimes")

    def test_rejects_bad_stride(self):
        with pytest.raises(ValidationError):
            IntegratorConfig(record_stride=0)

    @pytest.mark.parametrize("h, t_end", [(1e-300, 50.0), (5e-324, 1.0), (1e-3, 1e300)])
    def test_rejects_grid_no_array_can_hold(self, h, t_end):
        # rejected at construction, before integrate allocates anything
        with pytest.raises(ValidationError, match="more snapshots than an array can hold"):
            IntegratorConfig(h=h, t_end=t_end)

    # (h, t_end, record_stride): zero horizon, one step, a stride beyond the
    # step count, and step counts that are and are not stride multiples
    GRIDS = [
        (1e-3, 0.0, 10),
        (2e-3, 2e-3, 1),
        (2e-3, 2e-3, 5),
        (1e-3, 7e-3, 50),
        (1e-3, 0.0105, 4),
        (1e-3, 0.012, 4),
        (0.1, 1.0, 3),
        (0.1, 0.7, 3),
        (3e-3, 1.0, 7),
    ]

    @pytest.mark.parametrize("h, t_end, stride", GRIDS)
    def test_recorded_steps_are_the_run_grid(self, h, t_end, stride):
        icfg = IntegratorConfig(h=h, t_end=t_end, record_stride=stride)
        cfg = ModelConfig(
            kappa=1.0, topology=Topology.separable(np.ones(2)),
            freqs=zero_frequencies(2, 1), n=2, p=1,
        )
        times = integrate(random_ensemble(2, 1, 2, seed=5), cfg, icfg).times
        assert np.array_equal(icfg.recorded_steps() * h, times)
        assert icfg.snapshot_count == times.shape[0]
        # every stride-th step and the final one, each at step * h
        steps = icfg.steps
        marked = [step for step in range(1, steps + 1) if step % stride == 0 or step == steps]
        assert times.tolist() == [0.0] + [step * h for step in marked]

    def test_stride_counts_toward_the_grid(self):
        steps = 2.0 ** 62
        with pytest.raises(ValidationError):
            IntegratorConfig(h=1.0, t_end=steps, record_stride=1)
        IntegratorConfig(h=1.0, t_end=steps, record_stride=64)


class TestClosedFormAccuracy:
    def test_rotation_flow_error(self):
        h = 1e-3
        cfg, skew = drift_free_config(seed=1)
        init = random_ensemble(4, 2, 3, seed=2)
        traj = integrate(init, cfg, IntegratorConfig(h=h, t_end=1.0, record_stride=100))
        exact = init @ expm_skew(1.0 * skew)
        err = np.max(np.sqrt(np.sum((traj.final - exact) ** 2, axis=(-2, -1))))
        assert err <= 10.0 * h ** 4

    def test_richardson_order(self):
        cfg, skew = drift_free_config(skew_scale=1.5, seed=3)
        init = random_ensemble(4, 2, 3, seed=4)
        exact = init @ expm_skew(1.0 * skew)

        def endpoint_error(h):
            traj = integrate(
                init, cfg, IntegratorConfig(h=h, t_end=1.0, record_stride=10_000)
            )
            return np.max(np.abs(traj.final - exact))

        e1, e2, e3 = (endpoint_error(h) for h in (0.02, 0.01, 0.005))
        assert 12.0 <= e1 / e2 <= 20.0
        assert 12.0 <= e2 / e3 <= 20.0

    def test_consensus_is_stationary(self):
        s = random_stiefel(4, 2, seed=5)
        init = np.stack([s] * 4)
        cfg = ModelConfig(
            kappa=2.0,
            topology=Topology.separable(np.ones(4)),
            freqs=zero_frequencies(4, 2),
            n=4,
            p=2,
        )
        traj = integrate(init, cfg, IntegratorConfig(h=1e-3, t_end=2.0, record_stride=100))
        assert np.max(np.abs(traj.states - init[None])) <= 1e-12
        assert np.max(traj.diameters) <= 1e-12


class TestManifoldPreservation:
    def test_every_step_retraction_drift(self):
        cfg = ModelConfig(
            kappa=3.0,
            topology=Topology.separable(np.linspace(0.9, 1.1, 5)),
            freqs=random_frequencies(5, 2, 0.8, seed=6),
            n=5,
            p=2,
        )
        init = random_ensemble(5, 2, 5, seed=7)
        traj = integrate(init, cfg, IntegratorConfig(h=1e-3, t_end=3.0, record_stride=50))
        assert np.max(traj.drift) <= 1e-10

    def test_disabled_retraction_drift_stays_small(self):
        cfg = ModelConfig(
            kappa=2.0,
            topology=Topology.separable(np.ones(4)),
            freqs=random_frequencies(4, 2, 1.0, seed=8),
            n=4,
            p=2,
        )
        init = random_ensemble(4, 2, 4, seed=9)
        traj = integrate(
            init, cfg, IntegratorConfig(h=1e-3, t_end=3.0, retraction="never", record_stride=50)
        )
        assert np.max(traj.drift) <= 1e-6
        assert traj.drift[-1] > 0.0

    def test_on_drift_policy_bounds_recorded_drift(self):
        cfg = ModelConfig(
            kappa=2.0,
            topology=Topology.separable(np.ones(4)),
            freqs=random_frequencies(4, 2, 1.0, seed=10),
            n=4,
            p=2,
        )
        init = random_ensemble(4, 2, 4, seed=11)
        # at h 0.02 the unretracted run drifts past the retraction's bound
        icfg = IntegratorConfig(h=2e-2, t_end=3.0, retraction="on_drift", record_stride=25)
        traj = integrate(init, cfg, icfg)
        assert np.max(traj.drift) <= NEWTON_SCHULZ_DEFECT
        raw = integrate(init, cfg, dataclasses.replace(icfg, retraction="never"))
        assert np.max(raw.drift) > NEWTON_SCHULZ_DEFECT


class TestGradientDescent:
    def test_potential_monotone_without_drift_generators(self):
        rng = np.random.default_rng(12)
        w = rng.uniform(0.2, 1.5, (5, 5))
        topo = Topology.general((w + w.T) / 2)
        cfg = ModelConfig(kappa=3.0, topology=topo, freqs=zero_frequencies(5, 2), n=4, p=2)
        init = near_consensus_ensemble(4, 2, 5, 0.5, seed=13)
        h = 1e-3
        traj = integrate(init, cfg, IntegratorConfig(h=h, t_end=5.0, record_stride=10))
        values = np.array([potential(traj.states[k], topo) for k in range(len(traj))])
        assert np.all(np.diff(values) <= 1e-9 * h)


class TestPairing:
    def test_identical_initials_identical_trajectories(self):
        cfg = ModelConfig(
            kappa=1.0,
            topology=Topology.separable(np.ones(3)),
            freqs=random_frequencies(3, 2, 0.4, seed=14),
            n=4,
            p=2,
        )
        init = random_ensemble(4, 2, 3, seed=15)
        t1, t2 = integrate(
            np.stack([init, init.copy()]), cfg, IntegratorConfig(h=1e-3, t_end=1.0)
        ).members()
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.times, t2.times)

    def test_grids_align_bitwise(self):
        cfg = ModelConfig(
            kappa=2.0,
            topology=Topology.separable(np.ones(3)),
            freqs=zero_frequencies(3, 2),
            n=4,
            p=2,
        )
        a = random_ensemble(4, 2, 3, seed=16)
        b = perturb_ensemble(a, 1e-3, seed=17)
        t1, t2 = integrate(
            np.stack([a, b]), cfg, IntegratorConfig(h=2e-3, t_end=1.5, record_stride=7)
        ).members()
        assert np.array_equal(t1.times, t2.times)

    def test_short_horizon_growth_bound(self):
        # distances obey an exponential a-priori bound with rate
        # kappa * max-weight * (1 + largest possible diameter)
        count, n, p = 4, 4, 2
        kappa = 1.5
        topo = Topology.separable(np.ones(count))
        cfg = ModelConfig(kappa=kappa, topology=topo, freqs=zero_frequencies(count, p), n=n, p=p)
        init = random_ensemble(n, p, count, seed=18)
        moved = init.copy()
        moved[0] = perturb_ensemble(init[:1], 1e-8, seed=19)[0]
        icfg = IntegratorConfig(h=1e-3, t_end=1.0, record_stride=10)
        t1, t2 = integrate(np.stack([init, moved]), cfg, icfg).members()
        rate = kappa * float(np.max(topo.weights)) * (1.0 + 2.0 * np.sqrt(p))
        d0 = ensemble_lp_distance(t1.initial, t2.initial, 1.0)
        for k in range(len(t1)):
            dist = ensemble_lp_distance(t1.states[k], t2.states[k], 1.0)
            assert dist <= 1.05 * d0 * np.exp(rate * t1.times[k]) + 1e-15

    def test_shape_mismatch(self):
        cfg = ModelConfig(
            kappa=1.0,
            topology=Topology.separable(np.ones(2)),
            freqs=zero_frequencies(2, 1),
            n=3,
            p=1,
        )
        # a batch of three-agent ensembles under a two-agent configuration
        with pytest.raises(DimensionError):
            integrate(
                np.stack([random_ensemble(3, 1, 3, seed=20), random_ensemble(3, 1, 3, seed=21)]),
                cfg,
                IntegratorConfig(h=1e-3, t_end=0.1),
            )


class TestBatch:
    @pytest.mark.parametrize("retraction", ["every_step", "on_drift", "never"])
    def test_members_equal_single_runs_bitwise(self, retraction):
        cfg = ModelConfig(
            kappa=3.0,
            topology=Topology.separable(np.linspace(0.8, 1.2, 5)),
            freqs=random_frequencies(5, 2, 0.5, seed=40),
            n=4,
            p=2,
        )
        a = random_ensemble(4, 2, 5, seed=41)
        b = near_consensus_ensemble(4, 2, 5, 0.1, seed=42)
        # 25 steps, recorded every 7 and at the last; at h 0.02 on_drift
        # retracts the members at different steps
        icfg = IntegratorConfig(h=2e-2, t_end=0.5, retraction=retraction, record_stride=7)
        batch = integrate(np.stack([a, b]), cfg, icfg)
        assert batch.times.shape == (len(batch),)
        assert batch.states.shape == (2, len(batch), 5, 4, 2)
        assert batch.drift.shape == batch.diameters.shape == (2, len(batch))
        singles = (integrate(a, cfg, icfg), integrate(b, cfg, icfg))
        for member, single in zip(batch.members(), singles):
            assert member.times is batch.times
            for field in ("times", "states", "drift", "diameters"):
                assert np.array_equal(getattr(member, field), getattr(single, field)), field
        assert np.array_equal(batch.initial, np.stack([a, b]))

    def test_single_run_is_its_own_member(self):
        cfg = ModelConfig(
            kappa=1.0,
            topology=Topology.separable(np.ones(3)),
            freqs=zero_frequencies(3, 2),
            n=4,
            p=2,
        )
        init = random_ensemble(4, 2, 3, seed=43)
        traj = integrate(init, cfg, IntegratorConfig(h=1e-2, t_end=0.1))
        assert traj.drift.shape == (len(traj),)
        members = traj.members()
        assert len(members) == 1 and members[0] is traj

    def test_empty_batch_rejected(self):
        cfg = ModelConfig(
            kappa=1.0,
            topology=Topology.separable(np.ones(3)),
            freqs=zero_frequencies(3, 2),
            n=4,
            p=2,
        )
        with pytest.raises(DimensionError):
            integrate(np.empty((0, 3, 4, 2)), cfg, IntegratorConfig(h=1e-2, t_end=0.1))


class TestDeterminismAndRecording:
    def test_bitwise_reproducible(self):
        cfg = ModelConfig(
            kappa=2.0,
            topology=Topology.separable(np.linspace(0.8, 1.2, 4)),
            freqs=random_frequencies(4, 2, 0.6, seed=22),
            n=5,
            p=2,
        )
        init = random_ensemble(5, 2, 4, seed=23)
        icfg = IntegratorConfig(h=1e-3, t_end=1.0, record_stride=9)
        t1 = integrate(init, cfg, icfg)
        t2 = integrate(init, cfg, icfg)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.drift, t2.drift)

    def test_final_step_always_recorded(self):
        cfg = ModelConfig(
            kappa=1.0,
            topology=Topology.separable(np.ones(2)),
            freqs=zero_frequencies(2, 1),
            n=2,
            p=1,
        )
        init = random_ensemble(2, 1, 2, seed=24)
        traj = integrate(init, cfg, IntegratorConfig(h=1e-3, t_end=0.0105, record_stride=4))
        # steps: 10 (rounded); records at 0, 4, 8, 10
        assert len(traj) == 4
        assert abs(traj.times[-1] - 0.010) <= 1e-15

    def test_zero_horizon(self):
        cfg = ModelConfig(
            kappa=1.0,
            topology=Topology.separable(np.ones(2)),
            freqs=zero_frequencies(2, 1),
            n=2,
            p=1,
        )
        init = random_ensemble(2, 1, 2, seed=25)
        traj = integrate(init, cfg, IntegratorConfig(h=1e-3, t_end=0.0))
        assert len(traj) == 1
        assert np.array_equal(traj.initial, init)


def reference_drift_and_diameter(states):
    """Drift and diameter of one run, one snapshot at a time: ||S_i^T S_i - I||
    per agent and all-pairs differences."""
    drift, diameters = [], []
    for snapshot in states:
        eye = np.eye(snapshot.shape[-1])
        drift.append(max(np.sqrt(np.sum((s.T @ s - eye) ** 2)) for s in snapshot))
        diffs = snapshot[:, None] - snapshot[None, :]
        diameters.append(np.sqrt(np.max(np.sum(diffs * diffs, axis=(-2, -1)))))
    return np.array(drift), np.array(diameters)


def recording_config(count, n=4, p=2):
    if p == 1:
        # 1 x 1 skew generators are zero
        freqs = zero_frequencies(count, 1)
    elif count > 1:
        freqs = random_frequencies(count, p, 0.5, seed=60)
    else:
        freqs = common_frequencies(random_skew(p, seed=60), 1)
    return ModelConfig(
        kappa=2.0,
        topology=Topology.separable(np.linspace(0.8, 1.2, count)),
        freqs=freqs,
        n=n,
        p=p,
    )


def reference_field(s, cfg):
    """The velocity field, written out in the order ``rhs`` evaluates it."""
    count, n, p = s.shape[-3:]
    y = (cfg.half_weights @ s.reshape(-1, count, n * p)).reshape(s.shape)
    m = s.swapaxes(-2, -1) @ y
    return y + (y + s @ (cfg.freqs - (m + m.swapaxes(-2, -1))))


def classical_field(s, cfg):
    """The velocity field (kappa/N) W S + S (Omega - (kappa/2N) (M + M^T)),
    M = S^T W S, with the scalars applied to W S and to the p x p sum."""
    count, n, p = s.shape[-3:]
    ws = (cfg.topology.weights @ s.reshape(-1, count, n * p)).reshape(s.shape)
    m = s.swapaxes(-2, -1) @ ws
    scale = cfg.kappa / count
    return scale * ws + s @ (cfg.freqs - (0.5 * scale) * (m + m.swapaxes(-2, -1)))


def reference_polar(a):
    """The gated retraction with a fresh identity: one Newton-Schulz step
    when every max|a^T a - I| of the stack is at most 1e-8, else the
    eigendecomposition of a^T a for each ensemble beyond it."""
    d = np.swapaxes(a, -2, -1) @ a - np.eye(a.shape[-1])
    out = a - a @ (0.5 * d)
    if np.abs(d).max() > 1e-8:
        far = np.abs(d).max(axis=(-3, -2, -1)) > 1e-8
        w, v = np.linalg.eigh(np.swapaxes(a[far], -2, -1) @ a[far])
        out[far] = a[far] @ ((v / np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -2, -1))
    return out


def reference_drift(s):
    """max_i ||S_i^T S_i - I|| of each ensemble of a stack."""
    gram = s.swapaxes(-2, -1) @ s - np.eye(s.shape[-1])
    return np.sqrt((gram * gram).sum(axis=(-2, -1)).max(axis=-1))


def stage_configs(cfg, h):
    """cfg with kappa and the generators scaled by h/2, h and h/6, whose
    fields are those multiples of cfg's."""
    return [
        dataclasses.replace(cfg, kappa=c * cfg.kappa, freqs=c * cfg.freqs)
        for c in (0.5 * h, h, h / 6.0)
    ]


def folded_step(s, stages):
    """One RK4 step before any retraction, with the scalars in the field:
    u_i = c_i k_i from the stage configs, combined as
    s + (((u1 + u3) + 2 u2) / 3 + u4)."""
    half, whole, sixth = stages
    u1 = reference_field(s, half)
    u2 = reference_field(s + u1, half)
    u3 = reference_field(s + u2, whole)
    u4 = reference_field(s + u3, sixth)
    return s + (((u1 + u3) + (u2 + u2)) * (1.0 / 3.0) + u4)


def reference_rk4_step(s, cfg, h):
    """One RK4 step as ``integrate`` takes it, before any retraction."""
    return folded_step(s, stage_configs(cfg, h))


def classical_rk4_step(s, cfg, h):
    """One classical RK4 step of the field, before any retraction."""
    k1 = classical_field(s, cfg)
    k2 = classical_field(s + (0.5 * h) * k1, cfg)
    k3 = classical_field(s + (0.5 * h) * k2, cfg)
    k4 = classical_field(s + h * k3, cfg)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def stepped_run(initial, icfg, step):
    """Recorded states (B, K, N, n, p) of a run or batch, stepped by
    ``step``, the loop written out: a finiteness test of every state before
    its retraction, and under ``on_drift`` one retraction per member over
    the retraction's bound. A non-finite state raises DivergenceError
    naming the first non-finite member, with the last good time."""
    s = np.asarray(initial, dtype=float)
    s = s if s.ndim == 4 else s[None]
    h, steps = icfg.h, icfg.steps
    kept = [s]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step_index in range(1, steps + 1):
            s = step(s)
            finite = [bool(np.isfinite(member).all()) for member in s]
            if not all(finite):
                raise DivergenceError(
                    f"member {finite.index(False)}", last_good_time=(step_index - 1) * h
                )
            if icfg.retraction == "every_step":
                s = reference_polar(s)
            elif icfg.retraction == "on_drift":
                for b in np.flatnonzero(reference_drift(s) > NEWTON_SCHULZ_DEFECT):
                    s[b] = reference_polar(s[b])
            if step_index % icfg.record_stride == 0 or step_index == steps:
                kept.append(s)
    return np.stack(kept, axis=1)


def reference_run(initial, cfg, icfg):
    """The states of a run or batch stepped as ``integrate`` steps it."""
    stages = stage_configs(cfg, icfg.h)
    return stepped_run(initial, icfg, lambda s: folded_step(s, stages))


def classical_reference_run(initial, cfg, icfg):
    """The states of a run or batch stepped by classical RK4, the scalars
    h/2, h and h/6 applied to the stages; the folded step agrees with it to
    rounding."""
    return stepped_run(initial, icfg, lambda s: classical_rk4_step(s, cfg, icfg.h))


def count_eigh_calls(monkeypatch):
    """Counts the calls of the retraction's eigendecomposition branch."""
    module = importlib.import_module("stiefel_sync.linalg")
    calls = [0]
    polar_checked = module._polar_checked

    def counted(a):
        calls[0] += 1
        return polar_checked(a)

    monkeypatch.setattr(module, "_polar_checked", counted)
    return calls


class TestReferenceStepper:
    # (policy, h, whether the eigh branch runs, None where that depends on
    # the batch); at h 0.01 the on_drift gate passes on every step, at h
    # 0.02 on_drift retracts some members at some steps, and at h 0.05 it
    # retracts every member at every step, beyond the Newton-Schulz gate
    CASES = [
        ("every_step", 1e-2, False),
        ("every_step", 5e-2, True),
        ("never", 1e-2, False),
        ("on_drift", 1e-2, False),
        ("on_drift", 2e-2, None),
        ("on_drift", 5e-2, True),
    ]

    @staticmethod
    def run_both(shape, retraction, h, batch, stride):
        """The states of ``integrate`` and of the reference loop, for
        ``batch`` ensembles of ``shape`` (N, n, p), one unbatched."""
        count, n, p = shape
        cfg = recording_config(count, n, p)
        initial = np.stack([random_ensemble(n, p, count, seed=70 + b) for b in range(batch)])
        icfg = IntegratorConfig(h=h, t_end=1.0, retraction=retraction, record_stride=stride)
        traj = integrate(initial if batch > 1 else initial[0], cfg, icfg)
        expected = reference_run(initial, cfg, icfg)
        return traj.states, expected if batch > 1 else expected[0]

    @pytest.mark.parametrize("retraction, h, eigh_runs", CASES)
    @pytest.mark.parametrize("batch", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_states_equal_reference_bitwise(
        self, monkeypatch, retraction, h, eigh_runs, batch, stride
    ):
        eigh_calls = count_eigh_calls(monkeypatch)
        got, expected = self.run_both((3, 4, 2), retraction, h, batch, stride)
        assert np.array_equal(got, expected)
        if eigh_runs is not None:
            assert (eigh_calls[0] > 0) == eigh_runs

    # the workspace's views of (..., n, 1) stacks, and of one agent: p = 1
    # as in the kuramoto-circle scenario, and N = 1. Every step at h 0.05
    # takes the eigh branch under every_step on both; whether on_drift's
    # retractions do depends on the shape and the batch
    @pytest.mark.parametrize("retraction, h, eigh_runs", CASES)
    @pytest.mark.parametrize("shape", [(3, 2, 1), (1, 4, 2)])
    @pytest.mark.parametrize("batch", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_other_shapes_equal_reference_bitwise(
        self, monkeypatch, retraction, h, eigh_runs, shape, batch, stride
    ):
        eigh_calls = count_eigh_calls(monkeypatch)
        got, expected = self.run_both(shape, retraction, h, batch, stride)
        assert np.array_equal(got, expected)
        if retraction != "on_drift":
            assert (eigh_calls[0] > 0) == eigh_runs


class TestClassicalAnchor:
    # the policies whose states the two loops step alike up to rounding;
    # under on_drift a rounding difference can move a retraction by a step
    CASES = [case[:2] for case in TestReferenceStepper.CASES if case[0] != "on_drift"]

    @pytest.mark.parametrize("retraction, h", CASES)
    @pytest.mark.parametrize(
        "shape, batch", [((3, 4, 2), 1), ((3, 4, 2), 3), ((8, 6, 2), 2)],
        ids=["single", "batch", "pair"],
    )
    def test_states_agree_with_classical_rk4(self, retraction, h, shape, batch):
        # the scalars moved into the field change only rounding: the folded
        # step stays within the goldens' state error of classical RK4
        count, n, p = shape
        cfg = recording_config(count, n, p)
        initial = np.stack([random_ensemble(n, p, count, seed=70 + b) for b in range(batch)])
        icfg = IntegratorConfig(h=h, t_end=1.0, retraction=retraction, record_stride=1)
        got = integrate(initial, cfg, icfg).states
        expected = classical_reference_run(initial, cfg, icfg)
        assert np.abs(got - expected).max() <= STATE_ERROR


class TestCallBudget:
    # numpy calls a step: rhs 7 a call, four calls; the stage arithmetic 9;
    # then the retraction 6 (every_step), the gate 3 (on_drift, passing) or
    # the finiteness test 1 (never). The stepping loop of the classical
    # step took 51, 48 and 46
    BUDGET = {"every_step": 43, "on_drift": 40, "never": 38}

    ELEMENTWISE = ("add", "subtract", "multiply")

    @staticmethod
    def count_numpy_calls(monkeypatch, operands=None):
        """Counts the calls of numpy functions made by the stepping modules,
        through a proxy over their ``np``; types pass through, so that
        ``isinstance`` still sees them. Each call of ``np.add``,
        ``np.subtract`` or ``np.multiply`` appends the shapes of its array
        operands, ``out`` included, to ``operands`` when given."""
        calls = [0]

        class Counting:
            def __getattr__(self, name):
                attr = getattr(np, name)
                if isinstance(attr, type) or not callable(attr):
                    return attr
                recorded = operands is not None and name in TestCallBudget.ELEMENTWISE

                def counted(*args, **kwargs):
                    calls[0] += 1
                    if recorded:
                        arrays = [*args, *kwargs.values()]
                        operands.append(
                            (name, [a.shape for a in arrays if isinstance(a, np.ndarray)])
                        )
                    return attr(*args, **kwargs)

                return counted

        for name in ("integrate", "model", "linalg", "manifold"):
            module = importlib.import_module(f"stiefel_sync.{name}")
            monkeypatch.setattr(module, "np", Counting())
        return calls

    @pytest.mark.parametrize("retraction", RETRACTION_POLICIES)
    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_no_elementwise_call_broadcasts(self, monkeypatch, retraction, batch):
        # a ufunc whose operands all have one shape skips numpy's
        # broadcasting iterator; 0-d scalars broadcast at no cost
        operands = []
        self.count_numpy_calls(monkeypatch, operands)
        initial = np.stack([random_ensemble(4, 2, 3, seed=70 + b) for b in range(batch)])
        # at h 0.01 the on_drift gate passes on every step
        icfg = IntegratorConfig(h=1e-2, t_end=0.2, retraction=retraction, record_stride=1000)
        integrate(initial if batch > 1 else initial[0], recording_config(3), icfg)
        # the stage arithmetic alone adds and multiplies every step
        assert len(operands) >= 20 * 6
        for name, shapes in operands:
            assert len({shape for shape in shapes if shape}) == 1, (name, shapes)

    @pytest.mark.parametrize("retraction", RETRACTION_POLICIES)
    @pytest.mark.parametrize("batch", [1, 2])
    def test_calls_per_step_within_budget(self, monkeypatch, retraction, batch):
        calls = self.count_numpy_calls(monkeypatch)
        cfg = recording_config(3)
        initial = np.stack([random_ensemble(4, 2, 3, seed=70 + b) for b in range(batch)])
        totals = []
        # the first of the three runs builds the cached constants
        for steps in (50, 50, 100):
            # at h 0.01 the on_drift gate passes on every step
            icfg = IntegratorConfig(
                h=1e-2, t_end=steps * 1e-2, retraction=retraction, record_stride=1000
            )
            calls[0] = 0
            integrate(initial if batch > 1 else initial[0], cfg, icfg)
            totals.append(calls[0])
        assert (totals[2] - totals[1]) / 50 <= self.BUDGET[retraction]


class TestPackageCallBudget:
    # calls of the package's own Python functions a step: rhs four times,
    # then _polar_unchecked (every_step) or _drift_within (on_drift,
    # passing); each reads its operands from one lookup of its input in the
    # workspace and tests shapes inline. Through the workspace's methods the
    # step made 12, 11 and 8
    BUDGET = {"every_step": 5, "on_drift": 5, "never": 4}

    @staticmethod
    def count_package_calls():
        """A profile function counting the calls of Python functions whose
        code is in the package, and its counter."""
        package = os.path.dirname(stiefel_sync.__file__) + os.sep
        calls = [0]

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                calls[0] += 1

        return profile, calls

    @pytest.mark.parametrize("retraction", RETRACTION_POLICIES)
    @pytest.mark.parametrize("batch", [1, 2])
    def test_package_calls_per_step_within_budget(self, retraction, batch):
        profile, calls = self.count_package_calls()
        cfg = recording_config(3)
        initial = np.stack([random_ensemble(4, 2, 3, seed=70 + b) for b in range(batch)])
        totals = []
        for steps in (50, 50, 100):
            # at h 0.01 the on_drift gate passes on every step
            icfg = IntegratorConfig(
                h=1e-2, t_end=steps * 1e-2, retraction=retraction, record_stride=1000
            )
            calls[0] = 0
            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                integrate(initial if batch > 1 else initial[0], cfg, icfg)
            finally:
                # a profiler installed from C, as cProfile's, is no callable
                # that setprofile takes back; it is enabled again instead
                if previous is None or callable(previous):
                    sys.setprofile(previous)
                else:
                    previous.enable()
            totals.append(calls[0])
        assert (totals[2] - totals[1]) / 50 <= self.BUDGET[retraction]


class TestPostLoopRecording:
    @pytest.mark.parametrize("retraction", ["every_step", "on_drift", "never"])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_matches_per_snapshot_formula(self, retraction, batch, stride):
        cfg = recording_config(4)
        initials = [random_ensemble(4, 2, 4, seed=61 + b) for b in range(batch)]
        # 40 steps; at h 0.02 on_drift retracts at some of them
        icfg = IntegratorConfig(h=2e-2, t_end=0.8, retraction=retraction, record_stride=stride)
        traj = integrate(np.stack(initials) if batch > 1 else initials[0], cfg, icfg)
        for member in traj.members():
            drift, diameters = reference_drift_and_diameter(member.states)
            assert np.array_equal(member.drift, drift)
            assert np.array_equal(member.diameters, diameters)

    @pytest.mark.parametrize("retraction", ["every_step", "on_drift", "never"])
    def test_single_agent_has_zero_diameter(self, retraction):
        # at h 0.05 on_drift retracts on every step
        icfg = IntegratorConfig(h=5e-2, t_end=0.5, retraction=retraction)
        traj = integrate(random_ensemble(4, 2, 1, seed=63), recording_config(1), icfg)
        drift, _ = reference_drift_and_diameter(traj.states)
        assert np.array_equal(traj.drift, drift)
        assert np.array_equal(traj.diameters, np.zeros(len(traj)))


class TestRecordingCallCounts:
    @staticmethod
    def count_calls(monkeypatch):
        """Counts the calls of every name the tracer wraps in the integrate
        module (the package's ``integrate`` attribute is the function, not
        the module), and keeps each drift result."""
        module = importlib.import_module("stiefel_sync.integrate")
        calls = {"rhs": 0, "polar": 0, "drift": 0, "diameter": 0}
        drifts = []

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                result = fn(*args)
                if name == "drift":
                    drifts.append(result)
                return result

            return wrapper

        for name, attr in (
            ("rhs", "rhs"),
            ("polar", "_polar_unchecked"),
            ("drift", "orthonormality_drift"),
            ("diameter", "ensemble_diameter"),
        ):
            monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
        return calls, drifts

    @pytest.mark.parametrize("retraction", ["every_step", "never"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_once_per_run(self, monkeypatch, retraction, batch, stride):
        calls, _ = self.count_calls(monkeypatch)
        initial = np.stack([random_ensemble(4, 2, 3, seed=70 + b) for b in range(batch)])
        icfg = IntegratorConfig(h=1e-2, t_end=0.3, retraction=retraction, record_stride=stride)
        integrate(initial if batch > 1 else initial[0], recording_config(3), icfg)
        n_steps = 30
        retractions = n_steps if retraction == "every_step" else 0
        assert calls == {"rhs": 4 * n_steps, "polar": retractions, "drift": 1, "diameter": 1}

    # (h, t_end, steps whose gate fails for a single run and for a batch
    # of 3); only those steps call orthonormality_drift. At h 0.01 the gate
    # clears every step; at h 0.02 it fails on some, and some of those have
    # a member over the retraction's bound; at h 0.05 it fails on every
    # step, and every step has a member over
    @pytest.mark.parametrize(
        "h, t_end, gate_failures",
        [
            (1e-2, 0.3, (0, 0)),
            (2e-2, 1.0, (15, 46)),
            (5e-2, 1.0, (20, 20)),
        ],
    )
    @pytest.mark.parametrize("batch", [1, 3])
    def test_on_drift_retracts_exactly_the_steps_over_threshold(
        self, monkeypatch, h, t_end, gate_failures, batch
    ):
        calls, drifts = self.count_calls(monkeypatch)
        cfg = recording_config(3)
        initial = np.stack([random_ensemble(4, 2, 3, seed=72 + b) for b in range(batch)])
        icfg = IntegratorConfig(h=h, t_end=t_end, retraction="on_drift", record_stride=1)
        traj = integrate(initial if batch > 1 else initial[0], cfg, icfg)
        n_steps = icfg.steps
        states = traj.states if batch > 1 else traj.states[None]
        # every step's state before its retraction, stepped from the one
        # recorded before it, and the members the exact drift puts over
        stepped = np.stack(
            [reference_rk4_step(states[:, k], cfg, h) for k in range(n_steps)], axis=1
        )
        over = reference_drift(stepped) > NEWTON_SCHULZ_DEFECT
        # the members under the bound were left as stepped, the others
        # retracted, in one retraction call per step with a member over
        assert np.array_equal(states[:, 1:][~over], stepped[~over])
        assert (traj.drift[..., 1:] <= NEWTON_SCHULZ_DEFECT).all()
        over_steps = int(over.any(axis=0).sum())
        assert calls == {
            "rhs": 4 * n_steps,
            "polar": over_steps,
            "drift": gate_failures[batch > 1] + 1,
            "diameter": 1,
        }
        # the last drift call is the one over the stored stack
        assert sum(bool(np.any(d > NEWTON_SCHULZ_DEFECT)) for d in drifts[:-1]) == over_steps
        if h == 2e-2:
            assert 0 < over_steps < gate_failures[batch > 1] < n_steps
        if h == 5e-2:
            assert over_steps == n_steps


class TestInputsUnchanged:
    @pytest.mark.parametrize("retraction", RETRACTION_POLICIES)
    @pytest.mark.parametrize("batch", [1, 3])
    def test_integrate_leaves_initial_unchanged(self, retraction, batch):
        initial = np.stack([random_ensemble(4, 2, 3, seed=90 + b) for b in range(batch)])
        initial = initial if batch > 1 else initial[0]
        before = initial.copy()
        # at h 0.05 on_drift retracts on every step
        icfg = IntegratorConfig(h=5e-2, t_end=0.5, retraction=retraction, record_stride=1)
        cfg = recording_config(3)
        freqs = cfg.freqs
        expected = freqs.copy()
        traj = integrate(initial, cfg, icfg)
        assert initial.tobytes() == before.tobytes()
        assert not np.shares_memory(traj.states, initial)
        # the stage configs' stacked generators are copies, not the caller's
        assert cfg.freqs is freqs and freqs.shape == (3, 2, 2)
        assert not freqs.flags.writeable
        assert freqs.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(), (2,), (2, 3)])
    def test_rhs_leaves_states_unchanged(self, shape):
        cfg = recording_config(3)
        rng = np.random.default_rng(93)
        states = np.stack(
            [random_ensemble(4, 2, 3, rng) for _ in range(int(np.prod(shape)))]
        ).reshape(shape + (3, 4, 2))
        before = states.copy()
        velocity = rhs(states, cfg)
        assert states.tobytes() == before.tobytes()
        assert not np.shares_memory(velocity, states)
        assert np.array_equal(velocity, reference_field(before, cfg))


class TestWorkspace:
    SHAPES = [(3, 4, 2), (3, 2, 1), (1, 4, 2)]

    @staticmethod
    def states(shape, lead, seed):
        count, n, p = shape
        rng = np.random.default_rng(seed)
        members = [random_ensemble(n, p, count, rng) for _ in range(int(np.prod(lead)))]
        return np.stack(members).reshape(lead + shape)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_rhs_into_workspace_equals_one_shot_bitwise(self, shape, lead):
        cfg = recording_config(*shape)
        x = self.states(shape, lead, seed=95)
        before = x.copy()
        expected = reference_field(x, cfg)
        assert np.array_equal(rhs(x, cfg), expected)
        work = _Workspace(x.shape, bound=2)
        bound, out = work.buffers
        np.copyto(bound, x)
        # a bound input and an unbound one, into a bound output and a new
        # one; each call again over the temporaries the last one left
        for arg in (bound, x, bound):
            for target in (out, np.empty(x.shape)):
                target.fill(np.nan)
                assert rhs(arg, cfg, work, target) is target
                assert np.array_equal(target, expected)
        assert np.array_equal(rhs(x, cfg, work), expected)
        assert x.tobytes() == before.tobytes()
        assert np.array_equal(bound, x)

    @pytest.mark.parametrize("far", [False, True])
    def test_retraction_into_workspace_equals_one_shot_bitwise(self, far):
        rng = np.random.default_rng(97)
        a = self.states((3, 4, 2), (2,), seed=97) + 1e-10 * rng.standard_normal((2, 3, 4, 2))
        if far:
            # member 1 beyond the Newton-Schulz gate: its polar factor is
            # read from a before the retraction writes over a in place
            a[1] += 1e-6 * rng.standard_normal(a[1].shape)
        expected = reference_polar(a)
        assert np.array_equal(_polar_unchecked(a), expected)
        work = _Workspace(a.shape, bound=1)
        (bound,) = work.buffers
        np.copyto(bound, a)
        assert np.array_equal(_polar_unchecked(a, None, work), expected)
        assert _polar_unchecked(bound, bound, work) is bound
        assert np.array_equal(bound, expected)

    def test_summed_gate_failing_on_near_members_changes_nothing(self, monkeypatch):
        # every member's max|a^T a - I| is 0.9e-8, under the Newton-Schulz
        # bound of 1e-8, but the squares sum over it: the gate fails, each
        # member's own max decides, and all take the step they take alone
        eigh_calls = count_eigh_calls(monkeypatch)
        a = self.states((3, 4, 2), (2,), seed=101) * np.sqrt(1.0 + 0.9e-8)
        d = np.swapaxes(a, -2, -1) @ a - np.eye(2)
        assert np.abs(d).max() < 1e-8
        work = _Workspace(a.shape, bound=1)
        assert np.vdot(d, d) > work.polar_limit
        for member, defect in zip(a, d):
            assert np.vdot(defect, defect) > _Workspace(member.shape).polar_limit
        expected = reference_polar(a)
        (bound,) = work.buffers
        np.copyto(bound, a)
        assert _polar_unchecked(bound, bound, work) is bound
        assert np.array_equal(bound, expected)
        for member, result in zip(a, expected):
            assert np.array_equal(_polar_unchecked(member), result)
        assert eigh_calls[0] == 0

    def test_workspace_of_another_shape_raises_and_does_not_broadcast(self):
        cfg = recording_config(3)
        x = random_ensemble(4, 2, 3, seed=96)
        pair = _Workspace((2,) + x.shape, bound=1)
        (out,) = pair.buffers
        # both shapes broadcast against (2, 3, 4, 2)
        for bad in (x, x[None]):
            with pytest.raises(DimensionError):
                rhs(bad, cfg, pair, out)
            with pytest.raises(DimensionError):
                _polar_unchecked(bad, None, pair)
            with pytest.raises(DimensionError):
                _drift_within(bad, pair)
        single = _Workspace(x.shape, bound=1)
        for target in (np.empty((2,) + x.shape), np.empty((1,) + x.shape)):
            with pytest.raises(DimensionError):
                rhs(x, cfg, single, target)
            with pytest.raises(DimensionError):
                _polar_unchecked(x, target, single)
            # the wrong-shaped array as the gate's state
            with pytest.raises(DimensionError):
                _drift_within(target, single)
        # a bound buffer as input, into an output of another shape
        with pytest.raises(DimensionError):
            rhs(single.buffers[0], cfg, single, np.empty((2,) + x.shape))
        with pytest.raises(DimensionError):
            _polar_unchecked(single.buffers[0], np.empty((2,) + x.shape), single)
        # a bound buffer stepped with the config of another state shape
        with pytest.raises(DimensionError):
            rhs(single.buffers[0], recording_config(3, 4, 1), single, None)

    def test_runs_in_a_row_and_in_threads_equal_the_reference(self):
        # two runs of one shape, and one of another
        runs = [
            (self.states((3, 4, 2), (2,), seed=98), recording_config(3)),
            (self.states((3, 4, 2), (2,), seed=99), recording_config(3)),
            (self.states((3, 2, 1), (), seed=100), recording_config(3, 2, 1)),
        ]
        icfg = IntegratorConfig(h=1e-2, t_end=3.0, record_stride=5)
        expected = [reference_run(initial, cfg, icfg) for initial, cfg in runs]
        expected[2] = expected[2][0]
        in_a_row = [integrate(initial, cfg, icfg).states for initial, cfg in runs]
        # a short switch interval interleaves the runs' steps
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                threaded = list(
                    pool.map(lambda run: integrate(*run, icfg).states, runs, timeout=300)
                )
        finally:
            sys.setswitchinterval(interval)
        for got in (in_a_row, threaded):
            assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    @pytest.mark.parametrize("retraction", RETRACTION_POLICIES)
    def test_trajectory_shares_no_memory_with_the_workspace(self, monkeypatch, retraction):
        module = importlib.import_module("stiefel_sync.integrate")
        built = []

        class Recorded(module._Workspace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(module, "_Workspace", Recorded)
        initial = self.states((3, 4, 2), (2,), seed=94)
        # at h 0.05 on_drift retracts on every step
        icfg = IntegratorConfig(h=5e-2, t_end=0.5, retraction=retraction, record_stride=1)
        traj = integrate(initial, recording_config(3), icfg)
        (work,) = built
        arrays = list(work.buffers)
        for flat, transposed, field, retraction in work.views.values():
            arrays += [flat, transposed, *field, *retraction]
        for result in (traj.times, traj.states, traj.drift, traj.diameters):
            assert not any(np.shares_memory(result, a) for a in arrays)


class TestDivergence:
    def test_unstable_step_raises_with_last_good_time(self):
        # a absurdly stiff coupling blows RK4 up within a few steps
        cfg = ModelConfig(
            kappa=1e9,
            topology=Topology.separable(np.ones(3)),
            freqs=zero_frequencies(3, 2),
            n=4,
            p=2,
        )
        init = random_ensemble(4, 2, 3, seed=26)
        with pytest.raises(DivergenceError) as err:
            integrate(init, cfg, IntegratorConfig(h=1e-3, t_end=1.0, retraction="never"))
        assert err.value.last_good_time >= 0.0
        assert err.value.last_good_time < 1.0

    def test_batch_raises_at_first_member_to_diverge(self):
        # at this coupling a random ensemble blows up within 7 steps and a
        # near-consensus one within 16
        cfg = ModelConfig(
            kappa=3e3,
            topology=Topology.separable(np.ones(3)),
            freqs=zero_frequencies(3, 2),
            n=4,
            p=2,
        )
        icfg = IntegratorConfig(h=1e-3, t_end=1.0, retraction="never")
        fast = random_ensemble(4, 2, 3, seed=26)
        slow = near_consensus_ensemble(4, 2, 3, 1e-6, seed=5)
        last_good = {}
        for name, init in (("fast", fast), ("slow", slow)):
            with pytest.raises(DivergenceError) as err:
                integrate(init, cfg, icfg)
            last_good[name] = err.value.last_good_time
        assert last_good["fast"] < last_good["slow"]
        for batch, index in (([slow, fast], 1), ([fast, slow], 0)):
            with pytest.raises(DivergenceError) as err:
                integrate(np.stack(batch), cfg, icfg)
            assert err.value.last_good_time == last_good["fast"]
            assert f"member {index}" in str(err.value)

    # (policy, step size); at kappa 1e4 the random ensemble and the
    # near-consensus one diverge at different steps under each
    POLICIES = [("never", 1e-3), ("every_step", 1e-3), ("on_drift", 1e-3), ("on_drift", 2e-3)]

    @staticmethod
    def stiff_case(retraction, h):
        cfg = ModelConfig(
            kappa=1e4,
            topology=Topology.separable(np.ones(3)),
            freqs=zero_frequencies(3, 2),
            n=4,
            p=2,
        )
        members = [
            random_ensemble(4, 2, 3, seed=26),
            near_consensus_ensemble(4, 2, 3, 1e-6, seed=5),
        ]
        icfg = IntegratorConfig(h=h, t_end=0.1, retraction=retraction)
        return cfg, members, icfg

    @staticmethod
    def divergence(initial, cfg, icfg, stepper):
        with pytest.raises(DivergenceError) as err:
            stepper(initial, cfg, icfg)
        return err.value

    @pytest.mark.parametrize("retraction, h", POLICIES)
    def test_single_runs_diverge_where_reference_does(self, retraction, h):
        cfg, members, icfg = self.stiff_case(retraction, h)
        last_good = []
        for init in members:
            got = self.divergence(init, cfg, icfg, integrate)
            expected = self.divergence(init, cfg, icfg, reference_run)
            assert got.last_good_time == expected.last_good_time
            assert "member" not in str(got)
            last_good.append(got.last_good_time)
        assert last_good[0] != last_good[1]

    @pytest.mark.parametrize("retraction, h", POLICIES)
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_batch_names_the_reference_member(self, retraction, h, order):
        cfg, members, icfg = self.stiff_case(retraction, h)
        batch = np.stack([members[i] for i in order])
        got = self.divergence(batch, cfg, icfg, integrate)
        expected = self.divergence(batch, cfg, icfg, reference_run)
        assert got.last_good_time == expected.last_good_time
        assert f"{expected} at t = " in str(got)
        first = int(str(expected).removeprefix("member "))
        assert self.divergence(batch[first], cfg, icfg, integrate).last_good_time == (
            got.last_good_time
        )

    def test_stage_configs_are_not_checked_again(self):
        # at h 2 the stage config of c = h doubles the generators, whose skew
        # defect is 0.6 of the absolute floor of 1e-12, and kappa 1e308; the
        # first run steps, the second diverges at its first step, as the
        # classical loop does
        w = np.array([[0.0, 0.5], [-0.5 + 0.6e-12, 0.0]])
        initial = random_ensemble(4, 2, 3, seed=27)
        icfg = IntegratorConfig(h=2.0, t_end=8.0, record_stride=1)
        for kappa in (0.1, 1e308):
            cfg = ModelConfig(
                kappa=kappa,
                topology=Topology.separable(np.ones(3)),
                freqs=common_frequencies(w, 3),
                n=4,
                p=2,
            )
            if kappa == 0.1:
                got = integrate(initial, cfg, icfg).states
                expected = classical_reference_run(initial, cfg, icfg)[0]
                assert np.abs(got - expected).max() <= STATE_ERROR
            else:
                got = self.divergence(initial, cfg, icfg, integrate)
                expected = self.divergence(initial, cfg, icfg, classical_reference_run)
                assert got.last_good_time == expected.last_good_time == 0.0

    @pytest.mark.parametrize("retraction", RETRACTION_POLICIES)
    @pytest.mark.parametrize("batch", [1, 2])
    def test_finite_state_with_overflowing_gram_is_not_divergence(self, retraction, batch):
        # kappa 0 and h |Omega| = 1e40: one RK4 step multiplies the state by
        # about (h Omega)^4 / 24, a finite state with entries near 1e159 whose
        # a^T a overflows; it fails the retraction's gate, is finite, and the
        # run diverges only at the next step
        omega = 1e43 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        cfg = ModelConfig(
            kappa=0.0,
            topology=Topology.separable(np.ones(3)),
            freqs=common_frequencies(omega, 3),
            n=4,
            p=2,
        )
        initial = np.stack([random_ensemble(4, 2, 3, seed=80 + b) for b in range(batch)])
        icfg = IntegratorConfig(h=1e-3, t_end=0.01, retraction=retraction)
        with np.errstate(over="ignore", invalid="ignore"):
            first = reference_rk4_step(initial, cfg, 1e-3)
            assert np.isfinite(first).all() and np.abs(first).max() > 1e158
            assert not np.isfinite(np.swapaxes(first, -2, -1) @ first).all()
        got = self.divergence(initial if batch > 1 else initial[0], cfg, icfg, integrate)
        expected = self.divergence(initial, cfg, icfg, reference_run)
        assert got.last_good_time == expected.last_good_time == 1e-3
        assert ("member 0" in str(got)) == (batch > 1)
