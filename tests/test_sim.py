import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nosreg.chains import (Exosystem, NonlinearPlant, assemble_mimo, chain_plant,
                           split_state)
from nosreg.errors import DimensionMismatch, NonFiniteState
from nosreg.modal import PoleSet, modal_coeffs, natural_response
from nosreg.plants import REFERENCE_X0, benchmark_plant
from nosreg.regulation import synthesize
from nosreg.sim import (SimConfig, detect_overshoot, rk4_step,
                        simulate_nonlinear, write_csv)

ROTATION = Exosystem(S=[[0.0, 1.0], [-1.0, 0.0]], H=[[1.0, 0.0]], w0=[1.0, 0.0])
SLOW_POLES = PoleSet((-4.847, -4.017, -2.432, -0.1032))
XI0 = np.array([0.0, 2.0, -5.0, 4.0])

# two channels, degrees (2, 3): channel 1 tracks cos t, channel 2 tracks -sin t
ROTATION2 = Exosystem(S=ROTATION.S, H=np.eye(2), w0=[1.0, 0.0])
MIMO_POLES = (PoleSet((-3.0, -1.0)), PoleSet((-4.0, -2.0, -0.5)))
MIMO_XI0 = np.array([2.0, 0.5, 0.8, -0.7, 0.1])


def _benchmark_gains(poles=SLOW_POLES):
    return synthesize(assemble_mimo([4]), ROTATION, XI0, [poles])


class TestRK4Step:
    def test_zero_derivative_is_identity(self):
        z = (1.0, -2.0, 3.0)
        assert rk4_step(lambda t, z: (0.0, 0.0, 0.0), 0.0, z, 0.1) == z

    def test_exponential_decay_single_step(self):
        z = rk4_step(lambda t, z: (-z[0],), 0.0, (1.0,), 0.1)
        assert z[0] == pytest.approx(0.9048375, abs=1e-12)
        assert z[0] == pytest.approx(math.exp(-0.1), abs=1e-7)

    def test_rotation_quarter_turn(self):
        S = np.array([[0.0, 1.0], [-1.0, 0.0]])
        h = 1e-3
        steps = int(math.pi / 2 / h)
        w = (1.0, 0.0)
        t = 0.0
        for _ in range(steps):
            w = rk4_step(lambda t, w: tuple(S @ w), t, w, h)
            t += h
        w = rk4_step(lambda t, w: tuple(S @ w), t, w, math.pi / 2 - t)
        np.testing.assert_allclose(w, [0.0, -1.0], atol=1e-9)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(DimensionMismatch):
            SimConfig(step=0.0)

    def test_nonfinite_state_reported_with_time(self):
        # dynamics that overflow to inf on the first step: the loop must stop
        # there and report the time of the step that left the finite range
        def dynamics(x, u):
            return (x[0] * 1e308 * 10.0,)

        plant = NonlinearPlant(state_dim=1, degrees=(1,),
                               dynamics=dynamics, output=lambda x: (x[0],),
                               normal_map=lambda x: x,
                               linearizing_feedback=lambda x, v: v)
        exo = Exosystem(S=[[0.0]], H=[[1.0]], w0=[0.0])
        cfg = SimConfig(step=0.5, horizon=2.0)
        with pytest.raises(NonFiniteState) as exc:
            simulate_nonlinear(plant, exo, None, (1.0,), cfg)
        assert exc.value.t == cfg.step


class TestSimulateLinear:
    def test_on_manifold_start_has_zero_error(self):
        gains = _benchmark_gains()
        Pi = gains.subsystems[0].Pi
        xi0 = Pi @ ROTATION.w0
        traj, report = simulate_nonlinear(chain_plant([4]), ROTATION, gains, xi0,
                                          SimConfig(horizon=5.0))
        assert np.max(np.abs(traj.e)) <= 1e-9
        assert not report.any_overshoot

    def test_quiescent_everything_stays_zero(self):
        exo = Exosystem(S=[[0.0, 1.0], [-1.0, 0.0]], H=[[1.0, 0.0]], w0=[0.0, 0.0])
        gains = _benchmark_gains()
        traj, _ = simulate_nonlinear(chain_plant([4]), exo, gains, np.zeros(4),
                                     SimConfig(horizon=2.0))
        assert np.max(np.abs(traj.x)) == 0.0
        assert np.max(np.abs(traj.e)) == 0.0
        assert np.max(np.abs(traj.u)) == 0.0

    def test_error_matches_modal_response_oracle(self):
        # e_j(t) = -(natural response of channel j's own offset) in closed form
        for degrees, exo, xi0, poles, e0 in (
                ((4,), ROTATION, XI0, (SLOW_POLES,), (1.0,)),
                ((2, 3), ROTATION2, MIMO_XI0, MIMO_POLES, (-1.0, -0.8))):
            gains = synthesize(assemble_mimo(degrees), exo, xi0, poles)
            traj, report = simulate_nonlinear(chain_plant(degrees), exo, gains, xi0,
                                              SimConfig(horizon=10.0))
            np.testing.assert_allclose(traj.e[0], e0, rtol=0.0, atol=1e-12)
            for j, xi0_j in enumerate(split_state(xi0, degrees)):
                xt0 = xi0_j - gains.subsystems[j].Pi @ exo.w0
                ref = -natural_response(modal_coeffs(poles[j], xt0), traj.times)
                assert np.max(np.abs(traj.e[:, j] - ref)) <= 1e-6
                assert abs(traj.e[-1, j]) < 0.1
            assert not report.any_overshoot

    def test_uniform_grid_spacing(self):
        traj, _ = simulate_nonlinear(chain_plant([4]), ROTATION, _benchmark_gains(),
                                     XI0, SimConfig(step=1e-3, horizon=1.0,
                                                    record_stride=10))
        np.testing.assert_allclose(np.diff(traj.times), 1e-2, atol=1e-12)
        assert traj.e.shape == (101, 1)
        np.testing.assert_allclose(traj.e, traj.r - traj.y, atol=0.0)

    def test_records_align_with_their_states(self):
        # every recorded sample's outputs come from that sample's state:
        # v = F xi + G w, r = H w, and y is each block's first state
        gains = synthesize(assemble_mimo((2, 3)), ROTATION2, MIMO_XI0, MIMO_POLES)
        traj, _ = simulate_nonlinear(chain_plant((2, 3)), ROTATION2, gains, MIMO_XI0,
                                     SimConfig(horizon=2.0, record_stride=7))
        assert traj.times.size == 2000 // 7 + 1
        np.testing.assert_allclose(traj.v, traj.x @ gains.F.T + traj.w @ gains.G.T,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(traj.r, traj.w @ ROTATION2.H.T)
        np.testing.assert_array_equal(traj.y, traj.x[:, [0, 2]])
        np.testing.assert_array_equal(traj.u, traj.v)


class TestSimulateNonlinear:
    def test_loop_runs_on_python_floats(self):
        # numpy scalars in the state give the same numbers, but every step
        # then runs numpy scalar arithmetic, far slower than float arithmetic
        def dynamics(x, u):
            assert type(x[0]) is float and type(u[0]) is float
            return (u[0],)

        plant = NonlinearPlant(state_dim=1, degrees=(1,),
                               dynamics=dynamics, output=lambda x: (x[0],),
                               normal_map=lambda x: x,
                               linearizing_feedback=lambda x, v: v)
        exo = Exosystem(S=[[0.0]], H=[[1.0]], w0=[1.0])
        traj, _ = simulate_nonlinear(plant, exo, None, np.array([0.5]),
                                     SimConfig(step=0.1, horizon=1.0, record_stride=1))
        assert traj.x.shape == (11, 1)

    def test_error_has_no_sign_change_on_benchmark(self):
        traj, report = simulate_nonlinear(benchmark_plant(), ROTATION,
                                          _benchmark_gains(), REFERENCE_X0)
        assert not report.any_overshoot
        assert traj.e[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert abs(traj.e[-1, 0]) < 1e-2

    def test_matches_linear_normal_form_closely(self):
        plant = benchmark_plant()
        gains = _benchmark_gains()
        cfg = SimConfig(horizon=10.0)
        traj_nl, _ = simulate_nonlinear(plant, ROTATION, gains, REFERENCE_X0, cfg)
        traj_lin, _ = simulate_nonlinear(chain_plant([4]), ROTATION, gains,
                                         plant.normal_map(REFERENCE_X0), cfg)
        assert np.max(np.abs(traj_nl.y - traj_lin.y)) <= 1e-5

    def test_step_halving_changes_nothing_measurable(self):
        plant = benchmark_plant()
        gains = _benchmark_gains()
        a, _ = simulate_nonlinear(plant, ROTATION, gains, REFERENCE_X0,
                                  SimConfig(step=1e-3, horizon=4.0, record_stride=10))
        b, _ = simulate_nonlinear(plant, ROTATION, gains, REFERENCE_X0,
                                  SimConfig(step=5e-4, horizon=4.0, record_stride=20))
        np.testing.assert_array_equal(a.times, b.times)
        assert np.max(np.abs(a.y - b.y)) <= 1e-7

    def test_unforced_rest_stays_at_rest(self):
        # no gains, quiescent exosystem, zero state: identically zero run
        exo = Exosystem(S=[[0.0, 1.0], [-1.0, 0.0]], H=[[1.0, 0.0]], w0=[0.0, 0.0])
        traj, report = simulate_nonlinear(benchmark_plant(), exo, None,
                                          np.zeros(4), SimConfig(horizon=2.0))
        assert np.max(np.abs(traj.x)) == 0.0
        assert np.max(np.abs(traj.u)) == 0.0
        assert np.max(np.abs(traj.e)) == 0.0
        assert not report.any_overshoot

    def test_open_loop_input_is_pure_cancellation(self):
        # gains=None forces v = 0, so u must equal the drift cancellation term
        plant = benchmark_plant()
        traj, _ = simulate_nonlinear(plant, ROTATION, None, REFERENCE_X0,
                                     SimConfig(horizon=1.0))
        for k in range(0, len(traj.times), 10):
            x = traj.x[k]
            u_expected = plant.linearizing_feedback(x, (0.0,))[0]
            assert traj.u[k, 0] == pytest.approx(u_expected, rel=1e-12)
        assert np.max(np.abs(traj.v)) == 0.0

    def test_unstable_gains_escape_is_caught(self):
        # positive pole: the planted loop has finite escape, caught as non-finite
        from nosreg.regulation import RegulatorGains

        bad = _benchmark_gains()
        F_bad = np.abs(bad.F)      # positive feedback: destabilizes the chain
        broken = RegulatorGains(subsystems=bad.subsystems, F=F_bad, G=bad.G)
        with pytest.raises(NonFiniteState) as exc:
            simulate_nonlinear(benchmark_plant(), ROTATION, broken, REFERENCE_X0)
        assert 0.0 < exc.value.t <= 40.0

    def test_faster_designs_converge_faster(self):
        # dominant poles -0.1032 vs -2.73 vs -3.67: |e(2)| must rank accordingly
        errors_at_2 = []
        for poles in ((-4.847, -4.017, -2.432, -0.1032),
                      (-10.91, -6.55, -3.61, -2.73),
                      (-15.79, -10.20, -4.63, -3.67)):
            gains = _benchmark_gains(PoleSet(poles))
            traj, _ = simulate_nonlinear(benchmark_plant(), ROTATION, gains,
                                         REFERENCE_X0, SimConfig(horizon=2.0))
            errors_at_2.append(abs(traj.e[-1, 0]))
        assert errors_at_2[2] < errors_at_2[1] < errors_at_2[0]

    def test_coarse_step_breaks_the_guarantee(self):
        # at step 0.5 the fastest design leaves the RK4 stability region, so
        # the nonovershoot checks are demonstrably live, not vacuous
        fast = synthesize(assemble_mimo([4]), ROTATION, XI0,
                          [PoleSet((-15.79, -10.20, -4.63, -3.67))])
        with pytest.raises(NonFiniteState):
            simulate_nonlinear(benchmark_plant(), ROTATION, fast, REFERENCE_X0,
                               SimConfig(step=0.5, horizon=40.0, record_stride=1))


class TestBenchmarkPlant:
    def test_origin_is_equilibrium(self):
        plant = benchmark_plant()
        assert plant.output((0.0, 0.0, 0.0, 0.0)) == (0.0,)
        assert plant.dynamics((0.0, 0.0, 0.0, 0.0), (3.0,)) == (0.0, 0.0, 0.0, 3.0)

    def test_normal_map_first_component_is_output(self):
        plant = benchmark_plant()
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=4)
            assert plant.normal_map(x)[0] == plant.output(x)[0]

    def test_chain_coordinates_differentiate_into_each_other(self):
        # finite differences of T(x(t)) along the closed-loop flow must
        # reproduce the shift structure: d/dt xi_k = xi_{k+1}
        plant = benchmark_plant()
        gains = _benchmark_gains()
        cfg = SimConfig(step=1e-4, horizon=0.5, record_stride=1)
        traj, _ = simulate_nonlinear(plant, ROTATION, gains, REFERENCE_X0, cfg)
        xi = np.array([plant.normal_map(x) for x in traj.x])
        dt = cfg.step
        for k in range(3):
            fd = (xi[2:, k] - xi[:-2, k]) / (2.0 * dt)     # central differences
            mid = xi[1:-1, k + 1]
            scale = np.maximum(1.0, np.abs(mid))
            assert np.max(np.abs(fd - mid) / scale) <= 1e-6

    def test_last_chain_coordinate_derivative_is_v(self):
        plant = benchmark_plant()
        gains = _benchmark_gains()
        cfg = SimConfig(step=1e-4, horizon=0.5, record_stride=1)
        traj, _ = simulate_nonlinear(plant, ROTATION, gains, REFERENCE_X0, cfg)
        xi = np.array([plant.normal_map(x) for x in traj.x])
        fd = (xi[2:, 3] - xi[:-2, 3]) / (2.0 * cfg.step)
        v_mid = traj.v[1:-1, 0]
        scale = np.maximum(1.0, np.abs(v_mid))
        assert np.max(np.abs(fd - v_mid) / scale) <= 1e-5


class TestDetectOvershoot:
    def test_monotone_decay(self):
        rep = detect_overshoot([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.2, 0.05])
        assert rep.sign_changed == (False,)
        assert rep.first_crossing_time == (None,)
        assert rep.final_abs_error == (0.05,)

    def test_sign_change_located(self):
        rep = detect_overshoot([0.0, 1.0, 2.0], [1.0, 0.5, -0.1])
        assert rep.sign_changed == (True,)
        assert rep.first_crossing_time == (2.0,)

    def test_all_zero_never_leaves_band(self):
        rep = detect_overshoot([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        assert rep.sign_changed == (False,)
        assert rep.first_crossing_time == (None,)

    def test_band_suppresses_noise_crossings(self):
        rep = detect_overshoot([0.0, 1.0, 2.0], [1.0, 1e-12, -1e-12],
                               zero_band=1e-9)
        assert rep.sign_changed == (False,)

    def test_negative_going_initial_sign(self):
        rep = detect_overshoot([0.0, 1.0, 2.0, 3.0], [0.0, -0.5, -0.1, 0.2])
        assert rep.sign_changed == (True,)
        assert rep.first_crossing_time == (3.0,)

    def test_multiple_outputs_independent(self):
        e = np.array([[1.0, -1.0], [0.5, -0.5], [-0.2, -0.1]])
        rep = detect_overshoot([0.0, 1.0, 2.0], e)
        assert rep.sign_changed == (True, False)
        # columns leave the band at different samples, or never
        t = [0.0, 1.0, 2.0, 3.0]
        e = np.array([[0.0, 2.0, 1e-12, 0.0],
                      [0.0, 1.0, -1e-12, -3.0],
                      [0.5, 0.5, 0.0, 1.0],
                      [-0.1, 0.25, 0.0, 2.0]])
        rep = detect_overshoot(t, e)
        assert rep.sign_changed == (True, False, False, True)
        assert rep.first_crossing_time == (3.0, None, None, 2.0)
        assert rep.final_abs_error == (0.1, 0.25, 0.0, 2.0)

    @given(e=arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 4)),
                    elements=st.sampled_from([-2.0, -1e-3, -1e-12, 0.0,
                                              1e-12, 1e-3, 0.5, 2.0])),
           zero_band=st.sampled_from([0.0, 1e-9, 1e-2]))
    def test_matches_per_column_reference(self, e, zero_band):
        # reference: the rule applied one column at a time; the arithmetic is
        # the same, so the verdicts must be equal
        t = np.arange(e.shape[0]) * 0.5
        changed, crossing = [], []
        for col in e.T:
            out = np.abs(col) > zero_band
            hit = None
            if out.any():
                s0 = 1.0 if col[int(np.argmax(out))] > 0 else -1.0
                flipped = out & (s0 * col < -zero_band)
                if flipped.any():
                    hit = float(t[int(np.argmax(flipped))])
            changed.append(hit is not None)
            crossing.append(hit)
        rep = detect_overshoot(t, e, zero_band)
        assert rep.sign_changed == tuple(changed)
        assert rep.first_crossing_time == tuple(crossing)
        assert rep.final_abs_error == tuple(float(abs(v)) for v in e[-1])


class TestCsvExport:
    def test_round_trip_full_precision(self, tmp_path):
        traj, _ = simulate_nonlinear(benchmark_plant(), ROTATION,
                                     _benchmark_gains(), REFERENCE_X0,
                                     SimConfig(horizon=1.0))
        path = tmp_path / "traj.csv"
        write_csv(traj, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x1,x2,x3,x4,w1,w2,y1,r1,e1,u1,v1"
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        np.testing.assert_array_equal(data[:, 0], traj.times)
        np.testing.assert_array_equal(data[:, 1:5], traj.x)
        np.testing.assert_array_equal(data[:, 9], traj.e[:, 0])
