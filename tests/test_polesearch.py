import numpy as np
import pytest

from nosreg.certificates import certify
from nosreg.errors import DimensionMismatch, SearchExhausted
from nosreg.modal import modal_coeffs
from nosreg.polesearch import SearchSpec, search

BANDS = ((-6.0, -4.5), (-4.5, -3.0), (-3.0, -1.5), (-1.5, 0.0))
XT0 = np.array([-1.0, 2.0, -4.0, 4.0])


def test_returns_passing_set_within_bands():
    spec = SearchSpec(intervals=BANDS, seed=123)
    poles, cert, used = search(spec, XT0)
    assert cert.passed and cert.p_value > 0.0
    assert 1 <= used <= spec.max_trials
    for lam, (lo, hi) in zip(poles.lambdas, BANDS):
        assert lo <= lam <= hi
    assert np.diff(poles.lambdas).min() >= spec.sep_min
    # returned certificate is exactly the one recomputable from the result
    again = certify(modal_coeffs(poles, XT0))
    assert again.p_value == cert.p_value


def test_deterministic_given_seed():
    spec = SearchSpec(intervals=BANDS, seed=999)
    first = search(spec, XT0)
    second = search(spec, XT0)
    assert first[0].lambdas == second[0].lambdas
    assert first[2] == second[2]


def test_different_seeds_explore_differently():
    a = search(SearchSpec(intervals=BANDS, seed=1), XT0)
    b = search(SearchSpec(intervals=BANDS, seed=2), XT0)
    assert a[0].lambdas != b[0].lambdas


def test_zero_initial_condition_passes_immediately():
    spec = SearchSpec(intervals=BANDS, seed=5)
    poles, cert, used = search(spec, np.zeros(4))
    assert cert.passed
    assert used <= 3      # only ordering rejections can precede the pass


def test_budget_is_not_drawn_up_front():
    # candidates are drawn per trial: a budget far beyond memory costs nothing
    # when trial 1 passes, and the stream gives the same first candidate
    zeros = np.zeros(4)
    poles, cert, used = search(SearchSpec(intervals=BANDS, max_trials=2**60), zeros)
    assert cert.passed and used == 1
    assert poles.lambdas == search(SearchSpec(intervals=BANDS, max_trials=1),
                                   zeros)[0].lambdas


def test_negative_seed_rejected():
    with pytest.raises(DimensionMismatch):
        SearchSpec(intervals=BANDS, seed=-5)


def test_fractional_budget_and_seed_rejected():
    # an integral float is an integer; a fractional one is not truncated
    with pytest.raises(DimensionMismatch, match="max_trials"):
        SearchSpec(((-2.0, -1.0),), max_trials=2.5)
    with pytest.raises(DimensionMismatch, match="seed"):
        SearchSpec(((-2.0, -1.0),), seed=3.9)
    spec = SearchSpec(((-2.0, -1.0),), max_trials=50.0, seed=3.0)
    assert (spec.max_trials, spec.seed) == (50, 3)
    assert type(spec.max_trials) is int and type(spec.seed) is int


def test_degenerate_intervals_exhaust():
    # identical point intervals can never satisfy strict ordering
    spec = SearchSpec(intervals=((-2.0, -2.0),) * 3, max_trials=50, seed=0)
    with pytest.raises(SearchExhausted) as exc:
        search(spec, np.zeros(3))
    assert exc.value.max_trials == 50
    assert exc.value.best_p_value is None


def test_exhaustion_reports_best_p_value():
    # a fourth-quadrant state needs lam1 < x02/x01 = -4; the box forbids it
    spec = SearchSpec(intervals=((-3.0, -2.0), (-1.0, -0.5)), max_trials=200, seed=7)
    with pytest.raises(SearchExhausted) as exc:
        search(spec, np.array([1.0, -4.0]))
    assert exc.value.best_p_value is not None
    assert exc.value.best_p_value <= 0.0
    assert exc.value.best_poles is not None


def test_interval_count_must_match_state():
    with pytest.raises(DimensionMismatch):
        search(SearchSpec(intervals=BANDS, seed=0), np.zeros(3))


def test_positive_interval_rejected():
    with pytest.raises(DimensionMismatch):
        SearchSpec(intervals=((-2.0, -1.0), (-1.0, 0.5)))


def test_downstream_simulation_has_no_sign_change():
    from nosreg.chains import Exosystem, assemble_mimo, chain_plant
    from nosreg.regulation import synthesize
    from nosreg.sim import SimConfig, simulate_nonlinear

    exo = Exosystem(S=[[0.0, 1.0], [-1.0, 0.0]], H=[[1.0, 0.0]], w0=[1.0, 0.0])
    xi0 = np.array([0.0, 2.0, -5.0, 4.0])
    poles, _, _ = search(SearchSpec(intervals=BANDS, seed=31), XT0)
    gains = synthesize(assemble_mimo([4]), exo, xi0, [poles])
    _, report = simulate_nonlinear(chain_plant([4]), exo, gains, xi0,
                                   SimConfig(horizon=20.0))
    assert not report.any_overshoot
