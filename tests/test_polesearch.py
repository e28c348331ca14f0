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
    assert np.diff(poles.lambdas).min() > 0
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


def _bands(scale, ratio, n):
    """n intervals centred on -scale * ratio**k, fastest first; +-25 % at ratio 1.8, else +-20 %."""
    half = 0.25 if ratio == 1.8 else 0.2
    centers = [-scale * ratio ** (n - 1 - k) for k in range(n)]
    return tuple((c * (1 + half), c * (1 - half)) for c in centers)


# (scale, band ratio, x0, seed, budget, poles, trials_used): outcomes recorded
# when modal_coeffs still solved V alpha = x0 by pivoted LU.  The tight 1.8x
# bands take tens to hundreds of trials, so every guard or verdict decision
# along the way must stay the same for the result to repeat exactly.
PINNED = [
    (0.79, 1.8, (0.53, 0.66, 1.25), 234, 1000,
     (-3.176504161187139, -1.0701489249433818, -0.6204458476433212), 80),
    (0.95, 1.8, (-0.85, -1.79, 1.06), 762, 1000,
     (-3.3933296856230744, -1.3740643903713048, -0.8184898749649681), 20),
    (0.9, 1.8, (-0.67, -1.64, 1.96, 1.53), 293, 1000,
     (-6.0649842922756125, -2.812268852726129, -1.2195224918266736, -0.6855799332625976), 91),
    (0.95, 1.8, (0.89, 0.77, -0.37, 0.53), 758, 1000,
     (-6.196905980306296, -3.687141007040735, -1.2847119242808005, -0.7551177236514142), 112),
    (0.63, 1.8, (0.63, 1.27, -1.4, 0.59), 862, 1000,
     (-4.41195422232534, -2.3651282109283747, -0.9869823221851266, -0.48174264204733125), 40),
    (0.83, 1.8, (-0.65, -0.97, 0.94, 0.63, -1.17), 160, 1000,
     (-7.1658009748073095, -5.716411264647934, -3.259464826310832, -1.1251231382879727,
      -0.6735417093762351), 338),
    (0.51, 1.8, (0.51, -0.39, 0.12, 0.62, 1.62), 238, 1000,
     (-6.394104818262801, -3.519486948403755, -2.0476995638167845, -0.9092442105081927,
      -0.6288260790536156), 40),
    (0.86, 1.8, (-0.88, -0.38, 0.35, -0.35, 0.09), 421, 1000,
     (-10.963128176742723, -5.754232077346136, -3.397171458295407, -1.1890134828265744,
      -0.8408451174933507), 126),
    (0.9, 1.8, (-0.95, -0.85, 1.1, -0.05, -0.13), 964, 1000,
     (-9.272168028427906, -6.2273305288454806, -3.1957826189227734, -1.4531856106938512,
      -0.6923560950873542), 49),
    (0.87, 1.8, (-0.9, 0.08, 0.12, -1.42, 0.67, 1.89), 279, 1000,
     (-19.093571353665393, -10.54152080245461, -5.739371947057966, -3.1602092540091613,
      -1.2304053112694575, -0.8119078389714998), 90),
    (0.73, 1.8, (-0.87, -0.37, -0.35, 1.96, 1.63, 0.53), 620, 1000,
     (-14.97983385437715, -8.439950908093289, -4.878771739056682, -2.6655587077886604,
      -0.9935533154283294, -0.5584018947212643), 126),
    (1.02, 4.0, (-0.85, -1.09), 23, 400,
     (-3.7635012123671814, -0.962285045881682), 1),
    (0.77, 2.5, (0.69, -0.86), 866, 400,
     (-2.0707494682107805, -0.8202193984180781), 1),
    (0.69, 2.5, (0.62, 0.77, -1.31), 99, 400,
     (-4.30209708640402, -1.6800867740687029, -0.6867111951249937), 1),
    (1.55, 4.0, (-0.81, 0.39, -0.96), 923, 400,
     (-19.958075336033414, -5.230990589536606, -1.567153388008804), 1),
    (0.94, 4.0, (0.67, -1.96, 0.28, -1.13), 292, 400,
     (-59.10332455602126, -13.018130687581284, -4.009711929289453, -0.8719699479250163), 4),
    (1.72, 4.0, (0.54, 1.58, 1.93, -1.08), 428, 400,
     (-103.99299925780237, -26.428044261920057, -6.553223248714704, -1.8470516171422704), 1),
    (0.89, 2.5, (-0.57, -1.46, 0.81, -1.6, -0.88), 218, 400,
     (-38.107579206610325, -15.529146011975463, -6.404865333524482, -2.021252792822648,
      -0.91685583540306), 2),
    (1.61, 2.5, (-0.67, -1.92, 1.59, 0.41, 1.51), 489, 400,
     (-61.76598162002848, -25.617186560284253, -11.81888325232802, -4.781107130324833,
      -1.7934496141757565), 2),
    (0.8, 2.5, (-0.69, -0.88, 1.87, 0.26, -1.65, 0.48), 209, 400,
     (-84.84234380229115, -30.202083235480238, -11.56730698609444, -5.978223989304867,
      -2.288975437215711, -0.7228953543547829), 1),
    (1.83, 2.5, (-0.8, -1.13, 1.63, -1.28, -1.67, -0.44), 717, 400,
     (-174.58780569030378, -72.9610776128359, -32.41500108063824, -10.422687177576751,
      -4.433969121594982, -1.627857851365408), 1),
    # poles out to -460: without the refinement step the residual of V alpha
    # breaks the 1e-9 guard here, and this search exhausts its 50 trials
    (1.41, 4.0, (-0.7, 0.62, 0.03, -0.43, -0.89), 383, 50,
     (-427.53967338703404, -79.14562838497277, -19.621500780562243, -5.025297185643559,
      -1.497827668296015), 1),
]


@pytest.mark.parametrize("scale, ratio, x0, seed, budget, poles, used", PINNED,
                         ids=[f"n{len(c[2])}-x{c[1]}-seed{c[3]}" for c in PINNED])
def test_pinned_search_outcomes(scale, ratio, x0, seed, budget, poles, used):
    spec = SearchSpec(_bands(scale, ratio, len(x0)), max_trials=budget, seed=seed)
    found, cert, trials = search(spec, np.array(x0))
    assert found.lambdas == poles
    assert trials == used
    assert cert.passed


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
