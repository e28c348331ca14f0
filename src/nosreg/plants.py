"""Built-in nonlinear benchmark plant (relative degree 4, single input).

The plant is

    x1' = x2 + x1^2,   x2' = x3,   x3' = x4,   x4' = u,      y = x1,

which has relative degree 4 and empty zero dynamics.  Differentiating the
output four times along the drift gives the chain coordinates

    T(x) = ( x1,
             x2 + x1^2,
             x3 + 2 x1 (x2 + x1^2),
             x4 + 2 x1 x3 + (2 x2 + 6 x1^2)(x2 + x1^2) )

and the fourth derivative

    d4(x) = 24 x1^5 + 40 x1^3 x2 + 16 x1 x2^2 + 10 x1^2 x3 + 6 x2 x3 + 2 x1 x4,

so u = -d4(x) + v renders the input-output map a pure 4-integrator chain.
Both expressions are hand chain-rule derivations, and the test suite checks
them against finite differences of T along simulated trajectories, so they do
not rest on trust.

T is globally invertible (triangular in x), hence the chain coordinates are
valid everywhere, not just locally.
"""

from __future__ import annotations

from .chains import NonlinearPlant

# Initial condition used by the bundled configurations.  T maps it to
# (0, 2, -5, 4), so against the bundled cosine reference the tracking error
# starts at 1 and the design problem has a genuinely nonzero transient.
REFERENCE_X0 = (0.0, 2.0, -5.0, -4.0)


def _dynamics(x, u):
    x1, x2, x3, x4 = x
    return (x2 + x1 * x1, x3, x4, u[0])


def _output(x):
    return (x[0],)


def _normal_map(x):
    x1, x2, x3, x4 = x
    s = x2 + x1 * x1
    return (x1,
            s,
            x3 + 2.0 * x1 * s,
            x4 + 2.0 * x1 * x3 + (2.0 * x2 + 6.0 * x1 * x1) * s)


def _linearizing_feedback(x, v):
    # u = v - d4(x)
    x1, x2, x3, x4 = x
    x1sq = x1 * x1
    return (v[0] - (24.0 * x1sq * x1sq * x1 + 40.0 * x1sq * x1 * x2 + 16.0 * x1 * x2 * x2
                    + 10.0 * x1sq * x3 + 6.0 * x2 * x3 + 2.0 * x1 * x4),)


def benchmark_plant() -> NonlinearPlant:
    """The built-in relative-degree-4 plant in closed form."""
    return NonlinearPlant(
        state_dim=4,
        degrees=(4,),
        dynamics=_dynamics,
        output=_output,
        normal_map=_normal_map,
        linearizing_feedback=_linearizing_feedback,
    )


BUILTIN_PLANTS = {"benchmark": benchmark_plant}
