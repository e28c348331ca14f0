"""Reference arithmetic the tests check the library against."""


def rk4_step(deriv, t: float, z: tuple, h: float) -> tuple:
    """One classical 4th-order Runge-Kutta update of ``z' = deriv(t, z)``.

    ``z`` and the values ``deriv`` returns are tuples of floats; the result
    is the next state as a tuple.  The simulator's compiled loop does this
    arithmetic in this order, so a per-step loop over it is its oracle.
    """
    h2 = 0.5 * h
    k1 = deriv(t, z)
    k2 = deriv(t + h2, tuple(zi + h2 * ki for zi, ki in zip(z, k1)))
    k3 = deriv(t + h2, tuple(zi + h2 * ki for zi, ki in zip(z, k2)))
    k4 = deriv(t + h, tuple(zi + h * ki for zi, ki in zip(z, k3)))
    s = h / 6.0
    return tuple(zi + s * (a + 2.0 * (b + c) + d)
                 for zi, a, b, c, d in zip(z, k1, k2, k3, k4))
