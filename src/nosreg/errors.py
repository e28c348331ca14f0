"""Exception types shared across the design and simulation modules."""


class NosregError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(NosregError):
    """A linear solve failed: unacceptable residual, or a vanishing LU pivot (``pivot_index``)."""

    def __init__(self, message: str, pivot_index: int | None = None):
        self.pivot_index = pivot_index
        super().__init__(message)


class InvalidOrder(NosregError):
    """A chain order or relative degree was not a positive integer."""


class DimensionMismatch(NosregError):
    """Operands have incompatible dimensions."""


class InvalidPoleSet(NosregError):
    """Candidate closed-loop poles are not finite, negative and strictly increasing."""


class CertificateFailed(NosregError):
    """The nonovershoot certificate rejected the candidate pole set."""

    def __init__(self, subsystem: int, p_value: float):
        self.subsystem = subsystem
        self.p_value = p_value
        super().__init__(
            f"nonovershoot certificate failed for subsystem {subsystem} "
            f"(p = {p_value:.6g} <= 0); select alternative poles"
        )


class SearchExhausted(NosregError):
    """Pole search used its full trial budget without a passing candidate."""

    def __init__(self, max_trials: int, best_p_value: float | None,
                 best_poles: tuple[float, ...] | None = None):
        self.max_trials = max_trials
        self.best_p_value = best_p_value
        self.best_poles = best_poles
        best = "none evaluated" if best_p_value is None else f"{best_p_value:.6g}"
        super().__init__(
            f"pole search exhausted {max_trials} trials without a passing "
            f"certificate (best p seen: {best}); widen the intervals"
        )


class NonFiniteState(NosregError):
    """Integration produced NaN/Inf state components."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"state became non-finite at t = {t:.6g}")


class ConfigError(NosregError):
    """A problem configuration file is malformed or inconsistent."""
