"""Integrator chains and their stacked layout, the exosystem, the nonlinear plant interface."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidOrder
from .linalg import as_matrix, as_vector


@dataclass(frozen=True, eq=False)
class ChainSystem:
    """SISO chain of integrators: shift matrix A, input on the last state, output on the first."""

    order: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


@dataclass(frozen=True, eq=False)
class Exosystem:
    """Autonomous linear signal generator: w' = S w, reference r = H w."""

    S: np.ndarray
    H: np.ndarray
    w0: np.ndarray

    def __post_init__(self):
        S = as_matrix(self.S)
        if S.shape[0] != S.shape[1]:
            raise DimensionMismatch(f"S must be square, got {S.shape}")
        m = S.shape[0]
        H = as_matrix(self.H, cols=m)
        w0 = as_vector(self.w0, length=m)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "w0", w0)

    @property
    def dim(self) -> int:
        return self.S.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True, eq=False)
class NonlinearPlant:
    """Closed-form maps describing a feedback-linearizable plant.

    The caller supplies all maps as plain callables; nothing symbolic happens
    here.  Each callable must be pure (no internal mutable state), must accept
    a sequence of floats, and should return a sequence of floats:

    - ``dynamics(x, u)``: state derivative, length ``state_dim``
    - ``output(x)``: plant outputs, one per relative degree
    - ``normal_map(x)``: chain coordinates, length ``sum(degrees)``; the first
      component of each block must equal the corresponding output
    - ``linearizing_feedback(x, v)``: physical input realizing the chain input
      ``v``, one input per relative degree

    Internal (zero-dynamics) coordinates are never required: the simulator
    integrates the full plant state directly.  Stability of the zero dynamics
    is asserted by the caller, not checked here.
    """

    state_dim: int
    degrees: tuple[int, ...]
    dynamics: Callable = field(repr=False)
    output: Callable = field(repr=False)
    normal_map: Callable = field(repr=False)
    linearizing_feedback: Callable = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "degrees", assemble_mimo(self.degrees))
        if sum(self.degrees) > self.state_dim:
            raise DimensionMismatch("total relative degree exceeds the state dimension")

    @property
    def input_dim(self) -> int:
        return len(self.degrees)


def _positive_order(order) -> int:
    """The relative-degree rule: a chain order is a positive integer."""
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise InvalidOrder(f"chain order must be a positive integer, got {order!r}")
    return int(order)


def make_chain(order: int) -> ChainSystem:
    """Build the canonical chain of integrators of the given order."""
    n = _positive_order(order)
    A = np.zeros((n, n))
    A[np.arange(n - 1), np.arange(1, n)] = 1.0
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = np.zeros((1, n))
    C[0, 0] = 1.0
    return ChainSystem(order=n, A=A, B=B, C=C)


def assemble_mimo(degrees: Sequence[int]) -> tuple[int, ...]:
    """Validate the relative degrees of a decoupled MIMO chain; return them as a tuple.

    The decoupled chain is fixed by its degrees alone: subsystem j is
    ``make_chain(degrees[j])``, and its block of the stacked state is
    ``block_slices(degrees)[j]``.
    """
    degrees = tuple(_positive_order(g) for g in degrees)
    if not degrees:
        raise InvalidOrder("at least one subsystem is required")
    return degrees


def block_slices(degrees: Sequence[int]) -> tuple[slice, ...]:
    """Where each subsystem sits in the stacked state: block j is ``xi[slices[j]]``."""
    ends = tuple(accumulate(degrees))
    return tuple(slice(e - g, e) for e, g in zip(ends, degrees))


def chain_plant(degrees: Sequence[int]) -> NonlinearPlant:
    """The decoupled integrator chain as a plant: identity chain map, ``u = v``.

    Each block shifts (``x_i' = x_{i+1}``) with ``u_j`` driving its last
    state, and outputs its first state, so the linear normal form runs
    through the same simulator as any feedback-linearizable plant.
    """
    degrees = assemble_mimo(degrees)
    blocks = block_slices(degrees)
    lasts = tuple(b.stop - 1 for b in blocks)
    heads = tuple(b.start for b in blocks)

    def dynamics(x, u):
        dx = list(x[1:])
        dx.append(0.0)
        for last, uj in zip(lasts, u):
            dx[last] = uj
        return dx

    def output(x):
        return tuple(x[h] for h in heads)

    def identity(x):
        return x

    def feedback(x, v):
        return v

    return NonlinearPlant(state_dim=blocks[-1].stop, degrees=degrees, dynamics=dynamics,
                          output=output, normal_map=identity, linearizing_feedback=feedback)


def split_state(xi, degrees: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Split a stacked normal-form state into per-subsystem blocks."""
    v = as_vector(xi)
    gamma = sum(degrees)
    if v.size != gamma:
        raise DimensionMismatch(
            f"state has length {v.size}, expected sum(degrees) = {gamma}")
    return tuple(v[b].copy() for b in block_slices(degrees))
