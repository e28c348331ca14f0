"""Chain-of-integrator system models, the exosystem, and the nonlinear plant interface."""

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
class MimoChain:
    """Decoupled MIMO chain-of-integrator system in block-diagonal form."""

    degrees: tuple[int, ...]
    Ac: np.ndarray
    Bc: np.ndarray
    Cc: np.ndarray

    @property
    def order(self) -> int:
        return sum(self.degrees)

    @property
    def num_outputs(self) -> int:
        return len(self.degrees)

    @property
    def blocks(self) -> tuple[ChainSystem, ...]:
        return tuple(make_chain(g) for g in self.degrees)


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
    - ``output(x)``: plant outputs, length ``input_dim``
    - ``normal_map(x)``: chain coordinates, length ``sum(degrees)``; the first
      component of each block must equal the corresponding output
    - ``linearizing_feedback(x, v)``: physical input realizing the chain input
      ``v``, length ``input_dim``

    Internal (zero-dynamics) coordinates are never required: the simulator
    integrates the full plant state directly.  Stability of the zero dynamics
    is asserted by the caller, not checked here.
    """

    state_dim: int
    input_dim: int
    degrees: tuple[int, ...]
    dynamics: Callable = field(repr=False)
    output: Callable = field(repr=False)
    normal_map: Callable = field(repr=False)
    linearizing_feedback: Callable = field(repr=False)

    def __post_init__(self):
        if len(self.degrees) != self.input_dim:
            raise DimensionMismatch("one relative degree per input/output channel")
        if any(g < 1 for g in self.degrees):
            raise InvalidOrder("relative degrees must be positive")
        if sum(self.degrees) > self.state_dim:
            raise DimensionMismatch("total relative degree exceeds the state dimension")


def make_chain(order: int) -> ChainSystem:
    """Build the canonical chain of integrators of the given order."""
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise InvalidOrder(f"chain order must be a positive integer, got {order!r}")
    n = int(order)
    A = np.zeros((n, n))
    A[np.arange(n - 1), np.arange(1, n)] = 1.0
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = np.zeros((1, n))
    C[0, 0] = 1.0
    return ChainSystem(order=n, A=A, B=B, C=C)


def assemble_mimo(degrees: Sequence[int]) -> MimoChain:
    """Assemble the block-diagonal MIMO chain for the given relative degrees."""
    if len(degrees) == 0:
        raise InvalidOrder("at least one subsystem is required")
    blocks = [make_chain(g) for g in degrees]
    gamma = sum(b.order for b in blocks)
    p = len(blocks)
    Ac = np.zeros((gamma, gamma))
    Bc = np.zeros((gamma, p))
    Cc = np.zeros((p, gamma))
    at = 0
    for j, b in enumerate(blocks):
        g = b.order
        Ac[at:at + g, at:at + g] = b.A
        Bc[at:at + g, j] = b.B[:, 0]
        Cc[j, at:at + g] = b.C[0]
        at += g
    return MimoChain(degrees=tuple(int(g) for g in degrees), Ac=Ac, Bc=Bc, Cc=Cc)


def chain_plant(degrees: Sequence[int]) -> NonlinearPlant:
    """The decoupled integrator chain as a plant: identity chain map, ``u = v``.

    Each block shifts (``x_i' = x_{i+1}``) with ``u_j`` driving its last
    state, and outputs its first state, so the linear normal form runs
    through the same simulator as any feedback-linearizable plant.
    """
    degrees = assemble_mimo(degrees).degrees
    ends = tuple(accumulate(degrees))
    lasts = tuple(e - 1 for e in ends)
    heads = tuple(e - g for e, g in zip(ends, degrees))

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

    return NonlinearPlant(state_dim=ends[-1], input_dim=len(degrees), degrees=degrees,
                          dynamics=dynamics, output=output, normal_map=identity,
                          linearizing_feedback=feedback)


def split_state(xi, degrees: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Split a stacked normal-form state into per-subsystem blocks."""
    v = as_vector(xi)
    gamma = sum(degrees)
    if v.size != gamma:
        raise DimensionMismatch(
            f"state has length {v.size}, expected sum(degrees) = {gamma}")
    out = []
    at = 0
    for g in degrees:
        out.append(v[at:at + g].copy())
        at += g
    return tuple(out)
