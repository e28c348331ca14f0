"""Output-regulation gain synthesis for decoupled integrator chains.

Per subsystem j the steady-state pair (Pi_j, Gamma_j) solves

    Pi_j S = A_j Pi_j + B_j Gamma_j,      C_j Pi_j = H_j.

On an order-g chain the steady state is the reference and its first g - 1
derivatives, so the pair is in closed form:

    Pi_j = [H_j; H_j S; ...; H_j S^(g-1)],      Gamma_j = H_j S^g.

It exists for every S, because a chain of integrators has no transmission
zeros for an exosystem mode to resonate with.  The feedback F_j places the
chosen poles, the feedforward is G_j = Gamma_j - F_j Pi_j, and the transient
that must not change sign starts from the nominal initial condition
xi0_j - Pi_j w0.  The sign convention C Pi = H makes e = r - y vanish on the
manifold x = Pi w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# no library path calls lu_solve; bench/tracing.py SITES patch the name
from numpy.linalg import solve as lu_solve

from .certificates import Certificate, certify
from .chains import (ChainSystem, Exosystem, assemble_mimo, block_slices,
                     make_chain, split_state)
from .errors import CertificateFailed, DimensionMismatch, SingularMatrix
from .linalg import as_matrix, as_vector
from .modal import ModalDecomposition, PoleSet, modal_coeffs, moore_feedback


@dataclass(frozen=True, eq=False)
class SubsystemGains:
    """Design artifacts for one SISO chain: gains, Sylvester pair, poles, certificate."""

    F: np.ndarray
    G: np.ndarray
    Pi: np.ndarray
    Gamma: np.ndarray
    poles: PoleSet
    cert: Certificate
    decomp: ModalDecomposition


@dataclass(frozen=True, eq=False)
class RegulatorGains:
    """Assembled control law v = F xi + G w plus the per-subsystem designs."""

    subsystems: tuple[SubsystemGains, ...]
    F: np.ndarray
    G: np.ndarray


def solve_sylvester(chain: ChainSystem, exo: Exosystem, H_row) -> tuple[np.ndarray, np.ndarray]:
    """Solve the regulator equations for one chain against the exosystem.

    Row k of Pi is H_row S^k and Gamma is H_row S^g, built with g = chain.order
    row-vector products.

    Returns
    -------
    (Pi, Gamma) : Pi of shape (gamma, m), Gamma of shape (1, m).
    """
    H_row = as_matrix(H_row, rows=1, cols=exo.dim)
    rows = [H_row[0]]
    for _ in range(chain.order):
        rows.append(rows[-1] @ exo.S)
    stacked = np.vstack(rows)
    return stacked[:-1], stacked[-1:]


def nominal_ic(xi0_j, Pi_j, w0) -> np.ndarray:
    """Offset of the initial condition from the steady-state manifold: xi0 - Pi w0."""
    Pi_j = as_matrix(Pi_j)
    xi0_j = as_vector(xi0_j, length=Pi_j.shape[0])
    w0 = as_vector(w0, length=Pi_j.shape[1])
    return xi0_j - Pi_j @ w0


def design_subsystem(chain: ChainSystem, exo: Exosystem, H_row, xi0_j,
                     poles: PoleSet) -> SubsystemGains:
    """Run the full per-subsystem design: Sylvester, feedback, certificate, feedforward."""
    if poles.n != chain.order:
        raise DimensionMismatch(
            f"need {chain.order} poles for an order-{chain.order} chain, got {poles.n}")
    Pi, Gamma = solve_sylvester(chain, exo, H_row)
    xt0 = nominal_ic(xi0_j, Pi, exo.w0)
    F = moore_feedback(poles)
    decomp = modal_coeffs(poles, xt0)
    cert = certify(decomp)
    G = Gamma - F @ Pi
    return SubsystemGains(F=F, G=G, Pi=Pi, Gamma=Gamma, poles=poles,
                          cert=cert, decomp=decomp)


def synthesize(degrees, exo: Exosystem, xi0, pole_sets) -> RegulatorGains:
    """Design nonovershooting regulation gains for every subsystem and assemble them.

    Parameters
    ----------
    degrees : sequence of int
        Relative degree of each output channel; subsystem j is the
        integrator chain of order ``degrees[j]``.
    exo : Exosystem
        Reference generator; one H row per subsystem output.
    xi0 : array_like, length sum(degrees)
        Normal-form initial condition, decomposed per subsystem internally.
    pole_sets : sequence of PoleSet
        One pole set per subsystem, sized to its order.

    Raises
    ------
    CertificateFailed
        If any subsystem's certificate rejects its pole set; the exception
        names the subsystem and carries its p-value.
    """
    degrees = assemble_mimo(degrees)
    p = len(degrees)
    if exo.num_outputs != p:
        raise DimensionMismatch(
            f"exosystem generates {exo.num_outputs} references for {p} outputs")
    if len(pole_sets) != p:
        raise DimensionMismatch(f"need {p} pole sets, got {len(pole_sets)}")
    xi_blocks = split_state(xi0, degrees)

    subs = []
    for j, g in enumerate(degrees):
        # make_chain only feeds solve_sylvester, whose signature bench/workloads.py calls
        try:
            sub = design_subsystem(make_chain(g), exo, exo.H[j:j + 1], xi_blocks[j],
                                   pole_sets[j])
        except SingularMatrix as exc:
            raise SingularMatrix(f"subsystem {j}: {exc}") from exc
        if not sub.cert.passed:
            raise CertificateFailed(j, sub.cert.p_value)
        subs.append(sub)

    F = np.zeros((p, sum(degrees)))
    for j, (block, sub) in enumerate(zip(block_slices(degrees), subs)):
        F[j, block] = sub.F[0]
    G = np.vstack([sub.G for sub in subs])
    return RegulatorGains(subsystems=tuple(subs), F=F, G=G)
