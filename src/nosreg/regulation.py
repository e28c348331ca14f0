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
    """Design artifacts for one SISO chain: gains, regulator pair, poles, certificate."""

    F: np.ndarray
    G: np.ndarray
    Pi: np.ndarray
    Gamma: np.ndarray
    poles: PoleSet
    cert: Certificate

    @property
    def decomp(self) -> ModalDecomposition:
        """The modal decomposition of the offset that the certificate scored."""
        return self.cert.decomp


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


def design(degrees, exo: Exosystem, xi0, choose) -> RegulatorGains:
    """Design each subsystem once and assemble the stacked law v = F xi + G w.

    Subsystem j, the order-``degrees[j]`` chain tracking ``exo.H[j] w``, has
    the offset ``xt0 = xi0_j - Pi_j w0`` from its regulator pair, and
    ``choose(j, xt0)`` returns a pole set with the certificate that scored it
    on ``xt0``, as ``search(spec, xt0)[:2]`` does.  ``F_j`` places those poles
    and ``G_j = Gamma_j - F_j Pi_j``.  A certificate that did not pass raises
    CertificateFailed, and a SingularMatrix from ``choose`` is prefixed with
    the subsystem.
    """
    degrees = assemble_mimo(degrees)
    p = len(degrees)
    if exo.num_outputs != p:
        raise DimensionMismatch(
            f"exosystem generates {exo.num_outputs} references for {p} outputs")
    xi_blocks = split_state(xi0, degrees)

    subs = []
    F = np.zeros((p, sum(degrees)))
    for j, (g, block) in enumerate(zip(degrees, block_slices(degrees))):
        # make_chain only feeds solve_sylvester, whose signature bench/workloads.py calls
        Pi, Gamma = solve_sylvester(make_chain(g), exo, exo.H[j:j + 1])
        xt0 = nominal_ic(xi_blocks[j], Pi, exo.w0)
        try:
            poles, cert = choose(j, xt0)
        except SingularMatrix as exc:
            raise SingularMatrix(f"subsystem {j}: {exc}") from exc
        if not cert.passed:
            raise CertificateFailed(j, cert.p_value)
        F_j = moore_feedback(poles)
        F[j, block] = F_j[0]
        subs.append(SubsystemGains(F=F_j, G=Gamma - F_j @ Pi, Pi=Pi, Gamma=Gamma,
                                   poles=poles, cert=cert))
    return RegulatorGains(subsystems=tuple(subs), F=F, G=np.vstack([sub.G for sub in subs]))


def synthesize(degrees, exo: Exosystem, xi0, pole_sets) -> RegulatorGains:
    """``design`` with given poles: subsystem j certifies ``pole_sets[j]``, sized to its order."""
    degrees = assemble_mimo(degrees)
    if len(pole_sets) != len(degrees):
        raise DimensionMismatch(f"need {len(degrees)} pole sets, got {len(pole_sets)}")

    def certified(j, xt0):
        poles = pole_sets[j]
        if poles.n != xt0.size:
            raise DimensionMismatch(
                f"need {xt0.size} poles for an order-{xt0.size} chain, got {poles.n}")
        return poles, certify(modal_coeffs(poles, xt0))

    return design(degrees, exo, xi0, certified)
