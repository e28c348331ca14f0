"""Nonovershooting output-regulation design for chain-of-integrator normal forms.

Workflow: describe the plant by the relative degree of each output channel
(the linearizing feedback of a :class:`~nosreg.chains.NonlinearPlant` turns
each channel into an integrator chain of that order), pick or search
closed-loop poles whose sign-invariance certificate passes, synthesize the
state-feedback + feedforward pair, and verify the nonovershooting guarantee
by simulation.
"""

from .certificates import (Certificate, certify, certify_n2,
                           certify_n3_closedform)
from .chains import (ChainSystem, Exosystem, NonlinearPlant, assemble_mimo,
                     chain_plant, make_chain, split_state)
from .errors import (CertificateFailed, ConfigError, DimensionMismatch,
                     InvalidOrder, InvalidPoleSet, NonFiniteState,
                     NosregError, SearchExhausted, SingularMatrix)
from .linalg import lu_solve
from .modal import (ModalDecomposition, PoleSet, modal_coeffs, moore_feedback,
                    natural_response)
from .plants import BUILTIN_PLANTS, REFERENCE_X0, benchmark_plant
from .polesearch import SearchSpec, search
from .regulation import (RegulatorGains, SubsystemGains, nominal_ic,
                         solve_sylvester, synthesize)
from .sim import (OvershootReport, SimConfig, Trajectory, detect_overshoot,
                  rk4_step, simulate_nonlinear, write_csv)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_PLANTS", "Certificate", "CertificateFailed", "ChainSystem",
    "ConfigError", "DimensionMismatch", "Exosystem", "InvalidOrder",
    "InvalidPoleSet", "ModalDecomposition", "NonFiniteState",
    "NonlinearPlant", "NosregError", "OvershootReport", "PoleSet",
    "REFERENCE_X0", "RegulatorGains", "SearchExhausted", "SearchSpec",
    "SimConfig", "SingularMatrix", "SubsystemGains", "Trajectory",
    "assemble_mimo", "benchmark_plant", "certify", "certify_n2",
    "certify_n3_closedform", "chain_plant", "detect_overshoot", "lu_solve",
    "make_chain", "modal_coeffs", "moore_feedback", "natural_response",
    "nominal_ic", "rk4_step", "search",
    "simulate_nonlinear", "solve_sylvester", "split_state", "synthesize",
    "write_csv",
]
