"""PAPPA: a charged-string (planar para algebra) toolkit for qudits.

The package compiles charged-string diagrams to qudit operators through
the Jordan-Wigner dictionary, simulates qudit circuits including the
string Fourier transform, builds the maximally entangled resource
states, verifies the Clifford-group identities, and runs multi-party
communication protocols with edit/cdit accounting.
"""

import os as _os

# One BLAS thread unless the user set one, before numpy loads: more threads
# only add overhead here, and move residual digits of the verify reports.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .clifford import (
    PhaselessUnitary,
    generate_group,
    is_clifford,
    verify_braid_gaussian_dressing,
    verify_cz_from_sft,
    verify_sft_factorizations,
)
from .diagrams import (
    Box,
    BraidNeg,
    BraidPos,
    Cap,
    Charge,
    Cup,
    DiagScalar,
    Diagram,
    Sym,
    adjoint,
    compose,
    normalize,
    sft_rotate,
    tensor,
    twisted_tensor_scalar,
)
from .entangle import (
    DensityMatrix,
    entanglement_entropy,
    entropy,
    ghz_basis,
    ghz_state,
    max_basis,
    max_state,
    partial_trace,
)
from .evaluator import (
    QOperator,
    braid_op,
    evaluate,
    local_conjugation_op,
    parafermion_relations_check,
    resolution_of_identity_check,
    sft_via_braids,
)
from .gates import (
    Local,
    QState,
    apply_local,
    controlled_gate,
    cz_gate,
    fourier_gate,
    gaussian_gate,
    measure,
    pauli_gate,
    sft_matrix,
    sym_gate,
)
from .phases import PhaseRing, gauss_identity_residual, make_phase_ring, phase_pow
from .protocols import (
    ProtocolScript,
    Transcript,
    build_max_script,
    bvk_merge_script,
    phase_space_measurement,
    run,
    run_branches,
    teleportation_script,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
