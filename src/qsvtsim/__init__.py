"""Matrix-level simulator for step-polynomial eigenvalue estimation.

The package covers the full pipeline: certified step-function polynomials
(chebpoly), dense block-encodings and eigenvalue transforms (blockenc),
seeded sampling with query/depth bookkeeping (sampler), the tunable
estimation algorithm and its baselines (estimator), problem reductions
from phase and amplitude estimation (reductions), and a CLI (cli).
"""

from .chebpoly import (BoundReport, CapacityError, ChebPoly, StepSpec,
                       build_step_approx, degree_constant, min_eta_for_degree,
                       to_text, verify_bounds, write_curve_csv)
from .blockenc import (BlockEncoding, HermitianOp, MatrixFormatError,
                       TransformedOp, apply_poly, read_matrix,
                       right_probability, shift_and_scale)
from .sampler import (Outcome, ResourceLedger, RngStream, bernoulli_trials,
                      record_shots)
from .estimator import (AlphaSchedule, EEInstance, alpha_schedule, decide_ee,
                        diag_instance, estimate_ee, hadamard_test_baseline,
                        ipe_baseline, threshold_for)
from .reductions import (AE_TO_EE_DEPTH_MULT, AE_TO_EE_TIME_MULT,
                         PE_TO_AE_DEPTH_MULT, PE_TO_AE_TIME_MULT, AEInstance,
                         GroverOp, PEInstance, ae_block_encoding,
                         ae_instance_from_amplitude, ae_to_ee,
                         composed_phase_tolerance, grover_operator,
                         pe_instance_from_phase, pe_to_ae, scale_ledger,
                         solve_ae_via_ee, solve_pe_via_ee)

__all__ = [
    "BoundReport", "CapacityError", "ChebPoly", "StepSpec",
    "build_step_approx", "degree_constant", "min_eta_for_degree", "to_text",
    "verify_bounds", "write_curve_csv",
    "BlockEncoding", "HermitianOp", "MatrixFormatError", "TransformedOp",
    "apply_poly", "read_matrix", "right_probability", "shift_and_scale",
    "Outcome", "ResourceLedger", "RngStream", "bernoulli_trials",
    "record_shots",
    "AlphaSchedule", "EEInstance", "alpha_schedule",
    "decide_ee", "diag_instance", "estimate_ee", "hadamard_test_baseline",
    "ipe_baseline", "threshold_for",
    "AE_TO_EE_DEPTH_MULT", "AE_TO_EE_TIME_MULT", "PE_TO_AE_DEPTH_MULT",
    "PE_TO_AE_TIME_MULT", "AEInstance", "GroverOp", "PEInstance",
    "ae_block_encoding", "ae_instance_from_amplitude", "ae_to_ee",
    "composed_phase_tolerance", "grover_operator", "pe_instance_from_phase",
    "pe_to_ae", "scale_ledger", "solve_ae_via_ee", "solve_pe_via_ee",
]

__version__ = "0.1.0"
