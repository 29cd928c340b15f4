"""Coherent-state fingerprinting protocols: codes, signal constellations,
error/leakage analysis, a truncated Fock-space verification oracle, and
Monte Carlo simulation."""

from .analysis import (IDEAL_NOISE, PAPER_EXP_NOISE, InfeasibleError,
                       NoiseModel, ThresholdResult, ed_estimate,
                       ed_repetition_plan, gray_beats_qary, interp_nd_prob,
                       interp_worst_case_error, no_click_prob,
                       optimal_measurement_error_lb, optimal_threshold,
                       qary_ring_error, ring_error_exponent,
                       ring_worst_case_error, solve_amplitude,
                       solve_repetition)
from .codes import (GrayMap, binary_entropy, gv_binary_length, gv_binary_rate,
                    gv_qary_length, gv_qary_rate, lattice_gray, ring_gray,
                    worst_case_pair)
from .constellations import (Constellation, ProtocolInstance, encode,
                             encode_ed, interpolation_qubits,
                             interpolation_signal, interpolation_state_vector,
                             lattice_constellation, lattice_mu_range,
                             ring_constellation)
from .leakage import (DeltaOptimum, LeakageBound, asymptotic_bound,
                      classical_reference, fannes_audenaert_bound,
                      lambda_interpolation, lambda_ring, qil_interpolation,
                      qil_ring, optimize_delta_for_qil, shannon_entropy)
from .montecarlo import (EdResult, EqualityResult, TrialPlan,
                         derive_block_rng, simulate_ed, simulate_equality,
                         wilson_interval)
from .oracle import (TruncatedFockState, beamsplitter_click_probs,
                     coherent_fock, cswap_antisym_prob, fock_overlap,
                     interp_measurement_oracle, optimal_projector_error,
                     qubit_from_coherent, usc_outcome_probs, usc_povm)

__version__ = "0.1.0"
