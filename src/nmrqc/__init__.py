"""Two-qubit NMR-style quantum computer emulator.

The package integrates the time-dependent spin Hamiltonian of a
two-qubit register, designs the sinusoidal-field pulses that realize
single-spin rotations on such hardware, assembles gate-sequence
programs (controlled-NOT constructions, repeated-gate tests, a
four-item database search), and reproduces the benchmark result tables
showing that logically identical pulse sequences can compute different
answers on physical hardware.
"""

from .errors import ConfigurationError, NumericalIntegrityError
from .hamiltonian import DEFAULT_MACHINE, EOParams, MachineConfig, hamiltonian_at
from .integrator import eo_propagator, oracle_propagator
from .gates import (GATE_NAMES, compose, coupling_pi_duration,
                    derive_primed_angles, ideal_eo_params, ideal_gate, phase_gate)
from .pulses import (DEFAULT_GAMMA, ROTATING, STATIC_AXIS, RationalGamma,
                     commensurability_check_n, commensurability_margin,
                     design_pulse, hypothetical_durations, spectator_excess_angle,
                     spectator_residual)
from .programs import (IDEAL, ROTATING_SF, STATIC_SF, STYLES, Program, build_cnot,
                       build_grover, build_program, build_qa, convergence_report,
                       grover_sequence, input_amplitudes, program_states,
                       program_unitaries, program_unitary, readout, run_inputs,
                       run_program, with_duration_offset)
from .harness import (ExperimentSpec, ResultTable, canned_names, canned_spec,
                      emit_table, round2, run_experiment, verify_suite)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
