"""Exact dynamics and entanglement-transfer analysis for a four-site
spin-1/2 plaquette with directed-ring and diagonal couplings."""

from .dynamics import (
    OracleReport,
    amplitudes_closed_form,
    closed_form_state,
    evolve_numeric,
    hermitian_eigendecompose,
    oracle_equivalence_report,
    phase_aligned_distance,
)
from .entanglement import (
    closed_form_c12,
    closed_form_c13,
    closed_form_c34,
    concurrence_gap,
    gap_from_state,
    pair_concurrences,
    partial_trace_pair,
    state_concurrence,
    wootters_concurrence,
)
from .errors import (
    ConfigError,
    ContractViolationError,
    NormalizationError,
    NumericalHealthError,
    TriplaqError,
)
from .qst_analysis import (
    ForbiddenScanResult,
    QstEvent,
    SequenceEntry,
    SignalPeriod,
    WStateCandidate,
    find_qst_J,
    forbidden_J_scan,
    gap_at_transfer_times,
    locate_events_2d,
    periodicity_report,
    sequence_table,
    wstate_candidate_from_state,
    wstate_scan,
)
from .spin_core import (
    BondKind,
    BondSpec,
    PlaquetteGeometry,
    SINGLE_EXCITATION_INDICES,
    build_hamiltonian,
    build_hamiltonians,
    default_plaquette,
    embed_single_excitation,
    initial_bell_state,
    norm_error,
    parse_geometry_text,
    sector_leak,
    single_excitation_block,
    spin_operator_at,
    swapped_control_plaquette,
    total_sz,
)

__version__ = "0.1.0"
