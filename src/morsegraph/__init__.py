"""Graph predicates and random-graph experiments around Morse cycles.

Core layers: bitset graphs (``graph``), seed-stable G(n, p) sampling
(``gnp``), induced-cycle machinery (``cycles``), the Morse predicate
(``morse``), the square graph and CFS (``squares``), closed forms
(``analytic``), and the Monte Carlo harness (``experiment``).
"""

from .analytic import (
    ThresholdSet,
    clique_link_probability,
    conditional_link_probability,
    expected_morse_pentagons,
    expected_morse_squares,
    long_cycle_bound,
    thresholds,
)
from .cycles import (
    CycleWitness,
    count_induced_cycles,
    enumerate_induced_cycles,
    enumerate_induced_squares,
    morse_pruned_cycle_search,
)
from .errors import (
    CapacityExceeded,
    ConfigError,
    EdgeListFormatError,
    InvalidEdge,
    InvalidParameter,
    InvalidWitness,
    MorsegraphError,
    OutOfDomain,
    SearchBudgetExceeded,
    TooLarge,
    TrialErrorRateExceeded,
    VertexOutOfRange,
)
from .experiment import (
    PropertyKind,
    SweepConfig,
    SweepSummary,
    TrialRecord,
    evaluate_property,
    exhaustive_small_n_expectation,
    run_oracle_suite,
    run_sweep,
    run_trial,
    wilson_interval,
)
from .gnp import (
    DensityPoint,
    Xoshiro256StarStar,
    density_from_coefficient,
    density_from_probability,
    sample_gnp,
    trial_seed,
)
from .graph import (
    Graph,
    build_graph,
    read_edge_list,
    write_edge_list,
)
from .morse import count_morse_cycles, is_morse_cycle, is_morse_subgraph, morse_oracle
from .squares import (
    SquareGraph,
    build_square_graph,
    components,
    dump_square_graph,
    has_isolated_square,
    is_cfs,
    is_square_graph_connected,
    isolated_count,
)

__version__ = "0.1.0"
