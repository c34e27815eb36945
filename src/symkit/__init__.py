"""Lazy permutations of the naturals and the machinery of closed subgroups:
generalized metrics, partition stabilizers, back-and-forth limits, witness
constructions, and a budget-bounded four-class classifier with certificates.
"""

from .perm import (
    ConvergentSequence,
    FiniteSupportPermutation,
    LimitPermutation,
    Permutation,
    RulePermutation,
    WordPermutation,
    apply,
    evaluation_budget,
    identity,
    inverse,
    limit,
    nat_to_z,
    parity,
    parse_perm,
    format_perm,
    rule,
    verify_window,
    word,
    z_to_nat,
)
from .partitions import (
    Partition,
    conjugator,
    parse_partition,
    stabilizer_membership,
)
from .metrics import (
    INF,
    GeneralizedMetric,
    classify_metric,
    factor_fn_omega,
    fn_contains,
    metric_from_partition,
    net_flow,
    norm,
    parse_metric,
    refine_metric,
    unbounded_witness,
    unbounded_witness_in_stabilizer,
    unbounded_witness_rule,
)
from .localdecomp import breakpoints, decompose_local, is_local
from .witnesses import (
    commutator_solve,
    even_shift_witness,
    factor_through,
    p_equiv_witness,
    q_equiv_witness,
    sfinite_class,
    three_cycle_extract,
)
from .trees import (
    FullSymmetricOracle,
    PartitionStabilizerOracle,
    branch_limit,
    branch_sequence,
    build_e_tree,
    build_s,
    build_tree,
    verify_conjugation,
)
from .classifier import (
    Budgets,
    check_evidence,
    classify_group,
    compactness_criterion,
    discreteness,
    orbit,
    parse_descriptor,
)
from .cli import cli_main

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
