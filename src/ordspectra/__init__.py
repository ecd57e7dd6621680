"""Exact element-order counts for symmetric groups and exact values /
certified bounds for Aut-orbit counts, element-order counts, and the
epsilon statistics of finite simple groups of Lie type."""

from .arith import (
    ceil_log,
    factorize,
    lcm_list,
    log_log,
    nr_divisors,
    prime_power_split,
    primes_up_to,
)
from .bounds import (
    EpsilonResult,
    epsilon_omega_lower,
    epsilon_q_fixed_small_q,
    epsilon_q_lower,
    nr_aut_orbits_lower,
    nr_element_orders_upper,
)
from .class_numbers import (
    ClassNumberProvider,
    class_number_exact,
    class_number_lower_bound,
)
from .data import DataStore, default_store, load_data
from .lie_catalog import (
    LieSpec,
    coxeter_number,
    group_order,
    log_log_group_order,
    make_spec,
    out_order,
    outdiag_order,
)
from .survey import (
    UNDEFINED,
    Q0Table,
    ThresholdConfig,
    epsilon_omega_general2,
    epsilon_omega_general3,
    epsilon_q_classical1,
    epsilon_q_classical2,
    exceptions_omega,
    exceptions_q_classical,
    exceptions_q_exceptional,
    make_thresholds,
)
from .sym_partitions import (
    PartitionNumberMatrix,
    distinct_parts_partition_count,
    g2,
    next_partition_number_matrix,
    nr_coprime_prime_power_partitions,
    nr_element_orders_sym,
    omicron_sym_constants,
    partition_number_matrix,
)
from .torus_spectra import (
    OrderSet,
    exceptional_semisimple,
    exceptional_spectrum,
    nr_semisimple_orders,
    nr_semisimple_orders_bound,
    semisimple_orders_gl,
    semisimple_orders_go,
    semisimple_orders_gu,
    semisimple_orders_simple,
    suzuki_spectrum,
)

__version__ = "0.1.0"
