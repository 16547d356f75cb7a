"""Interpretable policy search for supply-chain problems.

Evolves decision trees with Q-learning leaves through a grammatical encoding,
plus classic baselines (random search, GA, ACO, greedy, tree GP), two
discrete-event problem domains (make-or-buy sourcing and a hybrid flow shop),
dataset generators, and a benchmarking harness with rank-sum comparisons.
"""

from .baselines import (
    SearchSpace,
    aco_run,
    format_candidate,
    ga_run,
    gp_evolve,
    greedy_edd,
    order_crossover,
    random_search,
)
from .bench import (
    ExperimentConfig,
    aggregate,
    compare_dirs,
    emit_trend_csv,
    run_experiment,
    wilcoxon_rank_sum,
    write_artifacts,
)
from .datagen import (
    DataError,
    default_machine_types,
    gen_hfs,
    gen_makeorbuy,
    load_hfs,
    load_machine_types,
    load_makeorbuy,
    save_hfs,
    save_makeorbuy,
    save_schedule,
)
from .envs import (
    Env,
    EnvSpec,
    FeatureSpec,
    RowEnv,
    ToyThresholdEnv,
    evaluate_fitness,
    greedy_rollout,
    run_episode,
)
from .evolve import PENALTY_FITNESS, Individual, run_eldt
from .flowshop import (
    HfsEnv,
    HfsInstance,
    Job,
    Schedule,
    check_feasible,
    decode_list_schedule,
    edd_order,
    lower_bounds,
    makespan,
    priorities_to_permutation,
)
from .grammar import (
    Grammar,
    IncompleteDerivation,
    decode,
    default_policy_grammar,
    load_bnf,
    parse_bnf,
)
from .kvconfig import format_kv, load_kv, parse_kv
from .makeorbuy import (
    BUY,
    MAKE,
    MakeOrBuyEnv,
    MakeOrBuyParams,
    Order,
    SimOutcome,
    revenue,
    simulate,
)
from .records import BestTrace, BudgetExhausted, RunRecord
from .tree import (
    Condition,
    DecisionTree,
    Leaf,
    LearningConfig,
    Split,
    epsilon_greedy,
    parse_text,
    prune_unreached,
    q_update,
    structurally_equal,
    to_dot,
    to_oneline,
    to_text,
)

__version__ = "0.1.0"
