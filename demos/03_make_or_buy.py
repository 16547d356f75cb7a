"""
Make-or-buy sourcing on a simulated supply chain
================================================

Each order needs three components (A, B, C) that in-house plants produce
and a truck ferries to the assembly plant D. Producing in-house is worth
100 if the order meets its deadline but only 50 if late; outsourcing is a
safe 70. With every order made in-house the plants overload and tail
orders run late, so the interesting policies outsource selectively.
"""

import numpy as np

from evoscm import (
    MakeOrBuyEnv,
    MakeOrBuyParams,
    default_policy_grammar,
    gen_makeorbuy,
    greedy_rollout,
    parse_text,
    run_eldt,
    simulate,
    to_text,
)

orders = gen_makeorbuy(100, seed=5)
params = MakeOrBuyParams()

# ----------------------------------------------------------------------
# 1. The two extremes. All-buy is exactly 100 * 70 = 7000 on any seed;
#    all-make wins on the orders it lands on time and loses the rest.
for name, decisions in (("all make", [0] * 100), ("all buy", [1] * 100)):
    outcome = simulate(orders, decisions, params, seed=0)
    print(f"{name:10s} revenue {outcome.revenue:7.1f}  "
          f"on-time {outcome.n_on_time:3d}  late {outcome.n_late:3d}  "
          f"outsourced {outcome.n_outsourced:3d}")

# ----------------------------------------------------------------------
# 2. Random decision vectors sit between the extremes.
rng = np.random.default_rng(0)
revenues = [simulate(orders, rng.integers(0, 2, size=100), params,
                     int(rng.integers(2**32))).revenue for _ in range(200)]
print(f"random mix  revenue {np.mean(revenues):7.1f} "
      f"(min {min(revenues):.0f}, max {max(revenues):.0f}) over 200 draws")

# ----------------------------------------------------------------------
# 3. The environment view: one order per step, observations are the
#    order's component quantities and deadline, actions are MAKE or BUY.
#    Evolve an interpretable policy over those features. The one
#    environment serves every episode of the run; reset(seed) draws each
#    episode's simulation seed.
env = MakeOrBuyEnv(orders, params)
print("\nobservation features:", ", ".join(env.spec.feature_names))
print("actions:", ", ".join(env.spec.action_labels))

grammar = default_policy_grammar(env.spec)
record = run_eldt(env, 600, 1, grammar)
print(f"\nevolved policy after {record.episodes} episodes, "
      f"mean revenue {record.final_objective:.1f}:")
text = to_text(record.artifacts["pruned_tree"], env.spec)
print(text)

# ----------------------------------------------------------------------
# 4. The text form is the deliverable, and the spec reads it back into a
#    policy that acts the same: both trees earn the same greedy revenue on
#    the same simulation seeds.
tree = parse_text(text, env.spec)
for name, policy in (("evolved", record.artifacts["pruned_tree"]), ("read back", tree)):
    returns = greedy_rollout(policy, env, 5, seed=7)[2]
    print(f"{name:9s} tree: greedy revenue {np.mean(returns) * env.objective_scale:.1f} "
          "over 5 simulations")

# ----------------------------------------------------------------------
# 5. Replay the policy as a plain decision vector to see what it does to
#    the order book.
decisions = [tree.traverse([o.qty_a, o.qty_b, o.qty_c, o.deadline_day]).action
             for o in orders]
outcome = simulate(orders, decisions, params, seed=0)
print(f"policy replayed as a decision vector: revenue {outcome.revenue:.1f}, "
      f"{outcome.n_outsourced} of 100 orders outsourced")
