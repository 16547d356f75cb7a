"""
Evolving a policy on the toy threshold environment
==================================================

The toy environment pays 1 per step for action 1 when the observed value is
above 0.5 and for action 0 otherwise, over 50 steps; the optimal policy
scores 50. Fixed-action and random policies score about 25. This script
shows the gap, then closes it with grammar-based evolution plus Q-learning
leaves.
"""

import numpy as np

from evoscm import (
    ToyThresholdEnv,
    default_policy_grammar,
    evaluate_fitness,
    parse_text,
    run_eldt,
    to_text,
)


# One environment serves every episode; each episode reseeds it through
# reset(seed), so a run's results depend on its seed alone.
env = ToyThresholdEnv()
spec = env.spec
rng = np.random.default_rng(0)

# ----------------------------------------------------------------------
# 1. Baselines: a fixed action is right about half the time. A policy
#    written by hand (split at 0.5, ideal actions) saturates the env.
always_one = parse_text(
    "if x > -1:\n"
    "    action 1  [visits=0]\n"
    "else:\n"
    "    action 0  [visits=0]\n",
    spec)
oracle = parse_text(
    "if x > 0.5:\n"
    "    action 1  [visits=0]\n"
    "else:\n"
    "    action 0  [visits=0]\n",
    spec)
for name, tree in (("always action 1", always_one), ("hand-written oracle", oracle)):
    score = evaluate_fitness(tree, env, episodes=30, rng=np.random.default_rng(1))
    print(f"{name:20s} mean return {score:5.2f}")

# ----------------------------------------------------------------------
# 2. Evolution: genotypes decode through the grammar into trees, leaves
#    learn online during each evaluation episode, selection works on the
#    mean episode return. Budget is counted in episodes, not generations.
grammar = default_policy_grammar(spec)
print("\ngrammar:")
print(grammar.to_bnf())

record = run_eldt(env, 1500, 0, grammar)
print(f"episodes consumed: {record.episodes}")
print(f"best fitness:      {record.final_objective:.2f} (optimum 50)")
print(f"one-line policy:   {record.solution}")

# ----------------------------------------------------------------------
# 3. The best-so-far trace is per-episode and monotone, so learning curves
#    from different algorithms line up on the same x axis.
marks = [0, 99, 499, 999, len(record.trace) - 1]
print("\nbest-so-far at episodes", [m + 1 for m in marks])
print([round(record.trace[m], 2) for m in marks])

# ----------------------------------------------------------------------
# 4. The evolved tree, pruned of never-visited branches.
print("\npruned best tree:")
print(to_text(record.artifacts["pruned_tree"], spec))
