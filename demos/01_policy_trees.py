"""
Grammars, genotypes, and Q-learning decision trees
==================================================

A policy is a binary decision tree: internal nodes test one observation
feature against a threshold (or category), leaves hold a Q-value per action.
A grammar turns a flat integer genotype into such a tree; the leaf Q-values
are then trained online. This script walks the whole pipeline on a
two-feature toy spec.
"""

import numpy as np

from evoscm import (
    Condition,
    DecisionTree,
    Leaf,
    Split,
    decode,
    default_policy_grammar,
    epsilon_greedy,
    prune_unreached,
    q_update,
    to_dot,
    to_oneline,
    to_text,
)
from evoscm.envs import EnvSpec, FeatureSpec

# ----------------------------------------------------------------------
# 1. A spec describes what trees may look at and do: feature names, value
#    ranges, and the action set.
spec = EnvSpec(
    features=(FeatureSpec("queue_len", low=0.0, high=4.0),
              FeatureSpec("due_slack", low=0.0, high=10.0)),
    action_count=2,
    episode_len=20,
    stochastic=False,
    action_labels=("WAIT", "DISPATCH"),
)

grammar = default_policy_grammar(spec)
print("Grammar generated from the environment spec:")
print(grammar.to_bnf())

# ----------------------------------------------------------------------
# 2. A genotype is a vector of integer codons. Each codon picks one
#    alternative (codon modulo the alternative count) at the leftmost
#    open nonterminal, and the tree is built as the terminals come out.
#    Codon exhaustion fails the decode; leftovers are ignored. This
#    hand-written genotype reads, codon by codon: if, the queue_len
#    condition, threshold 2, a leaf, another if on due_slack with
#    threshold 5, and two closing leaves; its last two codons are unused.
rng = np.random.default_rng(3)
genotype = np.array([1, 0, 2, 0, 1, 1, 5, 0, 0, 99, 40000])
tree = decode(genotype, grammar, spec.feature_index)
tree.init_leaves(spec.action_count, rng)
print(f"decoded {len(genotype)} codons into a tree of {len(tree.leaves())} leaves "
      "(initial leaf Q-values pick the actions):")
print(to_text(tree, spec))

# ----------------------------------------------------------------------
# 3. Leaves learn online. epsilon_greedy picks the action, q_update moves
#    the tried action's Q-value toward reward + gamma * best next Q.
#    Here DISPATCH pays 1 and WAIT pays 0; exploration finds it quickly.
leaf = Leaf(np.array([0.0, 0.0]))
for step in range(8):
    action = epsilon_greedy(leaf, 0.5, rng)
    reward = 1.0 if action == 1 else 0.0
    q_update(leaf, action, reward=reward, max_next_q=max(leaf.q),
             alpha=0.5, gamma=0.9)
    print(f"step {step}: action {spec.action_labels[action]}, q -> {leaf.q}")
print("greedy action after training:", spec.action_labels[leaf.action])

# ----------------------------------------------------------------------
# 4. Pruning removes branches no training episode ever visited, without
#    changing what the tree does on the states it did visit.
wide = DecisionTree(Split(Condition(0, ">", 2.0), Leaf(np.array([0.0, 1.0])),
                          Split(Condition(1, ">", 5.0),
                                Leaf(np.array([0.3, 0.3])),
                                Leaf(np.array([1.0, 0.0])))))
for obs in ([3.0, 0.0], [1.0, 2.0], [0.0, 4.0]):
    wide.traverse(obs)  # the due_slack > 5 branch is never reached
pruned = prune_unreached(wide)
print("\nbefore pruning:", to_oneline(wide, spec))
print("after pruning: ", to_oneline(pruned, spec))

# ----------------------------------------------------------------------
# 5. Trees export to Graphviz for reports. Every text form takes the spec,
#    which names the features, categories and actions.
print("\nDOT export of the pruned tree:")
print(to_dot(pruned, spec))
