"""BNF grammars and integer-genotype decoding into decision-tree policies.

A genotype is a fixed-length array of integer codons in [0, g_max]. Decoding
performs a leftmost derivation from the grammar's start symbol, parsing the
policy as its terminals come out: every nonterminal expansion consumes the
next codon c and picks production ``c % k`` among that nonterminal's k
alternatives. There is no wrapping; if the codons run out before the
derivation completes, IncompleteDerivation is raised and the caller assigns
the penalty fitness.

Grammar files are plain text, one rule per line::

    <dt> ::= leaf | if <cond> then <dt> else <dt>

Symbols are whitespace-separated; ``<name>`` tokens are nonterminals. The
terminal stream must form a policy program in the language

    tree := "leaf" | "if" NAME OP VALUE "then" tree "else" tree

with OP one of ``>`` (numeric, strict) and ``==`` (categorical).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envs import EnvSpec
from .tree import CATEGORY_EQ, NUMERIC_GT, Condition, DecisionTree, Leaf, Split, fmt_num


class IncompleteDerivation(Exception):
    """Genotype ran out of codons before the derivation finished."""


def _is_nonterminal(symbol: str) -> bool:
    return symbol.startswith("<") and symbol.endswith(">") and len(symbol) > 2


@dataclass(frozen=True)
class Grammar:
    """BNF grammar: productions per nonterminal, in declaration order."""

    start: str
    productions: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.start not in self.productions:
            raise ValueError(f"start symbol {self.start!r} has no productions")
        for lhs, prods in self.productions.items():
            if not _is_nonterminal(lhs):
                raise ValueError(f"left-hand side {lhs!r} is not a <nonterminal>")
            if not prods:
                raise ValueError(f"nonterminal {lhs!r} has no productions")
            for prod in prods:
                if not prod:
                    raise ValueError(f"empty production for {lhs!r}")
                for sym in prod:
                    if _is_nonterminal(sym) and sym not in self.productions:
                        raise ValueError(f"undefined nonterminal {sym!r} in rule {lhs!r}")

    def to_bnf(self) -> str:
        lines = []
        for lhs, prods in self.productions.items():
            alts = " | ".join(" ".join(p) for p in prods)
            lines.append(f"{lhs} ::= {alts}")
        return "\n".join(lines) + "\n"


def parse_bnf(text: str) -> Grammar:
    """Parse grammar text (one rule per line, '#' comments, '|' alternatives).

    The first rule's left-hand side is the start symbol.
    """
    productions = {}
    start = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "::=" not in line:
            raise ValueError(f"line {lineno}: missing '::=' in {raw!r}")
        lhs, _, rhs = line.partition("::=")
        lhs = lhs.strip()
        if not _is_nonterminal(lhs):
            raise ValueError(f"line {lineno}: bad nonterminal {lhs!r}")
        if lhs in productions:
            raise ValueError(f"line {lineno}: duplicate rule for {lhs!r}")
        alts = []
        for alt in rhs.split("|"):
            symbols = tuple(alt.split())
            if not symbols:
                raise ValueError(f"line {lineno}: empty alternative for {lhs!r}")
            alts.append(symbols)
        productions[lhs] = alts
        if start is None:
            start = lhs
    if start is None:
        raise ValueError("grammar text contains no rules")
    return Grammar(start=start, productions=productions)


def load_bnf(path) -> Grammar:
    """``parse_bnf`` of a UTF-8 file, with or without a BOM; its errors name it."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_bnf(fh.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def decode(genotype, grammar: Grammar, feature_index: dict = None) -> DecisionTree:
    """Genotype -> DecisionTree in one pass. Pure: same inputs, same structure.

    The leftmost derivation runs as a symbol stack, expanded only as far as
    the policy parser needs its next terminal: every nonterminal expansion
    consumes one codon and picks production ``codon % k``. Raises
    IncompleteDerivation when codons run out (no wrapping), and ValueError at
    the first terminal outside the policy language. Without
    ``feature_index``, feature names must look like ``x0``, ``x1``... Leaves
    come out with q=None; call tree.init_leaves() before acting.
    """
    productions = grammar.productions  # every <nonterminal> has a rule here
    codons = np.asarray(genotype).tolist()
    stack = [grammar.start]
    used = 0

    def next_token():
        nonlocal used
        while stack:
            sym = stack.pop()
            prods = productions.get(sym)
            if prods is None:
                return sym
            if used >= len(codons):
                raise IncompleteDerivation(
                    f"codons exhausted after {used} with {sym!r} pending")
            stack.extend(reversed(prods[int(codons[used]) % len(prods)]))
            used += 1
        raise ValueError("policy token stream ended early")

    def expect(want):
        tok = next_token()
        if tok != want:
            raise ValueError(f"expected {want!r}, got {tok!r}")

    def feature_of(name):
        if feature_index is not None:
            if name not in feature_index:
                raise ValueError(f"unknown feature {name!r}")
            return feature_index[name]
        if name.startswith("x") and name[1:].isdigit():
            return int(name[1:])
        raise ValueError(f"unknown feature {name!r}")

    def parse_tree():
        tok = next_token()
        if tok == "leaf":
            return Leaf()
        if tok != "if":
            raise ValueError(f"expected 'leaf' or 'if', got {tok!r}")
        feature = feature_of(next_token())
        op = next_token()
        if op not in (NUMERIC_GT, CATEGORY_EQ):
            raise ValueError(f"bad comparison operator {op!r}")
        value = float(next_token())
        expect("then")
        yes = parse_tree()
        expect("else")
        no = parse_tree()
        return Split(Condition(feature, op, value), yes, no)

    root = parse_tree()
    if stack:
        raise ValueError(f"trailing symbols after policy: {stack[::-1]}")
    return DecisionTree(root)


def default_policy_grammar(spec: EnvSpec) -> Grammar:
    """Condition grammar generated from an environment's observation schema.

    Numeric features get strict ``>`` splits over FeatureSpec thresholds,
    categorical features get ``==`` tests over their category indices. The
    single-leaf production comes first so genotype [0, ...] is one leaf.
    """
    productions = {
        "<dt>": [("leaf",), ("if", "<cond>", "then", "<dt>", "else", "<dt>")],
    }
    cond_alts = []
    value_prods = {}
    for feat in spec.features:
        safe = feat.name
        if not safe or any(ch.isspace() for ch in safe) or safe.startswith("<"):
            raise ValueError(f"feature name {safe!r} is not grammar-safe")
        if feat.kind == "numeric":
            val_nt = f"<thr_{safe}>"
            cond_alts.append((safe, NUMERIC_GT, val_nt))
            value_prods[val_nt] = [(fmt_num(t),) for t in feat.grammar_thresholds]
        else:
            val_nt = f"<cat_{safe}>"
            cond_alts.append((safe, CATEGORY_EQ, val_nt))
            value_prods[val_nt] = [(str(i),) for i in range(len(feat.categories))]
    productions["<cond>"] = cond_alts
    productions.update(value_prods)
    return Grammar(start="<dt>", productions=productions)
