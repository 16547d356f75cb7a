import numpy as np
import pytest

from evoscm import (
    DecisionTree,
    FeatureSpec,
    EnvSpec,
    Grammar,
    IncompleteDerivation,
    Leaf,
    decode,
    default_policy_grammar,
    load_bnf,
    parse_bnf,
    structurally_equal,
)

DT_BNF = """
# policy over one numeric feature
<dt> ::= leaf | if <cond> then <dt> else <dt>
<cond> ::= x > <thr>
<thr> ::= 1 | 2 | 3
"""


@pytest.fixture
def grammar():
    return parse_bnf(DT_BNF)


def geno(*codons):
    return np.array(codons, dtype=np.int64)


class TestParseBnf:
    def test_first_rule_is_start(self, grammar):
        assert grammar.start == "<dt>"

    def test_alternatives_and_comments(self, grammar):
        assert grammar.productions["<dt>"] == [
            ("leaf",), ("if", "<cond>", "then", "<dt>", "else", "<dt>")]
        assert grammar.productions["<thr>"] == [("1",), ("2",), ("3",)]

    def test_duplicate_lhs_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_bnf("<a> ::= x\n<a> ::= y\n")

    def test_missing_separator_rejected(self):
        with pytest.raises(ValueError):
            parse_bnf("<a> x | y\n")

    def test_undefined_nonterminal_rejected(self):
        with pytest.raises(ValueError):
            parse_bnf("<a> ::= <nope>\n")

    def test_bnf_round_trip(self, grammar):
        again = parse_bnf(grammar.to_bnf())
        assert again == grammar

    def test_load_bnf_file(self, tmp_path, grammar):
        path = tmp_path / "g.bnf"
        path.write_text(DT_BNF, encoding="utf-8")
        assert load_bnf(path) == grammar


def decodes(genotype, grammar):
    try:
        decode(genotype, grammar, {"x": 0})
    except IncompleteDerivation:
        return False
    return True


def codons_used(genotype, grammar):
    """Length of the shortest prefix that decodes (the codons consumed)."""
    return next(k for k in range(1, len(genotype) + 1) if decodes(genotype[:k], grammar))


def split(node):
    c = node.condition
    return c.feature, c.op, c.value


class TestDerive:
    def test_first_production_on_zero_codon(self, grammar):
        g = geno(0, 99, 99)
        assert isinstance(decode(g, grammar).root, Leaf)
        assert codons_used(g, grammar) == 1

    def test_modulo_picks_production(self, grammar):
        # 3 mod 2 = 1 -> if-node at the root
        tree = decode(geno(3, 0, 0, 0, 0), grammar, {"x": 0})
        assert split(tree.root) == (0, ">", 1.0)

    def test_every_nonterminal_costs_one_codon(self, grammar):
        # <cond> has a single production but still consumes a codon: 5 is
        # spent on it, so <thr> reads 2 -> "3"
        g = geno(1, 5, 2, 0, 0)
        tree = decode(g, grammar, {"x": 0})
        assert split(tree.root) == (0, ">", 3.0)
        assert isinstance(tree.root.yes, Leaf) and isinstance(tree.root.no, Leaf)
        assert codons_used(g, grammar) == 5
        with pytest.raises(IncompleteDerivation):
            decode(g[:4], grammar, {"x": 0})

    def test_exhaustion_raises_without_wrapping(self, grammar):
        with pytest.raises(IncompleteDerivation):
            decode(geno(1), grammar)

    def test_derivation_is_leftmost(self, grammar):
        # yes-branch expands before the else-branch sees its codon
        tree = decode(geno(1, 0, 0, 1, 0, 1, 0, 2, 0, 0), grammar, {"x": 0})
        assert split(tree.root) == (0, ">", 1.0)
        assert split(tree.root.yes) == (0, ">", 2.0)
        assert isinstance(tree.root.yes.yes, Leaf) and isinstance(tree.root.yes.no, Leaf)
        assert isinstance(tree.root.no, Leaf)

    def test_pure_function(self, grammar):
        g = geno(1, 5, 2, 0, 0)
        assert structurally_equal(decode(g, grammar, {"x": 0}), decode(g, grammar, {"x": 0}))


class TestDecode:
    def test_zero_genotype_is_single_leaf(self, grammar):
        tree = decode(geno(0, 1, 2, 3), grammar)
        assert isinstance(tree.root, Leaf)

    def test_if_root(self, grammar):
        tree = decode(geno(3, 0, 0, 0, 0), grammar, {"x": 0})
        assert not isinstance(tree.root, Leaf)
        assert tree.root.condition.feature == 0
        assert tree.root.condition.value == 1.0

    def test_incomplete_raises(self, grammar):
        with pytest.raises(IncompleteDerivation):
            decode(geno(1), grammar)

    def test_decode_deterministic_structure(self, grammar):
        g = geno(1, 0, 1, 1, 0, 2, 0, 0, 0, 0)
        assert structurally_equal(decode(g, grammar, {"x": 0}),
                                  decode(g, grammar, {"x": 0}))

    def test_consumes_left_to_right_at_most_length(self, grammar):
        rng = np.random.default_rng(0)
        for _ in range(200):
            g = rng.integers(0, 40001, size=30).astype(np.int64)
            if not decodes(g, grammar):
                continue
            used = codons_used(g, grammar)
            # trailing codons are inert
            g2 = g.copy()
            g2[used:] = 0
            assert structurally_equal(decode(g, grammar, {"x": 0}),
                                      decode(g2, grammar, {"x": 0}))

    def test_feature_index_mapping(self):
        g = parse_bnf("<dt> ::= leaf | if <c> then <dt> else <dt>\n"
                      "<c> ::= qty > 5\n")
        tree = decode(geno(1, 0, 0, 0), g, {"qty": 3})
        assert tree.root.condition.feature == 3

    def test_unknown_feature_rejected(self):
        g = parse_bnf("<dt> ::= leaf | if <c> then <dt> else <dt>\n"
                      "<c> ::= mystery > 5\n")
        with pytest.raises(ValueError):
            decode(geno(1, 0, 0, 0), g, {"qty": 0})

    def test_non_policy_terminal_rejected(self):
        g = parse_bnf("<dt> ::= leaf | if <c> then <dt> else <dt> | halt\n"
                      "<c> ::= x0 > 5\n")
        with pytest.raises(ValueError, match="'halt'"):
            decode(geno(2), g)

    def test_bad_terminal_raises_before_codons_run_out(self):
        # "halt" surfaces at the first codon, before the second <dt> runs dry
        g = parse_bnf("<dt> ::= leaf | <bad> <dt>\n<bad> ::= halt\n")
        with pytest.raises(ValueError, match="'halt'"):
            decode(geno(1, 0), g)


class TestDefaultGrammar:
    def spec(self):
        return EnvSpec(
            features=(FeatureSpec("qty", low=0, high=4),
                      FeatureSpec("mt", categories=("LT7", "LT8p"))),
            action_count=2, episode_len=5, stochastic=False)

    def test_leaf_production_first(self):
        g = default_policy_grammar(self.spec())
        assert g.productions["<dt>"][0] == ("leaf",)
        tree = decode(np.zeros(1, dtype=np.int64), g,
                      self.spec().feature_index)
        assert isinstance(tree.root, Leaf)

    def test_one_condition_alternative_per_feature(self):
        g = default_policy_grammar(self.spec())
        assert len(g.productions["<cond>"]) == 2

    def test_integer_range_enumerates_thresholds(self):
        g = default_policy_grammar(self.spec())
        assert g.productions["<thr_qty>"] == [("0",), ("1",), ("2",), ("3",), ("4",)]

    def test_categories_enumerated_as_indices(self):
        g = default_policy_grammar(self.spec())
        assert g.productions["<cat_mt>"] == [("0",), ("1",)]

    def test_grammar_file_round_trip(self, tmp_path):
        g = default_policy_grammar(self.spec())
        path = tmp_path / "policy.bnf"
        path.write_text(g.to_bnf(), encoding="utf-8")
        assert load_bnf(path) == g

    def test_fuzzed_decodes_always_valid_trees(self):
        spec = self.spec()
        g = default_policy_grammar(spec)
        rng = np.random.default_rng(42)
        ok = 0
        for _ in range(2000):
            genotype = rng.integers(0, 40001, size=20).astype(np.int64)
            try:
                tree = decode(genotype, g, spec.feature_index)
            except IncompleteDerivation:
                continue
            ok += 1
            assert isinstance(tree, DecisionTree)
            for split in tree.splits():
                assert split.condition.feature in (0, 1)
        assert ok > 500
