import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulefill import (
    AssociationRule,
    MiningParams,
    generate_rules,
    mine_frequent,
)
from oracles import (
    brute_force_frequent,
    brute_force_rules,
    random_itemized_db,
    support_count,
    threshold_ok,
    tidsets_of,
)

A, B, C = (0, 0), (1, 0), (2, 0)
TOY_DB = [
    frozenset({A, B, C}),
    frozenset({A, B}),
    frozenset({A, C}),
    frozenset({B, C}),
]


def as_tuples(frequents):
    return [(f.itemset, f.support_count, f.support) for f in frequents]


def rule_tuples(rules):
    return [(r.antecedent, r.consequent, r.support, r.confidence) for r in rules]


def test_support_count_examples():
    assert support_count(frozenset(), TOY_DB) == 4  # empty set is in everything
    db = [frozenset({A, B}), frozenset({A}), frozenset({B})]
    assert support_count(frozenset({A}), db) == 2
    assert support_count(frozenset({(0, 1), (0, 2)}), db) == 0


def test_mine_frequent_toy_db():
    frequents = mine_frequent(*tidsets_of(TOY_DB), MiningParams(0.5, 0.6))
    expected = {
        frozenset({A}): 3,
        frozenset({B}): 3,
        frozenset({C}): 3,
        frozenset({A, B}): 2,
        frozenset({A, C}): 2,
        frozenset({B, C}): 2,
    }
    assert {f.itemset: f.support_count for f in frequents} == expected
    for f in frequents:
        assert f.support == f.support_count / 4


def test_mine_frequent_full_support_threshold():
    assert mine_frequent(*tidsets_of(TOY_DB), MiningParams(1.0, 0.6)) == []


def test_min_support_floor_keeps_everything():
    frequents = mine_frequent(*tidsets_of(TOY_DB), MiningParams(1 / len(TOY_DB), 0.6))
    assert {f.itemset for f in frequents} == {
        itemset for itemset, _, _ in brute_force_frequent(TOY_DB, MiningParams(1 / 4, 0.6))
    }


def nested_db(n, counts):
    """n records; item (c, 0) is held by the first c of them, for each c in counts."""
    return [frozenset((c, 0) for c in counts if position < c) for position in range(n)]


@pytest.mark.parametrize("n, min_support, least", [
    (10, 0.3, 3),
    (10, 0.7, 7),
    (3, 1 / 3, 1),
    (10, 1.0, 10),
    (100, 0.07, 7),  # 0.07 * 100 is 7.000000000000001, so a ceil would drop count 7
    (100, 0.29, 29),  # 0.29 * 100 is 28.999999999999996, so a floor would keep count 28
])
def test_support_boundary_matches_the_oracle(n, min_support, least):
    db = nested_db(n, {max(1, least - 1), least, min(n, least + 1), n})
    params = MiningParams(min_support, 0.6)
    frequents = mine_frequent(*tidsets_of(db), params)
    assert as_tuples(frequents) == brute_force_frequent(db, params)
    assert min(f.support_count for f in frequents) == least


def test_support_minimum_agrees_with_the_fraction_test_for_every_count():
    rng = random.Random(18)
    for _ in range(300):
        n = rng.randint(1, 40)
        c = rng.randint(1, n)
        min_support = rng.choice([
            rng.uniform(1e-9, 1.0), round(rng.uniform(0.01, 1.0), 2), c / n,
            math.nextafter(c / n, 0.0), min(1.0, math.nextafter(c / n, 2.0)),
        ])
        params = MiningParams(min_support, 0.6, max_antecedent_len=1)
        # item (count, 0) is held by the first count of the n records, for every count in 0..n
        tidsets = {(count, 0): (1 << count) - 1 for count in range(n + 1)}
        kept = sorted(f.support_count for f in mine_frequent(tidsets, n, params)
                      if len(f.itemset) == 1)
        assert kept == [count for count in range(n + 1) if threshold_ok(count, n, params)], (
            n, min_support)


def test_empty_db_errors():
    with pytest.raises(ValueError):
        mine_frequent(*tidsets_of([]), MiningParams(0.5, 0.5))


def test_generate_rules_toy_db():
    params = MiningParams(0.5, 0.6)
    rules = generate_rules(mine_frequent(*tidsets_of(TOY_DB), params), params)
    by_pair = {(tuple(sorted(r.antecedent)), r.consequent): r.confidence for r in rules}
    # every 2-itemset has confidence 2/3 in both directions
    assert by_pair[((A,), B)] == pytest.approx(2 / 3)
    assert by_pair[((B,), A)] == pytest.approx(2 / 3)
    assert by_pair[((C,), A)] == pytest.approx(2 / 3)
    assert len(rules) == 6


def test_generate_rules_confidence_one_empty():
    params = MiningParams(0.5, 1.0)
    assert generate_rules(mine_frequent(*tidsets_of(TOY_DB), params), params) == []


def test_singletons_make_no_rules():
    params = MiningParams(0.9, 0.1)
    frequents = mine_frequent(*tidsets_of([frozenset({A}), frozenset({A})]), params)
    assert all(len(f.itemset) == 1 for f in frequents)
    assert generate_rules(frequents, params) == []


def test_generate_rules_refuses_itemsets_that_are_not_downward_closed():
    params = MiningParams(0.5, 0.6)
    pairs = [f for f in mine_frequent(*tidsets_of(TOY_DB), params) if len(f.itemset) == 2]
    assert pairs
    with pytest.raises(ValueError, match="not downward closed"):
        generate_rules(pairs, params)


def test_rule_rejects_overlapping_consequent():
    with pytest.raises(ValueError):
        AssociationRule(frozenset({A}), A, 0.5, 0.9)


def test_params_validation():
    with pytest.raises(ValueError):
        MiningParams(0.0, 0.5)
    with pytest.raises(ValueError):
        MiningParams(0.5, 1.5)
    with pytest.raises(ValueError):
        MiningParams(0.5, 0.5, max_antecedent_len=0)
    with pytest.raises(ValueError):
        MiningParams(0.5, 0.5, min_support_count=0)


def test_absolute_support_count_threshold():
    params = MiningParams(0.9, 0.6, min_support_count=2)
    frequents = mine_frequent(*tidsets_of(TOY_DB), params)
    # count threshold ignores the (stricter) fractional one
    assert {f.itemset for f in frequents} >= {frozenset({A, B})}
    assert as_tuples(frequents) == [
        (i, c, s) for i, c, s in brute_force_frequent(TOY_DB, params)
    ]


def test_max_antecedent_len_caps_itemsets():
    db = [frozenset({A, B, C})] * 4
    params = MiningParams(0.5, 0.6, max_antecedent_len=1)
    frequents = mine_frequent(*tidsets_of(db), params)
    assert max(len(f.itemset) for f in frequents) == 2
    rules = generate_rules(frequents, params)
    assert all(len(r.antecedent) <= 1 for r in rules)


def test_oracle_equivalence_randomized():
    rng = random.Random(1234)
    for _ in range(30):
        db = random_itemized_db(rng)
        params = MiningParams(
            min_support=rng.choice([0.1, 0.2, 0.3, 0.5]),
            min_confidence=rng.choice([0.3, 0.5, 0.7, 0.9]),
        )
        frequents = mine_frequent(*tidsets_of(db), params)
        assert as_tuples(frequents) == brute_force_frequent(db, params)
        rules = generate_rules(frequents, params)
        assert rule_tuples(rules) == brute_force_rules(db, params)


def test_downward_closure_on_random_dbs():
    rng = random.Random(99)
    for _ in range(20):
        db = random_itemized_db(rng)
        frequents = mine_frequent(*tidsets_of(db), MiningParams(0.2, 0.5))
        reported = {f.itemset for f in frequents}
        for f in frequents:
            for item in f.itemset:
                if len(f.itemset) > 1:
                    assert f.itemset - {item} in reported


def test_rules_recheck_against_support_count():
    rng = random.Random(7)
    for _ in range(10):
        db = random_itemized_db(rng)
        params = MiningParams(0.15, 0.5)
        rules = generate_rules(mine_frequent(*tidsets_of(db), params), params)
        n = len(db)
        for r in rules:
            joint = support_count(r.antecedent | {r.consequent}, db)
            base = support_count(r.antecedent, db)
            assert r.support == joint / n
            assert r.confidence == joint / base
            assert joint / n >= params.min_support
            assert r.confidence >= params.min_confidence


def test_monotonicity_in_thresholds():
    rng = random.Random(5)
    for _ in range(10):
        db = random_itemized_db(rng)
        loose = MiningParams(0.1, 0.3)
        strict = MiningParams(0.3, 0.6)
        f_loose = {f.itemset for f in mine_frequent(*tidsets_of(db), loose)}
        f_strict = {f.itemset for f in mine_frequent(*tidsets_of(db), strict)}
        assert f_strict <= f_loose
        r_loose = {
            (r.antecedent, r.consequent)
            for r in generate_rules(mine_frequent(*tidsets_of(db), loose), loose)
        }
        r_strict = {
            (r.antecedent, r.consequent)
            for r in generate_rules(mine_frequent(*tidsets_of(db), strict), strict)
        }
        assert r_strict <= r_loose


def test_determinism_identical_output():
    rng = random.Random(42)
    db = random_itemized_db(rng)
    params = MiningParams(0.2, 0.5)
    tidsets, n_records = tidsets_of(db)
    first = mine_frequent(tidsets, n_records, params)
    second = mine_frequent(dict(reversed(tidsets.items())), n_records, params)  # any item order
    assert as_tuples(first) == as_tuples(second)
    assert rule_tuples(generate_rules(first, params)) == rule_tuples(
        generate_rules(second, params)
    )


@st.composite
def itemized_dbs(draw):
    n_attrs = draw(st.integers(min_value=2, max_value=4))
    levels = [draw(st.integers(min_value=2, max_value=3)) for _ in range(n_attrs)]
    n_records = draw(st.integers(min_value=1, max_value=15))
    db = []
    for _ in range(n_records):
        items = []
        for attribute in range(n_attrs):
            level = draw(st.integers(min_value=-1, max_value=levels[attribute] - 1))
            if level >= 0:
                items.append((attribute, level))
        db.append(frozenset(items))
    return db


@given(
    db=itemized_dbs(),
    support=st.sampled_from([0.1, 0.25, 0.4, 0.6]),
    confidence=st.sampled_from([0.2, 0.5, 0.8]),
)
@settings(max_examples=80, deadline=None)
def test_oracle_equivalence_property(db, support, confidence):
    params = MiningParams(support, confidence)
    frequents = mine_frequent(*tidsets_of(db), params)
    assert as_tuples(frequents) == brute_force_frequent(db, params)
    assert rule_tuples(generate_rules(frequents, params)) == brute_force_rules(db, params)
