import csv
import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from rulefill import (
    CATEGORICAL,
    NUMERIC,
    AssociationRule,
    AttributeSchema,
    DataError,
    Dataset,
    MiningParams,
    Record,
    fit_all_bins,
    impute_dataset,
    load_csv,
    mine_rules,
)
from rulefill.bench import inject_missing
from rulefill.binning import Bins
from rulefill.imputer import SOURCE_KNN, SOURCE_RULES
from rulefill.knn import KnnImputer
from rulefill.rules_io import rule_to_dict
from rulefill.sample_data import CAR_COLUMNS, CREDIT_COLUMNS, car_rows, credit_rows
from oracles import (
    fired_rules,
    impute_from_rules,
    oracle_fired,
    oracle_itemize,
    oracle_key_table,
    oracle_knn_value,
    oracle_missing_cells,
    oracle_neighbors,
    random_dataset,
)


def rule(antecedent, consequent, support=0.5, confidence=0.8):
    return AssociationRule(frozenset(antecedent), consequent, support, confidence)


Y = 3  # target attribute index used in the firing tests
LEVELS = ("l0", "l1", "l2")


def fired_on_y(known, rules):
    """The rules impute_dataset fires for the missing Y cell of a record
    whose items are exactly ``known``; a second, complete record gives the
    kNN fallback a donor.  Checked against the naive oracle on the way."""
    cells = [None] * (Y + 1)
    for attribute, level in known:
        cells[attribute] = LEVELS[level]
    schema = [AttributeSchema(f"a{j}", CATEGORICAL, LEVELS) for j in range(Y + 1)]
    ds = Dataset(schema, [Record(0, tuple(cells)), Record(1, ("l0",) * (Y + 1))])
    assert oracle_itemize(ds, ds.record_by_id(0)) == known
    _, report = impute_dataset(ds, rules)
    (cell,) = [c for c in report.cells if (c.record_id, c.attribute) == (0, Y)]
    fired = fired_rules(report, cell)
    assert fired == oracle_fired(rules, known, Y)
    return fired


def test_fire_rules_subset_condition():
    rules = [
        rule({(0, 1)}, (Y, 0), confidence=0.9),
        rule({(2, 1)}, (Y, 1), confidence=0.8),
    ]
    known = frozenset({(0, 1), (1, 1)})
    fired = fired_on_y(known, rules)
    assert [r.consequent for r in fired] == [(Y, 0)]


def test_fire_rules_empty_known():
    rules = [rule({(0, 1)}, (Y, 0))]
    assert fired_on_y(frozenset(), rules) == ()


def test_empty_antecedent_fires_on_anything():
    rules = [rule(set(), (Y, 0))]
    for known in (frozenset(), frozenset({(0, 1)})):
        fired = fired_on_y(known, rules)
        assert len(fired) == 1
        # oracle: set inclusion says the empty set is a subset of anything
        assert all(known.issuperset(r.antecedent) for r in fired)


def test_fire_rules_ordering():
    r_low = rule({(0, 1)}, (Y, 1), support=0.3, confidence=0.7)
    r_high = rule({(0, 1)}, (Y, 0), support=0.3, confidence=0.9)
    r_support = rule({(1, 1)}, (Y, 2), support=0.6, confidence=0.7)
    fired = fired_on_y(frozenset({(0, 1), (1, 1)}), [r_low, r_high, r_support])
    assert list(fired) == [r_high, r_support, r_low]


CAT = AttributeSchema("color", CATEGORICAL, ("red", "blue", "green"))
NUM = AttributeSchema("x", NUMERIC)


def test_impute_from_rules_strict_majority():
    fired = (
        rule(set(), (0, 0)),
        rule({(1, 0)}, (0, 0)),
        rule({(2, 0)}, (0, 1)),
    )
    assert impute_from_rules(fired, CAT) == "red"


def test_impute_from_rules_numeric_median_even():
    bins = Bins((0.0, 5.0, 10.0, 15.0), (2.5, 7.5, 12.5))
    fired = (rule(set(), (0, 0)), rule({(1, 0)}, (0, 2)))
    assert impute_from_rules(fired, NUM, bins) == pytest.approx(7.5)


def test_impute_from_rules_numeric_median_odd():
    bins = Bins((0.0, 5.0, 10.0, 15.0), (2.5, 7.5, 12.5))
    fired = (
        rule(set(), (0, 0)),
        rule({(1, 0)}, (0, 2)),
        rule({(2, 0)}, (0, 2)),
    )
    assert impute_from_rules(fired, NUM, bins) == 12.5


def test_impute_from_rules_numeric_median_halves_first_when_the_sum_overflows():
    big = 2.0 ** 1023  # the two middle representatives sum past the largest float
    bins = Bins((0.0, 1.0, big, 1.75 * big), (0.5, big, 1.5 * big))
    fired = (rule(set(), (0, 1)), rule({(1, 0)}, (0, 2)))
    assert impute_from_rules(fired, NUM, bins) == 1.25 * big


def test_impute_from_rules_tie_broken_by_confidence_all_permutations():
    strong = rule({(1, 0)}, (0, 0), confidence=0.9)   # red
    weak = rule({(2, 0)}, (0, 1), confidence=0.7)     # blue
    for perm in itertools.permutations([strong, weak]):
        assert impute_from_rules(tuple(perm), CAT) == "red"
    # equal confidence: support decides
    s_783 = rule({(1, 0)}, (0, 2), support=0.7, confidence=0.8)
    s_871 = rule({(2, 0)}, (0, 1), support=0.3, confidence=0.8)
    for perm in itertools.permutations([s_783, s_871]):
        assert impute_from_rules(tuple(perm), CAT) == "green"
    # full tie: smallest level index
    t1 = rule({(1, 0)}, (0, 2), support=0.5, confidence=0.8)
    t2 = rule({(2, 0)}, (0, 1), support=0.5, confidence=0.8)
    for perm in itertools.permutations([t1, t2]):
        assert impute_from_rules(tuple(perm), CAT) == "blue"


def test_impute_from_rules_empty_is_an_error():
    with pytest.raises(ValueError):
        impute_from_rules((), CAT)


VOTE_SCHEMA = [*(AttributeSchema(f"a{j}", CATEGORICAL, ("p", "q")) for j in range(4)),
               AttributeSchema("color", CATEGORICAL, ("red", "blue", "green")),
               AttributeSchema("x", NUMERIC)]
COLOR, X = 4, 5
HELD = frozenset((j, 0) for j in range(4))  # the voting record's items
VOTE_BINS = {X: Bins((0.0, 5.0, 10.0, 15.0), (2.5, 7.5, 12.5))}


def voted(rules, attribute, bins=VOTE_BINS):
    """impute_dataset's cell for ``attribute`` of a record holding HELD and
    lacking color and x, the rules given in shuffled order, and the cell's
    fired rules; checked against oracle_fired and the scalar impute_from_rules."""
    ds = Dataset(VOTE_SCHEMA, [Record(0, ("p",) * 4 + (None, None)),
                               Record(1, ("q",) * 4 + ("red", "1.0"))])
    shuffled = list(rules)
    random.Random(len(rules)).shuffle(shuffled)
    _, report = impute_dataset(ds, shuffled, bins=bins)
    (cell,) = [c for c in report.cells if c.attribute == attribute]
    fired = fired_rules(report, cell)
    assert cell.source == SOURCE_RULES and fired == oracle_fired(rules, HELD, attribute)
    assert cell.value == impute_from_rules(fired, VOTE_SCHEMA[attribute], bins.get(attribute))
    return cell, fired


def on(*attributes):
    """An antecedent of the voting record's items at ``attributes``."""
    return frozenset((j, 0) for j in attributes)


def test_array_vote_breaks_a_strength_tie_by_level_not_by_firing_order():
    # equal (confidence, support): blue's antecedent sorts first, so blue fires
    # first, but the tie goes to the lowest level index, red
    cell, fired = voted([rule(on(0), (COLOR, 1), 0.5, 0.9), rule(on(1), (COLOR, 0), 0.5, 0.9)],
                        COLOR)
    assert fired[0].consequent == (COLOR, 1) and cell.value == "red"
    cell, fired = voted([rule(on(0), (COLOR, 1), 0.5, 0.9), rule(on(1), (COLOR, 0), 0.5, 0.9),
                         rule(on(0, 1), (COLOR, 1), 0.5, 0.6), rule(on(2), (COLOR, 0), 0.5, 0.8)],
                        COLOR)
    assert fired[0].consequent == (COLOR, 1) and cell.value == "red"


@pytest.mark.parametrize("strengths, expected", [
    # (level, support, confidence) per rule, each under its own antecedent
    ([(2, 0.3, 0.6)] * 3 + [(0, 0.5, 0.9)] * 2, "green"),  # most rules beat the strongest
    ([(0, 0.3, 0.8), (1, 0.4, 0.8)], "blue"),  # count tie, equal confidence: support
    ([(0, 0.5, 0.7), (0, 0.5, 0.6), (1, 0.5, 0.8), (1, 0.5, 0.5)], "blue"),  # best rule
    ([(2, 0.5, 0.8), (1, 0.5, 0.8), (2, 0.4, 0.6), (1, 0.4, 0.6)], "blue"),  # full tie
    ([(1, 0.5, 0.8), (0, 0.5, 0.8), (2, 0.5, 0.8)], "red"),  # three-way tie
])
def test_array_vote_count_ties_match_the_scalar_vote(strengths, expected):
    antecedents = [on(*c) for n in range(5) for c in itertools.combinations(range(4), n)]
    rules = [rule(a, (COLOR, level), support, confidence)
             for a, (level, support, confidence) in zip(antecedents, strengths)]
    assert voted(rules, COLOR)[0].value == expected


BIG = 2.0 ** 1023  # two middle representatives of the overflow bins sum past the largest float


@pytest.mark.parametrize("bins, expected, bins_fired", [
    (VOTE_BINS, 12.5, [0, 2, 2]),
    (VOTE_BINS, 7.5, [2, 1, 0]),
    (VOTE_BINS, 7.5, [0, 2]),
    (VOTE_BINS, 7.5, [1, 1, 1, 2]),
    (VOTE_BINS, 10.0, [2, 0, 1, 2, 1, 2]),
    ({X: Bins((0.0, 1.0, BIG, 1.75 * BIG), (0.5, BIG, 1.5 * BIG))}, 1.25 * BIG, [2, 1]),
    ({X: Bins((0.0, 1.0, BIG, 1.75 * BIG), (0.5, BIG, 1.5 * BIG))}, BIG, [1, 2, 0]),
])
def test_array_vote_numeric_medians_match_the_scalar_vote(bins, expected, bins_fired):
    antecedents = [on(*c) for n in range(5) for c in itertools.combinations(range(4), n)]
    rules = [rule(a, (X, b), 0.5, 0.8) for a, b in zip(antecedents, bins_fired)]
    assert voted(rules, X, bins)[0].value == expected


def test_array_vote_matches_the_scalar_vote_on_random_tied_rule_sets():
    rng = random.Random(1717)
    items = [(j, level) for j in range(4) for level in (0, 1)]
    covered = 0
    for _ in range(40):
        records = [Record(i, (*(rng.choice(("p", "q", None)) for _ in range(4)),
                              rng.choice(("red", "blue", None, None, None)),
                              rng.choice(("1.0", "6.0", None, None))))
                   for i in range(rng.randint(1, 12))]
        ds = Dataset(VOTE_SCHEMA, [*records, Record(99, ("p", "q", "p", "q", "green", "11.0"))])
        rules = []
        for _ in range(rng.randint(1, 40)):
            antecedent = frozenset(rng.sample(items, rng.randint(0, 2)))
            if len({j for j, _ in antecedent}) == len(antecedent):
                rules.append(rule(antecedent, (rng.choice((COLOR, X)), rng.randrange(3)),
                                  rng.choice((0.3, 0.5)), rng.choice((0.6, 0.8))))
        rng.shuffle(rules)
        _, report = impute_dataset(ds, rules, 3, VOTE_BINS)
        for cell in report.cells:
            known = oracle_itemize(ds, ds.record_by_id(cell.record_id), VOTE_BINS)
            fired = oracle_fired(rules, known, cell.attribute)
            assert fired_rules(report, cell) == fired
            if fired:
                covered += 1
                bins = VOTE_BINS.get(cell.attribute)
                assert cell.value == impute_from_rules(fired, VOTE_SCHEMA[cell.attribute], bins)
    assert covered > 200


def tiny_dataset():
    schema = [
        AttributeSchema("a", CATEGORICAL, ("a0", "a1")),
        AttributeSchema("b", CATEGORICAL, ("b0", "b1")),
        AttributeSchema("y", CATEGORICAL, ("y0", "y1")),
    ]
    records = [
        Record(0, ("a0", "b0", "y0")),
        Record(1, ("a0", "b0", "y0")),
        Record(2, ("a0", "b1", "y0")),
        Record(3, ("a1", "b1", "y1")),
        Record(4, ("a0", "b0", None)),
    ]
    return Dataset(schema, records)


def only_cell(report, record_id, attribute):
    (cell,) = [c for c in report.cells if (c.record_id, c.attribute) == (record_id, attribute)]
    return cell


def test_impute_cell_branches():
    ds = tiny_dataset()
    matching = [rule({(0, 0)}, (2, 0), confidence=0.9), rule({(1, 0)}, (2, 0), confidence=0.8)]
    _, report = impute_dataset(ds, matching)
    cell = only_cell(report, 4, 2)
    assert cell.source == SOURCE_RULES
    assert len(cell.rules) == 2
    assert cell.value == "y0"

    _, report = impute_dataset(ds, [rule({(0, 1)}, (2, 1))])
    cell = only_cell(report, 4, 2)
    assert cell.source == SOURCE_KNN
    assert cell.neighbor_ids
    # present cells are never imputed: the table's one missing cell is the only entry
    assert [(c.record_id, c.attribute) for c in report.cells] == [(4, 2)]


def test_constant_attribute_imputes_the_constant_either_way():
    schema = [
        AttributeSchema("a", CATEGORICAL, ("a0", "a1")),
        AttributeSchema("y", CATEGORICAL, ("only",)),
    ]
    ds = Dataset(
        schema,
        [Record(0, ("a0", "only")), Record(1, ("a1", "only")), Record(2, ("a0", None))],
    )
    for rules in ([], mine_rules(ds, MiningParams(0.5, 0.5))):
        _, report = impute_dataset(ds, rules)
        assert only_cell(report, 2, 1).value == "only"


def test_rule_less_imputation_needs_no_bins():
    # kNN alone reads numbers directly; bins only matter for the item bitsets,
    # which are built only when some rule targets a missing cell
    schema = [
        AttributeSchema("x", NUMERIC),
        AttributeSchema("c", CATEGORICAL, ("p", "q")),
        AttributeSchema("d", CATEGORICAL, ("r", "s")),
    ]
    ds = Dataset(schema, [
        Record(0, ("1.0", "p", "r")),
        Record(1, ("2.0", None, "s")),
        Record(2, (None, "q", "r")),
        Record(3, ("4.0", "q", "s")),
        Record(4, (None, None, "r")),
    ])
    # no rule, then categorical rules that all target the complete column d
    for rules in ([], [rule({(1, 0)}, (2, 0)), rule(set(), (2, 1))]):
        done, report = impute_dataset(ds, rules, 2)
        assert not oracle_missing_cells(done)
        assert report.n_imputed == report.n_from_knn == 4
        for cell in report.cells:
            expected = oracle_knn_value(ds, ds.record_by_id(cell.record_id), cell.attribute, 2)
            assert cell.value == expected


def test_equal_numbers_share_a_key_but_each_record_keeps_its_own_cell():
    # records 0-2 encode alike (x is 1.0 as "1.0", "1.00" and a float) and lack c
    schema = [
        AttributeSchema("x", NUMERIC),
        AttributeSchema("c", CATEGORICAL, ("p", "q")),
        AttributeSchema("d", CATEGORICAL, ("r", "s")),
    ]
    ds = Dataset(schema, [
        Record(0, ("1.0", None, "r")),
        Record(1, ("1.00", None, "r")),
        Record(2, (1.0, None, "r")),
        Record(3, ("2.0", "p", "r")),
        Record(4, ("3.0", "q", "s")),
        Record(5, ("1.5", "p", "s")),
    ])
    # kNN alone, then a rule that fires on the shared key
    for rules, source in (([], SOURCE_KNN), ([rule({(2, 0)}, (1, 1))], SOURCE_RULES)):
        done, report = impute_dataset(ds, rules, 2, bins=fit_all_bins(ds, 2))
        assert report.record_ids == [0, 1, 2] and len(set(report.key_index)) == 1
        ((attribute, value, got, _, _),) = report.keys
        assert (attribute, got) == (1, source)
        for before, after in zip(ds.records[:3], done.records):
            assert after.cells[1] == value
            assert type(after.cells[0]) is type(before.cells[0])
            assert after.cells[0] == before.cells[0] and after.cells[2] == "r"
        assert done.records[3:] == ds.records[3:]


def test_impute_dataset_no_missing_is_identity():
    tiny = tiny_dataset()
    ds = Dataset(tiny.schema, [*tiny.records[:4], Record(4, ("a0", "b0", "y1"))])
    done, report = impute_dataset(ds, [])
    assert report.n_imputed == 0
    assert [r.cells for r in done.records] == [r.cells for r in ds.records]


def test_impute_dataset_totality_and_branch_soundness():
    rng = random.Random(404)
    for _ in range(10):
        ds = random_dataset(rng, max_records=40)
        params = MiningParams(0.3, 0.5)
        bins = fit_all_bins(ds, 3)
        rules = mine_rules(ds, params, bins)
        done, report = impute_dataset(ds, rules, 3, bins)
        assert not oracle_missing_cells(done)
        for cell in report.cells:
            record = ds.record_by_id(cell.record_id)
            known = oracle_itemize(ds, record, bins)
            fired = oracle_fired(rules, known, cell.attribute)
            if cell.source == SOURCE_RULES:
                assert fired
                assert set(fired_rules(report, cell)) <= set(fired)
            else:
                assert fired == ()


def test_batched_firing_order_matches_fire_rules():
    # pre-sorted buckets must reproduce the naive filter-then-sort exactly
    rules = [
        rule({(0, 0)}, (2, 0), support=0.4, confidence=0.7),
        rule({(1, 0)}, (2, 1), support=0.6, confidence=0.7),
        rule(set(), (2, 0), support=0.2, confidence=0.95),
    ]
    ds = tiny_dataset()
    done, report = impute_dataset(ds, rules)
    cell = next(c for c in report.cells if (c.record_id, c.attribute) == (4, 2))
    known = oracle_itemize(ds, ds.record_by_id(4))
    fired = fired_rules(report, cell)
    assert fired == oracle_fired(rules, known, 2)
    assert list(fired) == sorted(fired, key=AssociationRule.sort_key)


def test_record_order_permutation_invariance():
    rng = random.Random(88)
    ds = random_dataset(rng, max_records=30, allow_numeric=False)
    params = MiningParams(0.25, 0.5)
    rules = mine_rules(ds, params)
    _, report = impute_dataset(ds, rules, 3)
    baseline = {(c.record_id, c.attribute): c.value for c in report.cells}

    shuffled_records = list(ds.records)
    rng.shuffle(shuffled_records)
    shuffled = Dataset(ds.schema, shuffled_records)
    rules2 = mine_rules(shuffled, params)
    assert {(r.antecedent, r.consequent) for r in rules2} == {
        (r.antecedent, r.consequent) for r in rules
    }
    _, report2 = impute_dataset(shuffled, rules2, 3)
    assert {(c.record_id, c.attribute): c.value for c in report2.cells} == baseline


def test_coverage_shrinks_with_stricter_thresholds():
    rng = random.Random(12)
    ds = random_dataset(rng, max_records=60, allow_numeric=False, missing_rate=0.2)
    loose_params = MiningParams(0.15, 0.4)
    strict_params = MiningParams(0.3, 0.7)
    loose_rules = mine_rules(ds, loose_params)
    strict_rules = mine_rules(ds, strict_params)
    assert {(r.antecedent, r.consequent) for r in strict_rules} <= {
        (r.antecedent, r.consequent) for r in loose_rules
    }
    _, loose_report = impute_dataset(ds, loose_rules)
    _, strict_report = impute_dataset(ds, strict_rules)
    loose_cells = {
        (c.record_id, c.attribute) for c in loose_report.cells if c.source == SOURCE_RULES
    }
    strict_cells = {
        (c.record_id, c.attribute) for c in strict_report.cells if c.source == SOURCE_RULES
    }
    assert strict_cells <= loose_cells


def test_schema_mismatch_rejected():
    ds = tiny_dataset()
    with pytest.raises(DataError, match=r"^rule references attribute index 3, dataset has 3$"):
        impute_dataset(ds, [rule({(0, 0)}, (3, 0))])
    with pytest.raises(DataError):
        impute_dataset(ds, [rule({(0, 7)}, (2, 0))])
    with pytest.raises(DataError):
        impute_dataset(ds, [rule({(0, 0)}, (2, 5))])


def numeric_target_dataset():
    schema = [
        AttributeSchema("a", CATEGORICAL, ("a0", "a1")),
        AttributeSchema("x", NUMERIC),
    ]
    records = [Record(0, ("a0", "1.0")), Record(1, ("a1", "3.0")), Record(2, ("a0", None))]
    return Dataset(schema, records)


def test_numeric_rules_need_bins_in_range():
    ds = numeric_target_dataset()
    with pytest.raises(DataError, match=r"^rules target numeric 'x' but no bins given$"):
        impute_dataset(ds, [rule({(0, 0)}, (1, 0))])
    bins = {1: Bins((1.0, 2.0, 3.0), (1.0, 3.0))}
    with pytest.raises(
        DataError, match=r"^rule references bin 2 of 'x', which has 2 bins$"
    ):
        impute_dataset(ds, [rule({(0, 0)}, (1, 2))], bins=bins)
    _, report = impute_dataset(ds, [rule({(0, 0)}, (1, 1))], bins=bins)
    assert only_cell(report, 2, 1).value == 3.0


def test_schema_error_names_the_same_item_whatever_the_rule_order():
    ds = tiny_dataset()
    bad = [(0, 7), (1, 3), (0, 9), (4, 4)]  # a set of the items yields (4, 4) first
    rules = [
        rule({(1, i % 2), bad[i % 4]}, (2, i % 2), confidence=0.6 + i / 100)
        for i in range(30)
    ]
    rng = random.Random(3)
    for _ in range(20):
        rng.shuffle(rules)
        with pytest.raises(
            DataError, match=r"^rule references level 7 of 'a', which has 2 levels$"
        ):
            impute_dataset(ds, rules)


def test_report_serialization_shape():
    ds = tiny_dataset()
    rules = [rule({(0, 0)}, (2, 0), confidence=0.9)]
    _, report = impute_dataset(ds, rules)
    payload = report.to_dict()
    assert payload["totals"]["imputed"] == 1
    assert payload["totals"]["rules"] == 1
    (entry,) = payload["cells"]
    assert entry["row"] == 4 and entry["column"] == "y"
    assert entry["source"] == SOURCE_RULES
    assert payload["schema"] == "rulefill-report-v2"
    assert payload["rules"][entry["provenance"][0]]["consequent"] == [2, 0]
    assert payload["parameters"] == {"k": 10, "distance": "heom", "rule_count": 1}


def repeated_patterns(rng):
    """A random mixed table whose records repeat a few cell patterns under
    shuffled ids, with every attribute known somewhere; plus its bins, a
    random exclusion set, rules mined from it and a k, sometimes above the
    number of candidates."""
    while True:
        base = random_dataset(rng, max_records=8, missing_rate=0.3)
        cells = [rng.choice(base.records).cells for _ in range(rng.randint(4, 30))]
        if all(any(row[j] is not None for row in cells) for j in range(base.n_attributes)):
            break
    ids = rng.sample(range(10 * len(cells)), len(cells))
    ds = Dataset(base.schema, [Record(i, row) for i, row in zip(ids, cells)])
    exclude = frozenset(j for j in range(ds.n_attributes) if rng.random() < 0.25)
    bins = fit_all_bins(ds, 3, exclude=exclude)
    rules = mine_rules(ds, MiningParams(0.2, 0.5), bins, exclude)
    k = rng.choice([1, 3, 4 * len(cells)])
    return ds, rules, bins, exclude, k


def test_each_cell_of_a_repeated_table_matches_the_oracles():
    rng = random.Random(2024)
    shared = 0  # cells that took another record's result
    for _ in range(40):
        ds, rules, bins, exclude, k = repeated_patterns(rng)
        rng.shuffle(rules)  # firing order comes from the sort, not the input order
        _, report = impute_dataset(ds, rules, k, bins, exclude)
        assert [(c.record_id, c.attribute) for c in report.cells] == oracle_missing_cells(ds)
        first = {}  # (record cells, attribute) -> the key's first cell
        for (i, j), cell in zip(oracle_missing_cells(ds), report.cells):
            record = ds.record_by_id(i)
            fired = oracle_fired(rules, oracle_itemize(ds, record, bins, exclude), j)
            if cell.source == SOURCE_RULES:
                assert fired_rules(report, cell) == fired
                assert cell.value == impute_from_rules(fired, ds.schema[j], bins.get(j))
            else:
                assert fired == () and cell.rules == ()
                assert list(cell.neighbor_ids) == oracle_neighbors(ds, record, j, k, exclude)
                assert cell.value == oracle_knn_value(ds, record, j, k, exclude)
            head = first.setdefault((record.cells, j), cell)
            if head is not cell:
                shared += 1
                assert cell.rules is head.rules and cell.neighbor_ids is head.neighbor_ids
    assert shared > 100  # the tables do repeat patterns


def test_key_table_matches_the_record_by_record_oracle(monkeypatch):
    firsts = []  # the first position of each key, as the kNN fallback receives them

    def placeholder(self, positions, attributes):
        firsts.extend(positions.tolist())
        return [(None, ())] * positions.size

    monkeypatch.setattr(KnnImputer, "_impute", placeholder)
    rng = random.Random(22)
    wide = AttributeSchema("wide", CATEGORICAL, tuple(f"w{i}" for i in range(130)))
    complete = zeros = 0
    for _ in range(40):
        base = random_dataset(rng, max_records=8, missing_rate=0.3)
        schema = [*base.schema, wide]
        numeric = [j for j, attr in enumerate(schema) if attr.kind == NUMERIC]
        rows = []
        for _ in range(rng.randint(0, 40)):  # a few repeated patterns
            cells = [*rng.choice(base.records).cells, rng.choice([None, "w0", "w129"])]
            for j in numeric:  # zeros of both signs: equal as numbers, not as encoded cells
                if cells[j] is not None and rng.random() < 0.3:
                    cells[j] = rng.choice(["0", "-0"])
                    zeros += 1
            rows.append(tuple(cells))
        ids = rng.sample(range(10 * len(rows) + 1), len(rows))
        ds = Dataset(schema, [Record(i, row) for i, row in zip(ids, rows)])
        assert ds.columns[0].dtype == np.int16  # 130 levels
        complete += sum(None not in row for row in rows)
        firsts.clear()
        _, report = impute_dataset(ds, [])
        key_attrs = [attribute for attribute, *_ in report.keys]
        assert (firsts, key_attrs, report.record_ids, report.key_index) == oracle_key_table(ds)
    assert complete > 0 and zeros > 0


def test_knn_runs_once_per_distinct_uncovered_key(monkeypatch):
    received = []
    impute = KnnImputer._impute

    def spy(self, positions, attributes):
        records = [self.dataset.records[p] for p in positions.tolist()]
        received.extend(zip(records, attributes.tolist()))
        return impute(self, positions, attributes)

    monkeypatch.setattr(KnnImputer, "_impute", spy)
    rng = random.Random(7)
    for _ in range(20):
        ds, rules, bins, exclude, k = repeated_patterns(rng)
        received.clear()
        _, report = impute_dataset(ds, rules, k, bins, exclude)
        representative = {}
        for record in ds.records:
            representative.setdefault(record.cells, record)
        uncovered = dict.fromkeys(
            (ds.record_by_id(i).cells, j)
            for (i, j), cell in zip(oracle_missing_cells(ds), report.cells)
            if cell.source == SOURCE_KNN
        )
        assert [(record.cells, j) for record, j in received] == list(uncovered)
        assert all(record is representative[record.cells] for record, _ in received)


def test_shuffled_records_keep_each_cell_value_source_and_provenance():
    rng = random.Random(31)
    for _ in range(20):
        ds, rules, bins, exclude, k = repeated_patterns(rng)
        shuffled_records = list(ds.records)
        rng.shuffle(shuffled_records)
        shuffled = Dataset(ds.schema, shuffled_records)
        outcomes = []
        for table in (ds, shuffled):
            _, report = impute_dataset(table, rules, k, bins, exclude)
            outcomes.append({
                (c.record_id, c.attribute):
                    (c.value, c.source, fired_rules(report, c), c.neighbor_ids)
                for c in report.cells
            })
        assert outcomes[0] == outcomes[1]


def overflowing_mean_dataset():
    """x averages two neighbours at 1e308 for record 3; their plain sum is inf."""
    schema = [AttributeSchema("x", NUMERIC), AttributeSchema("c", CATEGORICAL, ("a", "b"))]
    rows = [("1e308", "a"), ("1e308", "a"), ("0", "b"), (None, "a")]
    return Dataset(schema, [Record(i, row) for i, row in enumerate(rows)])


def test_knn_mean_of_neighbours_past_the_largest_float_stays_finite():
    _, report = impute_dataset(overflowing_mean_dataset(), [], 2)
    (cell,) = report.cells
    assert (cell.record_id, cell.source, cell.neighbor_ids) == (3, SOURCE_KNN, (0, 1))
    assert cell.value == 1e308


def report_tables(rng, tables=20):
    """(dataset, payload of its report, report) for random repeated-pattern
    tables, round-tripped through JSON as the CLI writes it."""
    for _ in range(tables):
        ds, rules, bins, exclude, k = repeated_patterns(rng)
        rng.shuffle(rules)  # firing order comes from the sort, not the input order
        _, report = impute_dataset(ds, rules, k, bins, exclude)
        yield ds, json.loads(json.dumps(report.to_dict(), sort_keys=True)), report


def test_report_provenance_ids_resolve_to_each_cells_fired_rules():
    rule_cells = 0
    for _, payload, report in report_tables(random.Random(57)):
        assert payload["schema"] == "rulefill-report-v2"
        assert payload["rules"] == [rule_to_dict(r) for r in report.rules]
        for cell, entry in zip(report.cells, payload["cells"], strict=True):
            rule_cells += cell.source == SOURCE_RULES
            assert entry["provenance"] == list(cell.rules or cell.neighbor_ids)
    assert rule_cells > 0


def test_report_rule_table_lists_each_fired_rule_once_in_sort_key_order():
    for _, _, report in report_tables(random.Random(58)):
        listed = report.rules
        assert {i for c in report.cells for i in c.rules} == set(range(len(listed)))
        assert len(set(listed)) == len(listed)
        assert listed == sorted(listed, key=AssociationRule.sort_key)


def test_a_rule_listed_twice_is_reported_once_per_copy():
    schema = [AttributeSchema("a", CATEGORICAL, ("a0", "a1")),
              AttributeSchema("y", CATEGORICAL, ("red", "blue"))]
    ds = Dataset(schema, [Record(0, ("a0", "red")), Record(1, ("a1", "blue")),
                          Record(2, ("a0", None))])
    r = rule({(0, 0)}, (1, 1), support=0.3, confidence=0.9)
    rules = [r, rule({(0, 0)}, (1, 1), support=0.3, confidence=0.9),
             rule({(0, 0)}, (1, 0), support=0.3, confidence=0.8),
             rule(set(), (1, 0), support=0.5, confidence=0.5)]
    _, report = impute_dataset(ds, rules, 1)
    (cell,) = report.cells
    assert (cell.source, cell.value) == (SOURCE_RULES, "blue")  # both copies of r vote
    assert report.rules == rules
    assert cell.rules == (0, 1, 2, 3)
    (entry,) = json.loads(json.dumps(report.to_dict()))["cells"]
    assert entry["provenance"] == [0, 1, 2, 3]


def test_report_rule_table_does_not_depend_on_record_order():
    rng = random.Random(59)
    listed = 0
    for _ in range(20):
        ds, rules, bins, exclude, k = repeated_patterns(rng)
        shuffled_records = list(ds.records)
        rng.shuffle(shuffled_records)
        tables = []
        for table in (ds, Dataset(ds.schema, shuffled_records)):
            _, report = impute_dataset(table, rules, k, bins, exclude)
            tables.append(json.dumps(report.to_dict()["rules"], sort_keys=True))
        assert tables[0] == tables[1]
        listed += tables[0] != "[]"
    assert listed > 0


# SHA-256 of the completed records' cells and of report.to_dict(), per
# (table, mask rate, method); the tables come from sample_data, never a data
# file, masks use seed 0 and rules support count 40 at confidence 60%
PINNED_IMPUTATIONS = {
    ("car", 0.05, "hybrid"): (
        "da54939801a9bc51e7962722d8011a5ae52f18d72587d9cce843c1573bc80998",
        "df056548b327f656265712d5cc38a748a0633777367b974091f87dc7ce8523c5",
    ),
    ("car", 0.05, "knn"): (
        "62010de849dfd6d85acf2f12a83c42366a7d436635397cb8c0d28c274fc35be8",
        "839a0d885bf11472b642bbb46a6ceefe8cdd22f06afb115d33db020fdc7e7725",
    ),
    ("car", 0.3, "hybrid"): (
        "363a6ce9d4f46c11bba145856bb2b42f3f012eafa7a3a1176a6c3898991850bd",
        "76e01f9833c82e1e865cc386fc394e55f2c11ad737cffd6e7f3569e7d2b42e78",
    ),
    ("car", 0.3, "knn"): (
        "363a6ce9d4f46c11bba145856bb2b42f3f012eafa7a3a1176a6c3898991850bd",
        "3fb9b220b03d8dc8f7f245444ab986cce209ba3c98baa51561f4c5db56b9a091",
    ),
    ("credit", 0.05, "hybrid"): (
        "af1e613624f35586c9b317de27ee25cb553a77d7ba61cd5078d59f8727b9d7e6",
        "acfa187b61c79243dd7038d3b3338a05d6c1c6b3b651ff7dec0f06270bb5efdb",
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED_IMPUTATIONS), ids=lambda key: "-".join(map(str, key)))
def test_impute_dataset_outputs_are_pinned(tmp_path, key):
    table, rate, method = key
    header, rows = (CAR_COLUMNS, car_rows()) if table == "car" else (CREDIT_COLUMNS, credit_rows())
    path = tmp_path / f"{table}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    masked, _ = inject_missing(load_csv(path, "?", class_column="class"), rate, seed=0)
    bins = fit_all_bins(masked)
    rules = mine_rules(masked, MiningParams(min_confidence=0.6, min_support_count=40), bins)
    completed, report = impute_dataset(masked, rules if method == "hybrid" else [],
                                       10, bins)
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (
        repr([r.cells for r in completed.records]),
        json.dumps(report.to_dict(), sort_keys=True),
    ))
    assert digests == PINNED_IMPUTATIONS[key]
