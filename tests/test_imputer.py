import itertools
import random

import pytest

from rulefill import (
    CATEGORICAL,
    NUMERIC,
    AssociationRule,
    AttributeSchema,
    DataError,
    Dataset,
    KnnParams,
    MiningParams,
    Record,
    SOURCE_KNN,
    SOURCE_RULES,
    fit_all_bins,
    impute_dataset,
    impute_from_rules,
    mine_rules,
)
from rulefill.binning import Bins
from rulefill.imputer import _firing_key
from oracles import oracle_fired, oracle_knn_value, random_dataset


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
    assert ds.itemize(ds.record_by_id(0)) == known
    _, report = impute_dataset(ds, rules)
    (cell,) = [c for c in report.cells if (c.record_id, c.attribute) == (0, Y)]
    assert cell.rules == oracle_fired(rules, known, Y)
    return cell.rules


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
        assert all(r.antecedent <= known for r in fired)


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
    # kNN alone reads numbers directly; bins only matter for itemizing
    schema = [
        AttributeSchema("x", NUMERIC),
        AttributeSchema("c", CATEGORICAL, ("p", "q")),
    ]
    ds = Dataset(schema, [
        Record(0, ("1.0", "p")),
        Record(1, ("2.0", None)),
        Record(2, (None, "q")),
        Record(3, ("4.0", "q")),
        Record(4, (None, None)),
    ])
    done, report = impute_dataset(ds, [], KnnParams(2))
    assert not done.missing_cells()
    assert report.n_imputed == report.n_from_knn == 4
    for cell in report.cells:
        expected = oracle_knn_value(ds, ds.record_by_id(cell.record_id), cell.attribute, 2)
        assert cell.value == expected


def test_impute_dataset_no_missing_is_identity():
    ds = tiny_dataset().replace_cells({(4, 2): "y1"})
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
        done, report = impute_dataset(ds, rules, KnnParams(3), bins)
        assert not done.missing_cells()
        for cell in report.cells:
            record = ds.record_by_id(cell.record_id)
            known = ds.itemize(record, bins)
            fired = oracle_fired(rules, known, cell.attribute)
            if cell.source == SOURCE_RULES:
                assert fired
                assert set(cell.rules) <= set(fired)
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
    known = ds.itemize(ds.record_by_id(4))
    assert cell.rules == oracle_fired(rules, known, 2)
    assert list(cell.rules) == sorted(cell.rules, key=_firing_key)


def test_record_order_permutation_invariance():
    rng = random.Random(88)
    ds = random_dataset(rng, max_records=30, allow_numeric=False)
    params = MiningParams(0.25, 0.5)
    rules = mine_rules(ds, params)
    _, report = impute_dataset(ds, rules, KnnParams(3))
    baseline = {(c.record_id, c.attribute): c.value for c in report.cells}

    shuffled_records = list(ds.records)
    rng.shuffle(shuffled_records)
    shuffled = Dataset(ds.schema, shuffled_records)
    rules2 = mine_rules(shuffled, params)
    assert {(r.antecedent, r.consequent) for r in rules2} == {
        (r.antecedent, r.consequent) for r in rules
    }
    _, report2 = impute_dataset(shuffled, rules2, KnnParams(3))
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
    with pytest.raises(DataError):
        impute_dataset(ds, [rule({(0, 0)}, (9, 0))])
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
    bad = [(0, 7), (1, 3), (0, 9)]
    rules = [
        rule({(1, i % 2), bad[i % 3]}, (2, i % 2), confidence=0.6 + i / 100)
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
    _, report = impute_dataset(ds, rules, parameters={"note": "unit"})
    payload = report.to_dict()
    assert payload["totals"]["imputed"] == 1
    assert payload["totals"]["rules"] == 1
    (entry,) = payload["cells"]
    assert entry["row"] == 4 and entry["column"] == "y"
    assert entry["source"] == SOURCE_RULES
    assert entry["provenance"][0]["consequent"] == [2, 0]
    assert payload["parameters"]["note"] == "unit"
