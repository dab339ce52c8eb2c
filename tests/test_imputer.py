import itertools
import json
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
    mine_rules,
)
from rulefill.binning import Bins
from rulefill.imputer import impute_from_rules
from rulefill.knn import KnnImputer
from rulefill.rules_io import rule_from_dict
from oracles import (
    oracle_fired,
    oracle_itemize,
    oracle_knn_value,
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
            known = oracle_itemize(ds, record, bins)
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
    known = oracle_itemize(ds, ds.record_by_id(4))
    assert cell.rules == oracle_fired(rules, known, 2)
    assert list(cell.rules) == sorted(cell.rules, key=AssociationRule.sort_key)


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
    assert payload["schema"] == "rulefill-report-v2"
    assert payload["rules"][entry["provenance"][0]]["consequent"] == [2, 0]
    assert payload["parameters"]["note"] == "unit"


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


def missing_cells(ds):
    return [(r, j) for r in ds.records for j, cell in enumerate(r.cells) if cell is None]


def test_each_cell_of_a_repeated_table_matches_the_oracles():
    rng = random.Random(2024)
    shared = 0  # cells that took another record's result
    for _ in range(40):
        ds, rules, bins, exclude, k = repeated_patterns(rng)
        _, report = impute_dataset(ds, rules, KnnParams(k), bins, exclude)
        assert [(c.record_id, c.attribute) for c in report.cells] == [
            (r.id, j) for r, j in missing_cells(ds)
        ]
        first = {}  # (record cells, attribute) -> the key's first cell
        for (record, j), cell in zip(missing_cells(ds), report.cells):
            fired = oracle_fired(rules, oracle_itemize(ds, record, bins, exclude), j)
            if cell.source == SOURCE_RULES:
                assert cell.rules == fired
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


def test_knn_runs_once_per_distinct_uncovered_key(monkeypatch):
    received = []
    impute_cells = KnnImputer.impute_cells

    def spy(self, cells):
        cells = list(cells)
        received.extend(cells)
        return impute_cells(self, cells)

    monkeypatch.setattr(KnnImputer, "impute_cells", spy)
    rng = random.Random(7)
    for _ in range(20):
        ds, rules, bins, exclude, k = repeated_patterns(rng)
        received.clear()
        _, report = impute_dataset(ds, rules, KnnParams(k), bins, exclude)
        representative = {}
        for record in ds.records:
            representative.setdefault(record.cells, record)
        uncovered = dict.fromkeys(
            (record.cells, j)
            for (record, j), cell in zip(missing_cells(ds), report.cells)
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
            _, report = impute_dataset(table, rules, KnnParams(k), bins, exclude)
            outcomes.append({
                (c.record_id, c.attribute): (c.value, c.source, c.rules, c.neighbor_ids)
                for c in report.cells
            })
        assert outcomes[0] == outcomes[1]


def overflowing_mean_dataset():
    """x averages two neighbours at 1e308 for record 3; their plain sum is inf."""
    schema = [AttributeSchema("x", NUMERIC), AttributeSchema("c", CATEGORICAL, ("a", "b"))]
    rows = [("1e308", "a"), ("1e308", "a"), ("0", "b"), (None, "a")]
    return Dataset(schema, [Record(i, row) for i, row in enumerate(rows)])


def test_knn_mean_of_neighbours_past_the_largest_float_stays_finite():
    _, report = impute_dataset(overflowing_mean_dataset(), [], KnnParams(2))
    (cell,) = report.cells
    assert (cell.record_id, cell.source, cell.neighbor_ids) == (3, SOURCE_KNN, (0, 1))
    assert cell.value == 1e308


def report_tables(rng, tables=20):
    """(dataset, payload of its report, report) for random repeated-pattern
    tables, round-tripped through JSON as the CLI writes it."""
    for _ in range(tables):
        ds, rules, bins, exclude, k = repeated_patterns(rng)
        _, report = impute_dataset(ds, rules, KnnParams(k), bins, exclude)
        yield ds, json.loads(json.dumps(report.to_dict(), sort_keys=True)), report


def test_report_provenance_ids_resolve_to_each_cells_fired_rules():
    rule_cells = 0
    for _, payload, report in report_tables(random.Random(57)):
        assert payload["schema"] == "rulefill-report-v2"
        for cell, entry in zip(report.cells, payload["cells"], strict=True):
            if cell.source == SOURCE_RULES:
                rule_cells += 1
                resolved = [rule_from_dict(payload["rules"][i], {}) for i in entry["provenance"]]
                assert tuple(resolved) == cell.rules
            else:
                assert entry["provenance"] == list(cell.neighbor_ids)
    assert rule_cells > 0


def test_report_rule_table_lists_each_fired_rule_once_in_sort_key_order():
    for _, payload, report in report_tables(random.Random(58)):
        listed = [rule_from_dict(d, {}) for d in payload["rules"]]
        assert set(listed) == {r for c in report.cells for r in c.rules}
        assert len(set(listed)) == len(listed)
        assert listed == sorted(listed, key=AssociationRule.sort_key)


def test_report_rule_table_does_not_depend_on_record_order():
    rng = random.Random(59)
    listed = 0
    for _ in range(20):
        ds, rules, bins, exclude, k = repeated_patterns(rng)
        shuffled_records = list(ds.records)
        rng.shuffle(shuffled_records)
        tables = []
        for table in (ds, Dataset(ds.schema, shuffled_records)):
            _, report = impute_dataset(table, rules, KnnParams(k), bins, exclude)
            tables.append(json.dumps(report.to_dict()["rules"], sort_keys=True))
        assert tables[0] == tables[1]
        listed += tables[0] != "[]"
    assert listed > 0
