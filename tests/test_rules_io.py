import gc
import json
import math
import re

import pytest

from rulefill import (
    AssociationRule,
    AttributeSchema,
    DataError,
    Dataset,
    MiningParams,
    fit_all_bins,
    load_csv,
    mine_rules,
    read_rules,
    write_rules,
)
from rulefill import rules_io
from rulefill.rules_io import check_compatible


def test_rule_file_round_trip(tmp_path, credit_dataset):
    params = MiningParams(0.40, 0.60, min_support_count=60)
    bins = fit_all_bins(credit_dataset, 4)
    rules = mine_rules(credit_dataset, params, bins)
    path = tmp_path / "credit.rules.jsonl"
    write_rules(path, rules, credit_dataset, bins, params)

    loaded = read_rules(path)
    assert loaded.params == params
    assert [(a.name, a.kind, a.levels) for a in loaded.schema] == [
        (a.name, a.kind, a.levels) for a in credit_dataset.schema
    ]
    assert loaded.bins.keys() == bins.keys()
    for j, fitted in bins.items():
        assert loaded.bins[j].edges == fitted.edges
        assert loaded.bins[j].representatives == fitted.representatives
    assert [(r.antecedent, r.consequent, r.support, r.confidence) for r in loaded.rules] == [
        (r.antecedent, r.consequent, r.support, r.confidence) for r in rules
    ]
    check_compatible(loaded, credit_dataset)


def test_header_line_is_json_and_first(tmp_path, car_dataset):
    rules = mine_rules(car_dataset, MiningParams(0.40, 0.60, min_support_count=100))
    path = tmp_path / "car.rules.jsonl"
    write_rules(path, rules, car_dataset, params=MiningParams(0.40, 0.60))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == "rulefill-rules-v1"
    assert len(lines) == 1 + len(rules)
    for line in lines[1:]:
        payload = json.loads(line)
        assert set(payload) == {"antecedent", "consequent", "support", "confidence"}


def test_schema_mismatch_detected(tmp_path, car_dataset, credit_dataset):
    rules = mine_rules(car_dataset, MiningParams(0.40, 0.60))
    path = tmp_path / "car.rules.jsonl"
    write_rules(path, rules, car_dataset)
    loaded = read_rules(path)
    with pytest.raises(DataError, match="attributes"):
        check_compatible(loaded, credit_dataset)
    first = car_dataset.schema[0]
    renamed = Dataset([AttributeSchema("cost", first.kind, first.levels), *car_dataset.schema[1:]],
                      car_dataset.records, car_dataset.class_column)
    detail = f"column 0: expected {first.name!r} ({first.kind}), found 'cost' ({first.kind})"
    with pytest.raises(DataError, match=re.escape(detail)):
        check_compatible(loaded, renamed)


def test_bad_files_rejected(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(DataError):
        read_rules(empty)
    wrong = tmp_path / "wrong.jsonl"
    wrong.write_text('{"format": "something-else"}\n')
    with pytest.raises(DataError):
        read_rules(wrong)
    broken = tmp_path / "broken.jsonl"
    broken.write_text(
        '{"format": "rulefill-rules-v1", "schema": [], "bins": {}, "params": null}\n'
        "not json\n"
    )
    with pytest.raises(DataError, match="line 2"):
        read_rules(broken)

    good = {"format": "rulefill-rules-v1", "schema": [], "bins": {}, "params": None}
    mixed = {**good, "schema": [{"name": "x", "kind": "numeric", "levels": []},
                                {"name": "c", "kind": "categorical", "levels": ["a"]}]}
    spec = {"edges": [0.0, 1.0], "representatives": [0.5]}
    fine = tmp_path / "fine.jsonl"
    fine.write_text(json.dumps({**mixed, "bins": {"0": spec}}) + "\n")
    assert list(read_rules(fine).bins) == [0]
    bad_headers = [
        {"format": "rulefill-rules-v1", "bins": {}, "params": None},  # no schema
        {**good, "params": {"min_support": 0.4, "bogus": 1}},         # unknown param
        {**good, "params": {"min_support": 7.0}},                     # param out of range
        {**good, "schema": [{"name": "a", "kind": "mystery", "levels": []}]},
        {**good, "bins": {"0": {"edges": [1.0]}}},                    # no representatives
        {**good, "bins": []},
        {**good, "schema": 3},
        ["rulefill-rules-v1"],                                        # not an object
        {**good, "schema": [{"name": "a", "kind": "categorical", "levels": ["x", "x"]}]},
        {**good, "schema": [{"name": "a", "kind": "numeric", "levels": ["x"]}]},
        {**good, "bins": {"0": {"edges": [1.0], "representatives": []}}},
        {**good, "bins": {"0": {"edges": [2.0, 1.0], "representatives": [1.5]}}},
        {**good, "bins": {"0": {"edges": [0.0, 1.0], "representatives": [2.0]}}},
        {**good, "bins": {"0": {"edges": [0.0, math.inf], "representatives": [1.0]}}},
        {**mixed, "bins": {"99": spec}},                              # no such column
        {**mixed, "bins": {"-1": spec}},
        {**mixed, "bins": {"1": spec}},                               # a categorical column
    ]
    for header in bad_headers:
        bad = tmp_path / "bad_header.jsonl"
        bad.write_text(json.dumps(header) + "\n")
        with pytest.raises(DataError, match="bad_header.jsonl"):
            read_rules(bad)
    bad_records = [
        {"antecedent": [], "consequent": [1], "support": 0.5, "confidence": 0.9},
        {"antecedent": [[0, 1, 2]], "consequent": [1, 0], "support": 0.5, "confidence": 0.9},
        {"antecedent": [0], "consequent": [1, 0], "support": 0.5, "confidence": 0.9},
        {"antecedent": [], "consequent": ["a", 0], "support": 0.5, "confidence": 0.9},
        [[], [1, 0], 0.5, 0.9],
        {"antecedent": [], "consequent": [1, 0], "support": "high", "confidence": 0.9},
        {"antecedent": [], "consequent": [1, 0], "support": 0.5, "confidence": None},
        {"antecedent": [], "consequent": [1, 0], "support": math.nan, "confidence": 0.9},
        {"antecedent": [], "consequent": [1, 0], "support": 0.5, "confidence": math.nan},
        {"antecedent": [], "consequent": [1, 0], "support": 0, "confidence": 0.9},
        {"antecedent": [], "consequent": [1, 0], "support": 0.5, "confidence": 0.0},
        {"antecedent": [], "consequent": [1, 0], "support": 0.5, "confidence": 1.5},
        {"antecedent": [], "consequent": [1, 0], "support": -math.inf, "confidence": 0.9},
        {"antecedent": [], "consequent": [1, 0], "support": True, "confidence": 0.9},
        {"antecedent": [], "consequent": [1, 0], "support": 0.5, "confidence": "1"},
    ]
    for record in bad_records:
        bad = tmp_path / "bad_rule.jsonl"
        bad.write_text(json.dumps(good) + "\n\n" + json.dumps(record) + "\n")
        with pytest.raises(DataError, match="bad_rule.jsonl: line 3"):
            read_rules(bad)


def test_out_of_order_and_repeated_antecedent_items_read_back_canonical(tmp_path, car_dataset):
    path = tmp_path / "hand.rules.jsonl"
    write_rules(path, [], car_dataset)
    header = path.read_text()
    path.write_text(header + (
        '{"antecedent": [[3, 2], [0, 1], [3, 2]], "consequent": [6, 0], '
        '"support": 0.25, "confidence": 0.75}\n'))
    (loaded,) = read_rules(path).rules
    assert loaded == AssociationRule([(0, 1), (3, 2)], (6, 0), 0.25, 0.75)
    assert loaded.antecedent == ((0, 1), (3, 2))
    write_rules(path, [loaded], car_dataset)
    assert path.read_text() == header + (
        '{"antecedent": [[0, 1], [3, 2]], "confidence": 0.75, "consequent": [6, 0], '
        '"support": 0.25}\n')


def test_header_that_is_not_json_is_rejected(tmp_path):
    bad = tmp_path / "bad_header.jsonl"
    bad.write_text('{"format": "rulefill-rules-v1",\n')
    with pytest.raises(DataError, match="bad_header.jsonl: bad rule-file header"):
        read_rules(bad)


@pytest.mark.parametrize("enabled", [True, False])
def test_read_rules_pauses_the_collector_and_leaves_it_as_found(tmp_path, car_dataset,
                                                                 monkeypatch, enabled):
    rules = mine_rules(car_dataset, MiningParams(min_support_count=100))
    good = tmp_path / "car.rules.jsonl"
    write_rules(good, rules, car_dataset)
    bad = tmp_path / "bad.rules.jsonl"
    bad.write_text(good.read_text() + "not json\n")

    seen = []
    rule_from_dict = rules_io.rule_from_dict

    def spy(payload, items):
        seen.append(gc.isenabled())
        return rule_from_dict(payload, items)

    monkeypatch.setattr(rules_io, "rule_from_dict", spy)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(read_rules(good).rules) == len(rules) > 0
        assert gc.isenabled() is enabled
        with pytest.raises(DataError, match=f"line {len(rules) + 2}: bad rule record"):
            read_rules(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen and not any(seen)
