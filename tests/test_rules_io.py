import json

import pytest

from rulefill import (
    DataError,
    MiningParams,
    check_compatible,
    fit_all_bins,
    load_csv,
    mine_rules,
    read_rules,
    write_rules,
)


def test_rule_file_round_trip(tmp_path, credit_dataset):
    params = MiningParams(0.40, 0.60, min_support_count=60)
    bins = fit_all_bins(credit_dataset, 4)
    rules = mine_rules(credit_dataset, params, bins)
    path = tmp_path / "credit.rules.jsonl"
    write_rules(path, rules, credit_dataset, bins, params)

    loaded = read_rules(path)
    assert loaded.params == params
    assert loaded.class_column == credit_dataset.class_column
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
    bad_headers = [
        {"format": "rulefill-rules-v1", "bins": {}, "params": None},  # no schema
        {**good, "params": {"min_support": 0.4, "bogus": 1}},         # unknown param
        {**good, "params": {"min_support": 7.0}},                     # param out of range
        {**good, "schema": [{"name": "a", "kind": "mystery", "levels": []}]},
        {**good, "bins": {"0": {"edges": [1.0]}}},                    # no representatives
        {**good, "bins": []},
        {**good, "schema": 3},
        ["rulefill-rules-v1"],                                        # not an object
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
    ]
    for record in bad_records:
        bad = tmp_path / "bad_rule.jsonl"
        bad.write_text(json.dumps(good) + "\n\n" + json.dumps(record) + "\n")
        with pytest.raises(DataError, match="bad_rule.jsonl: line 3"):
            read_rules(bad)
