"""Rule-set files: one JSON header line, then one JSON rule per line.

The header records the schema the rules were mined against (plus any numeric
binning and the mining parameters), so a consumer can refuse a mismatched
dataset and can turn bin consequents back into numbers.
"""

from __future__ import annotations

import gc
import json
from dataclasses import asdict, dataclass

from .binning import Bins
from .data import NUMERIC, AttributeSchema, DataError, Dataset
from .mining import AssociationRule, MiningParams

FORMAT = "rulefill-rules-v1"


def rule_to_dict(rule: AssociationRule) -> dict:
    return {
        "antecedent": [list(item) for item in rule.antecedent],
        "consequent": list(rule.consequent),
        "support": rule.support,
        "confidence": rule.confidence,
    }


def rule_from_dict(payload: dict, items: dict) -> AssociationRule:
    """The rule a decoded rule-file record holds.

    ``items`` maps each checked (attribute, level) tuple to itself; one dict
    for a whole file, as ``read_rules`` passes, gives every rule naming an
    item the same tuple for it.  Each strength must be a JSON number.
    """
    support, confidence = payload["support"], payload["confidence"]
    if type(support) not in (int, float) or type(confidence) not in (int, float):
        raise ValueError(f"support {support!r} and confidence {confidence!r} must be numbers")
    return AssociationRule(
        antecedent=[_item(raw, items) for raw in payload["antecedent"]],
        consequent=_item(payload["consequent"], items),
        support=float(support),
        confidence=float(confidence),
    )


def _item(raw, items: dict) -> tuple[int, int]:
    try:
        attribute, level = raw
    except (TypeError, ValueError):
        attribute = level = None
    if type(attribute) is not int or type(level) is not int:
        raise ValueError(f"item {raw!r} is not an [attribute, level] pair")
    item = attribute, level
    return items.setdefault(item, item)


@dataclass
class RuleFile:
    rules: list[AssociationRule]
    schema: list[AttributeSchema]
    class_column: str | None
    bins: dict[int, Bins]
    params: MiningParams | None


def write_rules(path, rules, dataset: Dataset, bins=None,
                params: MiningParams | None = None) -> None:
    header = {
        "format": FORMAT,
        "schema": [
            {"name": a.name, "kind": a.kind, "levels": list(a.levels)}
            for a in dataset.schema
        ],
        "class_column": dataset.class_column,
        "bins": {str(j): asdict(b) for j, b in sorted((bins or {}).items())},
        "params": asdict(params) if params is not None else None,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rule in rules:
            fh.write(json.dumps(rule_to_dict(rule), sort_keys=True) + "\n")


def read_rules(path) -> RuleFile:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise DataError(f"{path}: empty rule file")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: bad rule-file header: {exc}") from None
        if not isinstance(header, dict) or header.get("format") != FORMAT:
            raise DataError(f"{path}: not a {FORMAT} file")
        try:
            rule_file = _rule_file_from_header(header)
        except KeyError as exc:
            raise DataError(f"{path}: rule-file header lacks {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad rule-file header: {exc}") from None
        items = {}  # each distinct item once, shared by every rule that names it
        collecting = gc.isenabled()
        gc.disable()  # the rules hold no cycles, yet building them would set off collections
        try:
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    rule_file.rules.append(rule_from_dict(json.loads(line), items))
                except (KeyError, TypeError, ValueError) as exc:
                    raise DataError(f"{path}: line {lineno}: bad rule record: {exc}") from None
        finally:
            if collecting:
                gc.enable()
    return rule_file


def _rule_file_from_header(header: dict) -> RuleFile:
    schema = [
        AttributeSchema(entry["name"], entry["kind"], tuple(entry["levels"]))
        for entry in header["schema"]
    ]
    bins = {
        int(j): Bins(tuple(spec["edges"]), tuple(spec["representatives"]))
        for j, spec in header.get("bins", {}).items()
    }
    for j in bins:
        if not (0 <= j < len(schema) and schema[j].kind == NUMERIC):
            raise ValueError(f"bins key {j} is not a numeric column of the schema")
    raw_params = header.get("params")
    params = MiningParams(**raw_params) if raw_params else None
    return RuleFile([], schema, header.get("class_column"), bins, params)


def check_compatible(rule_file: RuleFile, dataset: Dataset) -> None:
    """Raise DataError unless the dataset matches the rule file's schema."""
    ours, theirs = dataset.schema, rule_file.schema
    if len(ours) != len(theirs):
        raise DataError(
            f"rule file schema has {len(theirs)} attributes, dataset has {len(ours)}"
        )
    for position, (mine, other) in enumerate(zip(ours, theirs)):
        if mine == other:  # name, kind and levels
            continue
        if (mine.name, mine.kind) == (other.name, other.kind):
            detail = (f"levels of {mine.name!r} differ: "
                      f"expected {other.levels}, found {mine.levels}")
        else:
            detail = (f"expected {other.name!r} ({other.kind}), "
                      f"found {mine.name!r} ({mine.kind})")
        raise DataError(f"rule file schema does not match dataset at column {position}: {detail}")
