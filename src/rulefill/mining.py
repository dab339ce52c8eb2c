"""Frequent-itemset mining and single-consequent association rules.

Levelwise search over a vertical layout (Eclat's tidsets): each item carries
a bitset of the record positions containing it, and each candidate, the
prefix join of two frequent itemsets, is counted exactly by a bitwise AND
plus a popcount.  The bitsets are an internal performance choice; the
published contract is the exact thresholded output in a deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass

Item = tuple[int, int]


@dataclass(frozen=True)
class MiningParams:
    """Support and confidence thresholds as fractions in (0, 1].

    ``min_support_count`` switches the support side to an absolute record
    count; the fractional threshold is ignored while it is set.
    ``max_antecedent_len`` caps rule antecedents (itemsets one longer).
    """

    min_support: float = 0.40
    min_confidence: float = 0.60
    max_antecedent_len: int | None = None
    min_support_count: int | None = None

    def __post_init__(self):
        if not 0.0 < self.min_support <= 1.0:
            raise ValueError(f"min_support must be in (0, 1], got {self.min_support}")
        if not 0.0 < self.min_confidence <= 1.0:
            raise ValueError(f"min_confidence must be in (0, 1], got {self.min_confidence}")
        if self.max_antecedent_len is not None and self.max_antecedent_len < 1:
            raise ValueError("max_antecedent_len must be at least 1 when set")
        if self.min_support_count is not None and self.min_support_count < 1:
            raise ValueError("min_support_count must be at least 1 when set")


@dataclass(frozen=True)
class FrequentItemset:
    itemset: frozenset
    support_count: int
    support: float


@dataclass(frozen=True)
class AssociationRule:
    """antecedent -> consequent with the joint support and the confidence."""

    antecedent: frozenset
    consequent: Item
    support: float
    confidence: float

    def __post_init__(self):
        if self.consequent in self.antecedent:
            raise ValueError("consequent must be disjoint from the antecedent")

    def sort_key(self):
        return (
            self.consequent[0],
            -self.confidence,
            -self.support,
            tuple(sorted(self.antecedent)),
            self.consequent[1],
        )


def _threshold_test(params: MiningParams, n: int):
    if params.min_support_count is not None:
        minimum = params.min_support_count
        return lambda count: count >= minimum
    min_support = params.min_support
    return lambda count: count / n >= min_support


def mine_frequent(db, params: MiningParams) -> list[FrequentItemset]:
    """Every itemset at or above the support threshold, canonically ordered.

    Ordering is by itemset length, then lexicographically on the sorted
    (attribute, level) pairs, so identical inputs give identical output.
    Each level joins, in sorted order, the pairs of frequent itemsets that
    share all but their last item, so the output comes out in that order,
    and counts every candidate exactly.  No subset check is needed: support
    is anti-monotone, so a candidate with an infrequent subset fails the
    threshold itself, and the output stays downward closed (acceptance
    criterion 2 and ``test_downward_closure_on_random_dbs`` check it).
    """
    n = len(db)
    if n == 0:
        raise ValueError("empty itemized database")
    frequent_enough = _threshold_test(params, n)
    max_len = None if params.max_antecedent_len is None else params.max_antecedent_len + 1

    # Vertical layout: per item, the bitset of record positions containing it.
    masks: dict[Item, int] = {}
    for pos, record_items in enumerate(db):
        bit = 1 << pos
        for item in record_items:
            masks[item] = masks.get(item, 0) | bit

    found = []
    level: dict[tuple, int] = {}
    for item in sorted(masks):
        count = masks[item].bit_count()
        if frequent_enough(count):
            level[(item,)] = masks[item]
            found.append(FrequentItemset(frozenset((item,)), count, count / n))

    size = 2
    while level and (max_len is None or size <= max_len):
        keys = sorted(level)
        next_level: dict[tuple, int] = {}
        for a_pos, a in enumerate(keys):
            for b_pos in range(a_pos + 1, len(keys)):
                b = keys[b_pos]
                if a[:-1] != b[:-1]:
                    break  # keys are sorted, so shared prefixes are contiguous
                if a[-1][0] == b[-1][0]:
                    continue  # two levels of one attribute never co-occur
                mask = level[a] & level[b]
                count = mask.bit_count()
                if frequent_enough(count):
                    candidate = a + (b[-1],)
                    next_level[candidate] = mask
                    found.append(FrequentItemset(frozenset(candidate), count, count / n))
        level = next_level
        size += 1
    return found


def generate_rules(frequents, params: MiningParams) -> list[AssociationRule]:
    """Single-consequent rules from frequent itemsets, deterministically ordered.

    For every frequent itemset S with two or more items and every item b in
    S, the rule (S minus b) -> b is emitted when count(S) / count(S minus b)
    clears the confidence threshold.  Output is in ``AssociationRule.sort_key``
    order, the firing order: consequent attribute, confidence descending,
    support descending, antecedent, consequent level.  Rules tied on
    confidence used to be in antecedent order, so rule files list them in a
    new line order.
    """
    counts = {f.itemset: f.support_count for f in frequents}
    rules = []
    for f in frequents:
        if len(f.itemset) < 2:
            continue
        for consequent in f.itemset:
            antecedent = f.itemset - {consequent}
            try:
                antecedent_count = counts[antecedent]
            except KeyError:
                raise ValueError(
                    "frequent itemsets are not downward closed; "
                    "pass the unfiltered output of mine_frequent"
                ) from None
            confidence = f.support_count / antecedent_count
            if confidence >= params.min_confidence:
                rules.append(AssociationRule(antecedent, consequent, f.support, confidence))
    rules.sort(key=AssociationRule.sort_key)
    return rules

