"""Frequent-itemset mining and single-consequent association rules.

Levelwise search over a vertical layout (Eclat's tidsets): each item comes
with a bitset of the record positions holding it, as ``Dataset.tidsets``
builds from ``Dataset.columns``, and each candidate, the prefix join of two
frequent itemsets, is counted exactly by a bitwise AND plus a popcount.  The
published contract is the exact thresholded output in a deterministic order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

# An item is an (attribute index, level-or-bin index) assignment; an itemset
# is a frozenset of items carrying at most one item per attribute.
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
    """antecedent -> consequent with the joint support and the confidence.

    Both strengths are fractions in (0, 1]; anything else, NaN included,
    raises ``ValueError``.
    """

    antecedent: frozenset
    consequent: Item
    support: float
    confidence: float

    def __post_init__(self):
        if self.consequent in self.antecedent:
            raise ValueError("consequent must be disjoint from the antecedent")
        if not (0.0 < self.support <= 1.0 and 0.0 < self.confidence <= 1.0):
            raise ValueError(f"support {self.support} and confidence {self.confidence} "
                             "must be in (0, 1]")

    def sort_key(self):
        return (
            self.consequent[0],
            -self.confidence,
            -self.support,
            tuple(sorted(self.antecedent)),
            self.consequent[1],
        )


def mine_frequent(tidsets, n_records: int, params: MiningParams) -> list[FrequentItemset]:
    """Every itemset at or above the support threshold, canonically ordered.

    ``tidsets`` maps each item to the bitset of the ``n_records`` record
    positions holding it (``Dataset.tidsets``).  Output is ordered by
    itemset length, then lexicographically on the sorted (attribute, level)
    pairs, so identical inputs give identical output: each level joins, in
    sorted order, the pairs of frequent itemsets sharing all but their last
    item, and counts every candidate exactly.  No subset check is needed:
    support is anti-monotone, so a candidate with an infrequent subset fails
    the threshold itself, and the output stays downward closed (acceptance
    criterion 2 and ``test_downward_closure_on_random_dbs`` check it).
    """
    if n_records == 0:
        raise ValueError("no records to mine")
    # The least count that clears the threshold; exact, as c / n never falls as c grows
    minimum = params.min_support_count
    if minimum is None:
        minimum = bisect_left(range(n_records + 1), params.min_support,
                              key=lambda c: c / n_records)
    max_len = None if params.max_antecedent_len is None else params.max_antecedent_len + 1

    found = []
    level: dict[tuple, int] = {}
    for item in sorted(tidsets):
        count = tidsets[item].bit_count()
        if count >= minimum:
            level[(item,)] = tidsets[item]
            found.append(FrequentItemset(frozenset((item,)), count, count / n_records))

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
                if count >= minimum:
                    candidate = a + (b[-1],)
                    next_level[candidate] = mask
                    found.append(FrequentItemset(frozenset(candidate), count, count / n_records))
        level = next_level
        size += 1
    return found


def generate_rules(frequents, params: MiningParams) -> list[AssociationRule]:
    """Single-consequent rules from frequent itemsets, deterministically ordered.

    For every frequent itemset S with two or more items and every item b in
    S, the rule (S minus b) -> b is emitted when count(S) / count(S minus b)
    clears the confidence threshold.  Output is in ``AssociationRule.sort_key``
    order, the firing order: consequent attribute, confidence descending,
    support descending, antecedent, consequent level.
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

