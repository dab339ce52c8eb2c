"""Mining walkthrough: frequent itemsets and rules on a four-record toy table.

Items are (attribute, level) pairs; a record's itemset holds one item per
known cell.  Watch the support threshold prune itemsets and the confidence
threshold prune rules.
"""

from rulefill import MiningParams, generate_rules, mine_frequent

A, B, C = (0, 0), (1, 0), (2, 0)  # one level each of three attributes
DB = [
    frozenset({A, B, C}),
    frozenset({A, B}),
    frozenset({A, C}),
    frozenset({B, C}),
]
NAMES = {A: "a", B: "b", C: "c"}


def show(itemset):
    return "{" + ",".join(sorted(NAMES[i] for i in itemset)) + "}"


print(f"database of {len(DB)} itemized records:")
for items in DB:
    print("   ", show(items))

print("\nsupport counts by direct scan:")
for probe in (frozenset(), frozenset({A}), frozenset({A, B})):
    count = sum(probe <= items for items in DB)  # records containing the probe
    print(f"    {show(probe):6s} count={count}")

params = MiningParams(min_support=0.5, min_confidence=0.6)
frequents = mine_frequent(DB, params)
print(f"\nfrequent itemsets at support >= {params.min_support:.0%}:")
for f in frequents:
    print(f"    {show(f.itemset):10s} count={f.support_count} support={f.support:.2f}")

rules = generate_rules(frequents, params)
print(f"\nrules at confidence >= {params.min_confidence:.0%}:")
for r in rules:
    print(
        f"    {show(r.antecedent):6s} -> {NAMES[r.consequent]}   "
        f"support={r.support:.2f} confidence={r.confidence:.2f}"
    )

strict = MiningParams(min_support=0.5, min_confidence=1.0)
print(f"\nat confidence 100%: {len(generate_rules(frequents, strict))} rules survive")
