"""Mining walkthrough: frequent itemsets and rules on a four-record toy table.

Items are (attribute, level) pairs; a record holds one item per known cell.
Mining reads each item's tidset, the bitset of the records holding it
(``Dataset.tidsets``).  Watch the support threshold prune itemsets and the
confidence threshold prune rules.
"""

from rulefill import (
    CATEGORICAL,
    AttributeSchema,
    Dataset,
    MiningParams,
    Record,
    generate_rules,
    mine_frequent,
)

# three attributes of one level each; None marks a record without that item
SCHEMA = [AttributeSchema(name, CATEGORICAL, (name,)) for name in "abc"]
ROWS = [("a", "b", "c"), ("a", "b", None), ("a", None, "c"), (None, "b", "c")]
ds = Dataset(SCHEMA, [Record(i, row) for i, row in enumerate(ROWS)])
A, B, C = (0, 0), (1, 0), (2, 0)
NAMES = {A: "a", B: "b", C: "c"}


def show(itemset):
    return "{" + ",".join(sorted(NAMES[i] for i in itemset)) + "}"


def items_of(record):
    return frozenset((j, 0) for j, cell in enumerate(record.cells) if cell is not None)


print(f"database of {ds.n_records} itemized records:")
for record in ds.records:
    print("   ", show(items_of(record)))

tidsets = ds.tidsets()
print("\ntidsets, record 0 first (1: the record holds the item):")
for item, bits in tidsets.items():
    print(f"    {NAMES[item]}  {format(bits, f'0{ds.n_records}b')[::-1]}")

print("\nsupport counts by direct scan:")
for probe in (frozenset(), frozenset({A}), frozenset({A, B})):
    count = sum(probe <= items_of(record) for record in ds.records)
    print(f"    {show(probe):6s} count={count}")

params = MiningParams(min_support=0.5, min_confidence=0.6)
frequents = mine_frequent(tidsets, ds.n_records, params)
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
