"""Independent reference implementations the library is checked against.

Everything here is deliberately naive: exhaustive enumeration, direct scans
and plain sorts, written separately from the library code paths.
"""

import math
from bisect import bisect_right
from itertools import combinations

from rulefill.data import CATEGORICAL, NUMERIC, AttributeSchema, Dataset, Record


def support_count(itemset, db) -> int:
    """Number of records whose itemset contains ``itemset`` (direct scan)."""
    target = frozenset(itemset)
    return sum(1 for record_items in db if target <= record_items)


def threshold_ok(count, n, params):
    if params.min_support_count is not None:
        return count >= params.min_support_count
    return count / n >= params.min_support


def tidsets_of(db):
    """An item-list database as ``mine_frequent`` takes it: (per-item bitsets
    of the record positions holding the item, record count)."""
    bitsets = {}
    for position, record_items in enumerate(db):
        for item in record_items:
            bitsets[item] = bitsets.get(item, 0) | 1 << position
    return bitsets, len(db)


def brute_force_frequent(db, params):
    """Enumerate every valid itemset and count it by direct subset scan.

    Returns [(itemset, count, support)] in (length, sorted items) order.
    """
    n = len(db)
    items = sorted({item for record in db for item in record})
    cap = None if params.max_antecedent_len is None else params.max_antecedent_len + 1
    found = []
    for size in range(1, len(items) + 1):
        if cap is not None and size > cap:
            break
        hits = 0
        for combo in combinations(items, size):
            if len({attribute for attribute, _ in combo}) != size:
                continue  # two levels of one attribute is not an itemset
            count = sum(1 for record in db if set(combo) <= record)
            if threshold_ok(count, n, params):
                found.append((frozenset(combo), count, count / n))
                hits += 1
        if hits == 0:
            break  # downward closure: nothing longer can be frequent
    found.sort(key=lambda f: (len(f[0]), tuple(sorted(f[0]))))
    return found


def brute_force_rules(db, params):
    """All single-consequent rules from the brute-force frequent itemsets.

    Returns [(antecedent, consequent, support, confidence)] in the same
    order contract as the library: consequent attribute, confidence
    descending, support descending, antecedent, consequent level.
    """
    frequents = brute_force_frequent(db, params)
    counts = {itemset: count for itemset, count, _ in frequents}
    rules = []
    for itemset, count, support in frequents:
        if len(itemset) < 2:
            continue
        for consequent in itemset:
            antecedent = itemset - {consequent}
            confidence = count / counts[antecedent]
            if confidence >= params.min_confidence:
                rules.append((antecedent, consequent, support, confidence))
    rules.sort(key=lambda r: (r[1][0], -r[3], -r[2], tuple(sorted(r[0])), r[1][1]))
    return rules


def as_sorted_tuples(rows):
    """Oracle rows with each leading itemset as the library holds one: a sorted tuple."""
    return [(tuple(sorted(itemset)), *rest) for itemset, *rest in rows]


def oracle_fired(rules, known, attribute):
    """Rules aimed at ``attribute`` whose antecedent lies within ``known``,
    ordered confidence descending, support descending, sorted antecedent,
    consequent level.  A plain filter and one sort with a spelled-out key."""
    fired = [r for r in rules if r.consequent[0] == attribute and known.issuperset(r.antecedent)]
    fired.sort(
        key=lambda r: (-r.confidence, -r.support, sorted(r.antecedent), r.consequent[1])
    )
    return tuple(fired)


def fired_rules(report, cell):
    """A cell's fired rules: its positions resolved through ``report.rules``."""
    return tuple(report.rules[i] for i in cell.rules)


def oracle_key_table(dataset):
    """impute_dataset's key table, record by record: records with the same
    cells' text form a group, numbered by first appearance, and each (group,
    missing attribute) is a key, group by group and attributes ascending.
    Returns (key_firsts, key_attrs, record_ids, key_index): per key, its
    group's first position and its attribute; per missing cell, in record
    order, its record's id and its key.  On tables where equal values have
    equal text, grouping by text and by encoded value agree."""
    group_of, starts, key_firsts, key_attrs, record_ids, key_index = {}, [0], [], [], [], []
    for position, record in enumerate(dataset.records):
        if None not in record.cells:
            continue
        g = group_of.setdefault(record.cells, len(starts) - 1)
        if g == len(starts) - 1:
            lacking = [j for j, cell in enumerate(record.cells) if cell is None]
            key_attrs += lacking
            key_firsts += [position] * len(lacking)
            starts.append(len(key_attrs))
        record_ids += [record.id] * (starts[g + 1] - starts[g])
        key_index += range(starts[g], starts[g + 1])
    return key_firsts, key_attrs, record_ids, key_index


def present_values(dataset, attribute):
    """The attribute's present cells, in record order."""
    return [r.cells[attribute] for r in dataset.records if r.cells[attribute] is not None]


def oracle_itemize(dataset, record, bins=None, exclude=()):
    """One record's items, cell by cell: (attribute, level index or bin).

    A number's bin has edges[i] <= v < edges[i+1], the last bin closed on
    the right, and out-of-range numbers clamp to the first or last bin.
    """
    items = set()
    for j, (attr, cell) in enumerate(zip(dataset.schema, record.cells)):
        if j in exclude or cell is None:
            continue
        if attr.kind == CATEGORICAL:
            items.add((j, attr.levels.index(cell)))
            continue
        edges, value = bins[j].edges, float(cell)
        if value >= edges[-1]:
            items.add((j, len(edges) - 2))
        elif value <= edges[0]:
            items.add((j, 0))
        else:
            items.add((j, bisect_right(edges, value) - 1))
    return frozenset(items)


def oracle_heom(a, b, schema, ranges, exclude=()):
    """Straight per-term HEOM loop."""
    total = 0.0
    for j, attr in enumerate(schema):
        if j in exclude:
            continue
        va, vb = a.cells[j], b.cells[j]
        if va is None or vb is None:
            term = 1.0
        elif attr.kind == NUMERIC:
            x, y = float(va), float(vb)
            spread = ranges.get(j, 0.0)
            if spread > 0.0:
                term = abs(x - y) / spread
            else:
                term = 0.0 if x == y else 1.0
        else:
            term = 0.0 if va == vb else 1.0
        total += term * term
    return math.sqrt(total)


def oracle_ranges(dataset, exclude=()):
    ranges = {}
    for j, attr in enumerate(dataset.schema):
        if attr.kind != NUMERIC or j in exclude:
            continue
        values = [float(v) for v in present_values(dataset, j)]
        ranges[j] = (max(values) - min(values)) if values else 0.0
    return ranges


def oracle_neighbors(dataset, record, attribute, k, exclude=()):
    """Exhaustive sort: k nearest other records with a present target value."""
    ranges = oracle_ranges(dataset, exclude)
    scored = [
        (oracle_heom(record, other, dataset.schema, ranges, exclude), other.id)
        for other in dataset.records
        if other.id != record.id and other.cells[attribute] is not None
    ]
    scored.sort()
    return [record_id for _, record_id in scored[:k]]


def oracle_knn_value(dataset, record, attribute, k, exclude=()):
    """Majority vote (tie: smallest level index) or mean over the neighbors."""
    neighbor_ids = oracle_neighbors(dataset, record, attribute, k, exclude)
    attr = dataset.schema[attribute]
    if not neighbor_ids:
        values = present_values(dataset, attribute)
        if not values:
            raise ValueError("no known value anywhere")
        if attr.kind == NUMERIC:
            numbers = [float(v) for v in values]
            return sum(numbers) / len(numbers)
        votes = {}
        for v in values:
            votes[attr.levels.index(v)] = votes.get(attr.levels.index(v), 0) + 1
        return attr.levels[min(votes, key=lambda i: (-votes[i], i))]
    values = [dataset.record_by_id(i).cells[attribute] for i in neighbor_ids]
    if attr.kind == NUMERIC:
        numbers = [float(v) for v in values]
        return sum(numbers) / len(numbers)
    votes = {}
    for v in values:
        index = attr.levels.index(v)
        votes[index] = votes.get(index, 0) + 1
    return attr.levels[min(votes, key=lambda i: (-votes[i], i))]


def impute_from_rules(fired, attribute_schema, bins=None):
    """Value for a cell from its fired rules.

    Categorical: mode of the consequent levels; a count tie goes to the
    level whose best backing rule has the highest confidence, then support,
    then the lowest level index.  Numeric: median of the consequent bins'
    representative values (even count: mean of the two middle ones).
    """
    if not fired:
        raise ValueError("no fired rules; the caller must fall back to knn")
    if attribute_schema.kind == NUMERIC:
        if bins is None:
            raise ValueError("numeric rule imputation needs the fitted bins")
        reps = sorted(bins.representatives[r.consequent[1]] for r in fired)
        m = len(reps)
        if m % 2:
            return reps[m // 2]
        low, high = reps[m // 2 - 1], reps[m // 2]
        median = (low + high) / 2.0
        # halve first only when the sum overflows, so finite results keep their bits
        return median if math.isfinite(median) else low / 2.0 + high / 2.0

    stats = {}
    for r in fired:
        level = r.consequent[1]
        count, best = stats.get(level, (0, (-1.0, -1.0)))
        stats[level] = (count + 1, max(best, (r.confidence, r.support)))
    winner = min(
        stats,
        key=lambda lvl: (-stats[lvl][0], -stats[lvl][1][0], -stats[lvl][1][1], lvl),
    )
    return attribute_schema.levels[winner]


# -- random test-data generators -------------------------------------------


def random_itemized_db(rng, max_attrs=4, max_levels=3, max_records=40):
    """A random itemized database over at most max_attrs*max_levels items."""
    n_attrs = rng.randint(2, max_attrs)
    levels = [rng.randint(2, max_levels) for _ in range(n_attrs)]
    n_records = rng.randint(1, max_records)
    db = []
    for _ in range(n_records):
        items = set()
        for attribute in range(n_attrs):
            if rng.random() < 0.8:
                items.add((attribute, rng.randrange(levels[attribute])))
        db.append(frozenset(items))
    return db


def random_dataset(rng, max_records=200, allow_numeric=True, missing_rate=0.15):
    """A random mixed-type dataset with sprinkled missing cells."""
    n_attrs = rng.randint(2, 5)
    schema = []
    for j in range(n_attrs):
        numeric = allow_numeric and rng.random() < 0.4
        if numeric:
            schema.append(AttributeSchema(f"n{j}", NUMERIC))
        else:
            n_levels = rng.randint(2, 4)
            schema.append(
                AttributeSchema(f"c{j}", CATEGORICAL,
                                tuple(f"v{i}" for i in range(n_levels)))
            )
    n_records = rng.randint(3, max_records)
    records = []
    for i in range(n_records):
        cells = []
        for attr in schema:
            if rng.random() < missing_rate:
                cells.append(None)
            elif attr.kind == NUMERIC:
                cells.append(f"{rng.uniform(-10, 10):.6f}")
            else:
                cells.append(rng.choice(attr.levels))
        records.append(Record(i, tuple(cells)))
    return Dataset(schema, records)
