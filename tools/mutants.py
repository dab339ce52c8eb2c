"""Run the tier-1 suite against single-edit mutants of the kNN fallback, key table and rule layer.

Each mutant replaces one piece of text in ``src/rulefill/knn.py``, in
``imputer._key_table``, or in the rule layer: rule firing and its schema
check in ``imputer``, mining and rule generation in ``mining``, and rule
records in ``rules_io``.  The script copies the whole checkout into a
temporary directory, checks that the unmutated copy passes, then for each
mutant writes the edit, runs ``pytest`` there and restores the file.  It runs
in a copy because ``pyproject.toml``'s ``pythonpath = ["src"]`` puts the
checkout's own ``src`` ahead of ``PYTHONPATH``, so a mutant outside the tree
pytest runs from would never be imported.

Each run uses ``--hypothesis-seed=0 -p no:cacheprovider`` and deselects
acceptance criterion 6, whose wall-clock outcome varies from run to run, and
the test that checks these mutants' texts, which any mutant fails.  A test
that runs longer than ten seconds fails, so a mutant that makes a loop run
without end is caught, not waited on.  A mutant is caught when any test
fails.  The script prints, per mutant, ``caught`` with the failing tests or
``SURVIVED``, then the count caught.  It exits 1 without running anything
when a mutant's original text does not occur exactly once, so code that
moved shows up as an error, not as a survivor.

Stdlib only, and not collected by pytest.  Run it from anywhere::

    python tools/mutants.py                      # every mutant
    python tools/mutants.py head-width-minus-one # the named ones
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
KNN = "src/rulefill/knn.py"
IMPUTER = "src/rulefill/imputer.py"
MINING = "src/rulefill/mining.py"
RULES_IO = "src/rulefill/rules_io.py"
DESELECTED = [
    "tests/test_acceptance.py::test_criterion_6_hybrid_imputation_no_slower_than_knn",
    "tests/test_cli.py::test_every_mutant_text_occurs_once_in_the_checkout",
]
TEST_TIMEOUT = 10  # seconds


class Mutant(NamedTuple):
    name: str
    path: str
    original: str
    replacement: str


MUTANTS = [
    # kNN set-up
    Mutant("dataset-order-not-id-order", KNN,
           "order = np.argsort(ids)", "order = np.arange(ids.size)"),
    Mutant("lead-run-skipped", KNN,
           "self._lead = len(list(itertools.takewhile(lambda term: not term[1], self._terms)))",
           "self._lead = 0"),
    Mutant("match-counts-uint8", KNN,
           "self._match_dtype = np.min_scalar_type(self._lead)", "self._match_dtype = np.uint8"),
    Mutant("int32-bound-off-by-one", KNN,
           "(len(scales) + 1) * n_records <= np.iinfo", "(len(scales) + 1) * n_records < np.iinfo"),
    Mutant("int32-bound-one-term-short", KNN,
           "(len(scales) + 1) * n_records <= np.iinfo", "len(scales) * n_records <= np.iinfo"),
    # distances
    Mutant("own-record-not-far", KNN,
           "block[np.arange(queries.size), queries] = self._far", "pass"),
    Mutant("rescan-without-holder-mask", KNN,
           "block[~self._present[reach[offset : offset + rows], :-1]] = self._far", "pass"),
    Mutant("missing-query-cell-matches", KNN, "codes[codes == -1] = -2", "pass"),
    Mutant("fmin-keeps-nan", KNN,
           "np.fmin(term, 1.0, out=term)", "np.minimum(term, 1.0, out=term)"),
    Mutant("numeric-term-not-squared", KNN, "term *= term", "np.abs(term, out=term)"),
    Mutant("tail-zero-range-term-dropped", KNN,
           "total += np.not_equal(self._values[j], values[j], out=flags)", "pass"),
    # heads
    Mutant("head-width-minus-one", KNN, "_HEAD_SLACK))", "_HEAD_SLACK) - 1)"),
    Mutant("head-slack-zero", KNN, "_HEAD_SLACK = 8", "_HEAD_SLACK = 0"),
    Mutant("key-head-padding-kept", KNN, "heads[keys == self._far] = n", "pass"),
    Mutant("float-head-past-the-terms", KNN,
           "np.minimum(part[:, width - 1 : width], len(self._terms))",
           "part[:, width - 1 : width]"),
    Mutant("float-tie-to-higher-id", KNN,
           "np.lexsort((block.ravel()[flat], flat // width))",
           "np.lexsort((-flat, block.ravel()[flat], flat // width))"),
    # picks, memory bounds and votes
    Mutant("k-counts-the-owner", KNN,
           "self._known[attributes] - self._present[attributes, owners]",
           "self._known[attributes]"),
    Mutant("pick-one-short", KNN, "holds &= counts <= k[:, None]", "holds &= counts < k[:, None]"),
    Mutant("pick-counts-int8", KNN,
           "dtype=np.min_scalar_type(heads.shape[1])", "dtype=np.int8"),
    Mutant("block-rows-quadrupled", KNN,
           "rows = max(1, _BLOCK_BYTES //", "rows = max(1, 4 * _BLOCK_BYTES //"),
    Mutant("picks-sixteenfold", KNN,
           "picks = max(1, _BLOCK_BYTES //", "picks = max(1, 16 * _BLOCK_BYTES //"),
    Mutant("vote-tie-to-highest-level", KNN,
           "return counts.reshape(-1, n_levels).argmax(axis=1)",
           "return n_levels - 1 - counts.reshape(-1, n_levels)[:, ::-1].argmax(axis=1)"),
    Mutant("mean-overflow-unguarded", KNN, "if math.isfinite(mean):", "if True:"),
    # imputer._key_table
    Mutant("missing-ignores-values", IMPUTER,
           "missing = (codes < 0) & np.isnan(values)", "missing = codes < 0"),
    Mutant("keys-ignore-numeric-cells", IMPUTER,
           "np.ascontiguousarray(values[np.ix_(numeric, lacking)].T)",
           "np.ascontiguousarray(values[np.ix_(numeric, lacking)].T[:, :0])"),
    Mutant("keys-grouped-by-text", IMPUTER,
           "np.unique(encoded.view(np.dtype((np.void, encoded.shape[1]))).ravel(),",
           "np.unique([repr(dataset.records[p].cells) for p in lacking.tolist()],"),
    Mutant("one-key-per-record", IMPUTER,
           "lacking[first[group[rows]]] * width", "lacking[rows] * width"),
    # rule firing and its vote
    Mutant("rules-fire-unsorted", IMPUTER,
           "rules = sorted(rules, key=AssociationRule.sort_key)", "rules = list(rules)"),
    Mutant("rank-by-confidence-alone", IMPUTER,
           "np.diff(fields[:, 2:], axis=0", "np.diff(fields[:, 2:3], axis=0"),
    Mutant("count-tie-to-highest-level", IMPUTER,
           "(count * top + (top - 1 - best))", "(count * span + np.arange(count.size) % span)"),
    Mutant("even-count-takes-upper-middle", IMPUTER,
           "value = low if total % 2 else (low + high) / 2.0",
           "value = low if total % 2 else high"),
    Mutant("median-overflow-unhalved", IMPUTER, "if not math.isfinite(value):", "if False:"),
    # the rules' schema check
    Mutant("attribute-bound-inclusive", IMPUTER,
           "if not 0 <= attribute < dataset.n_attributes:",
           "if not 0 <= attribute <= dataset.n_attributes:"),
    Mutant("bin-bound-unchecked", IMPUTER, "if not 0 <= level < fitted.n_bins:", "if False:"),
    Mutant("items-checked-in-set-order", IMPUTER,
           "for attribute, level in sorted(items):", "for attribute, level in items:"),
    # mining and rule generation
    Mutant("item-support-exclusive", MINING,
           "        if count >= minimum:\n            level",
           "        if count > minimum:\n            level"),
    Mutant("candidate-support-exclusive", MINING,
           "                if count >= minimum:", "                if count > minimum:"),
    Mutant("confidence-exclusive", MINING,
           "if confidence >= params.min_confidence:", "if confidence > params.min_confidence:"),
    Mutant("rules-returned-unsorted", MINING, "rules.sort(key=AssociationRule.sort_key)", "pass"),
    # rule records
    Mutant("bool-strengths-accepted", RULES_IO,
           "if type(support) not in (int, float) or type(confidence) not in (int, float):",
           "if not isinstance(support, (int, float)) or not isinstance(confidence, (int, float)):"),
]


# -- pytest plugin: each test fails once it has run longer than the timeout --

class MutantTimeout(Exception):
    pass


def _expire(signum, frame):
    signal.alarm(1)  # hypothesis calls a failing test again: stop each call too
    raise MutantTimeout("test ran past the mutant timeout")


def pytest_runtest_setup(item):
    signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TEST_TIMEOUT)


def pytest_runtest_teardown(item, nextitem):
    signal.alarm(0)


# -- runner --

def check_texts(root: Path, mutants) -> list[str]:
    """One problem line per mutant whose original text does not occur exactly once."""
    problems = []
    for m in mutants:
        count = (root / m.path).read_text(encoding="utf-8").count(m.original)
        if count != 1:
            problems.append(f"mutant {m.name}: {m.original!r} occurs {count} times in {m.path}")
    return problems


def run_tests(copy: Path) -> list[str] | None:
    """The node ids of the failing tests in ``copy``; None when the whole run timed out."""
    env = dict(os.environ, PYTHONPATH=f"{copy / 'src'}{os.pathsep}{copy / 'tools'}",
               PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider",
               "-p", "mutants", "--hypothesis-seed=0",
               *(arg for test in DESELECTED for arg in ("--deselect", test))]
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=600)
    except subprocess.TimeoutExpired:
        return None
    failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", done.stdout, re.MULTILINE)
    if done.returncode not in (0, 1) or (done.returncode == 1 and not failed):
        raise RuntimeError(f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)

    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    mutants = [by_name[name] for name in args.names] or MUTANTS
    problems = check_texts(ROOT, mutants)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1

    caught = 0
    with tempfile.TemporaryDirectory(prefix="rulefill-mutants-") as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*"))
        failing = run_tests(copy)
        if failing != []:
            print(f"the unmutated checkout fails: {failing or 'timed out'}", file=sys.stderr)
            return 1
        for m in mutants:
            path = copy / m.path
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(m.original, m.replacement), encoding="utf-8")
            try:
                failed = run_tests(copy)
            finally:
                path.write_text(source, encoding="utf-8")
            caught += failed != []
            if failed is None:
                print(f"caught    {m.name}: the whole run timed out", flush=True)
            elif failed:
                print(f"caught    {m.name}: {len(failed)} failed: {' '.join(failed)}", flush=True)
            else:
                print(f"SURVIVED  {m.name}", flush=True)

    print(f"{caught} of {len(mutants)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
