"""The registry's reports at seeds 1 and 77 match the committed golden files.

A golden file holds every claim's whole report document, keyed by claim id,
written as sorted JSON and gzipped under ``tests/golden/``.
Strings, booleans, integers and nulls must match exactly. Floats must match to
within GOLDEN_RTOL relative, since solver outputs such as ``soft_residual`` and
``c_fit`` may differ in their last bits between BLAS builds. A mismatch names
the first JSON path that differs.

A change that moves a report regenerates the files in the same commit, with
``PYTHONPATH=src python tests/test_golden.py``, and says which fields moved and why.
Before it rewrites a file, that command prints every path that moved (array
indices collapsed to ``[*]``) with its count and largest relative change.
"""

import gzip
import json
from pathlib import Path

import pytest

from rewardlab import documents
from rewardlab.lab import run_registry

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (1, 77)
GOLDEN_RTOL = 1e-12


def registry_reports(seed: int) -> dict:
    """Every claim's report at ``seed``, as the JSON that is written."""
    return json.loads(documents.dumps({report.claim_id: report.to_doc() for report in run_registry(seed=seed)}))


def first_difference(expected, actual, path="$"):
    """The JSON path of the first place ``actual`` departs from ``expected``, or None."""
    if isinstance(expected, float) and type(actual) is float:
        close = abs(actual - expected) <= GOLDEN_RTOL * max(abs(expected), abs(actual))
        return None if close else f"{path}: {actual!r} != {expected!r}"
    if type(expected) is not type(actual):
        return f"{path}: {type(actual).__name__} {actual!r} != {type(expected).__name__} {expected!r}"
    if isinstance(expected, dict):
        if list(expected) != list(actual):
            missing, extra = sorted(set(expected) - set(actual)), sorted(set(actual) - set(expected))
            return f"{path}: keys missing {missing}, unexpected {extra}"
        items = ((f"{path}.{key}", expected[key], actual[key]) for key in expected)
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(actual)} != {len(expected)}"
        items = ((f"{path}[{i}]", e, a) for i, (e, a) in enumerate(zip(expected, actual)))
    else:
        return None if expected == actual else f"{path}: {actual!r} != {expected!r}"
    return next(filter(None, (first_difference(e, a, p) for p, e, a in items)), None)


def leaf_changes(expected, actual, path="$"):
    """(path with array indices as [*], relative change) for each leaf of ``actual`` that differs.

    The change is None unless both leaves are floats; a dict whose keys differ
    or a list whose length differs counts as one changed leaf.
    """
    if isinstance(expected, float) and type(actual) is float:
        if actual != expected:
            yield path, abs(actual - expected) / max(abs(expected), abs(actual))
    elif type(expected) is not type(actual) or isinstance(expected, (dict, list)) and len(expected) != len(actual):
        yield path, None
    elif isinstance(expected, dict):
        if list(expected) != list(actual):
            yield path, None
        for key in expected:
            if key in actual:
                yield from leaf_changes(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        for e, a in zip(expected, actual):
            yield from leaf_changes(e, a, f"{path}[*]")
    elif expected != actual:
        yield path, None


def golden_path(seed: int) -> Path:
    return GOLDEN / f"registry-seed{seed}.json.gz"


@pytest.mark.parametrize("seed", SEEDS)
def test_registry_matches_golden(seed):
    with gzip.open(golden_path(seed), "rt", encoding="utf-8") as fh:
        expected = json.load(fh)
    difference = first_difference(expected, registry_reports(seed))
    assert difference is None, difference


@pytest.mark.parametrize(
    "expected, actual, path",
    [
        ({"a": [1, 2.0]}, {"a": [1, 2.0 * (1 + 1e-13)]}, None),
        ({"a": [1, 2.0]}, {"a": [1, 2.0 * (1 + 1e-11)]}, "$.a[1]"),
        ({"a": {"b": 1}}, {"a": {"b": 1.0}}, "$.a.b"),
        ({"a": True}, {"a": 1}, "$.a"),
        ({"a": None, "b": "x"}, {"a": None, "b": "y"}, "$.b"),
        ({"a": [1, 2]}, {"a": [1]}, "$.a"),
        ({"a": 1, "b": 2}, {"a": 1, "c": 2}, "$"),
        ({"a": 0.0}, {"a": 1e-300}, "$.a"),
    ],
)
def test_first_difference_names_the_path(expected, actual, path):
    found = first_difference(expected, actual)
    assert (found if found is None else found.split(":")[0]) == path


def test_leaf_changes_collapse_indices_and_name_non_float_moves():
    expected = {"a": [{"x": 1.0, "s": "p"}, {"x": 2.0, "s": "q"}], "n": 3, "l": [1, 2]}
    actual = {"a": [{"x": 1.0, "s": "p"}, {"x": 2.5, "s": "r"}], "n": 3.0, "l": [1]}
    assert sorted(leaf_changes(expected, actual), key=str) == [
        ("$.a[*].s", None), ("$.a[*].x", 0.2), ("$.l", None), ("$.n", None)]
    assert list(leaf_changes({"a": 1}, {"b": 1})) == [("$", None)]


if __name__ == "__main__":
    for seed in SEEDS:
        reports = registry_reports(seed)
        if golden_path(seed).exists():
            with gzip.open(golden_path(seed), "rt", encoding="utf-8") as fh:
                moved = {}
                for path, change in leaf_changes(json.load(fh), reports):
                    moved.setdefault(path, []).append(change)
            for path, changes in sorted(moved.items()):
                largest = "not a float" if None in changes else f"largest relative change {max(changes):.2e}"
                print(f"seed {seed}: {path} moved in {len(changes)} places, {largest}")
        payload = documents.dumps(reports).encode("utf-8")
        with open(golden_path(seed), "wb") as raw, gzip.GzipFile("", "wb", 9, raw, mtime=0) as fh:
            fh.write(payload)
        print(f"wrote {golden_path(seed)} ({len(payload)} bytes before gzip)")
