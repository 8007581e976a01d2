"""The registry's reports at seeds 1 and 77 match the committed golden files.

A golden file holds every claim's whole report document, keyed by claim id,
written as sorted JSON and gzipped under ``tests/golden/``.
Strings, booleans, integers and nulls must match exactly. Floats must match to
within GOLDEN_RTOL relative, since solver outputs such as ``soft_residual`` and
``c_fit`` may differ in their last bits between BLAS builds. A mismatch names
the first JSON path that differs.

A change that moves a report regenerates the files in the same commit, with
``PYTHONPATH=src python tests/test_golden.py``, and says which fields moved and why.
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


if __name__ == "__main__":
    for seed in SEEDS:
        payload = documents.dumps(registry_reports(seed)).encode("utf-8")
        with open(golden_path(seed), "wb") as raw, gzip.GzipFile("", "wb", 9, raw, mtime=0) as fh:
            fh.write(payload)
        print(f"wrote {golden_path(seed)} ({len(payload)} bytes before gzip)")
