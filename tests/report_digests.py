"""Per-claim sha256 digests of the registry's reports at seeds 1-11.

A claim's digest is the sha256 of its report document written by
``documents.dumps`` (sorted keys) and encoded as UTF-8.
``tests/report_digests.json`` holds the digest of every claim at every seed
in SEEDS. The digests are exact, unlike the golden files' float tolerance, so
a change that moves any bit of any report shows here; a BLAS build that rounds
differently can move them too.

    PYTHONPATH=src python tests/report_digests.py           # recompute and compare (exit 1 on a mismatch)
    PYTHONPATH=src python tests/report_digests.py --write   # regenerate the committed file

The check takes about 15 s, so it runs as its own CI step, outside tier-1.
"""

import hashlib
import json
import sys
from pathlib import Path

from rewardlab import documents
from rewardlab.lab import run_registry

DIGESTS = Path(__file__).with_suffix(".json")
SEEDS = range(1, 12)


def claim_digests(seed: int) -> dict:
    """Each claim's report digest at ``seed``, keyed by claim id in registry order."""
    return {
        report.claim_id: hashlib.sha256(documents.dumps(report.to_doc()).encode("utf-8")).hexdigest()
        for report in run_registry(seed=seed)
    }


def main(argv: list[str]) -> int:
    actual = {str(seed): claim_digests(seed) for seed in SEEDS}
    if argv == ["--write"]:
        DIGESTS.write_text(json.dumps(actual, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {DIGESTS}")
        return 0
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    moved = [
        f"seed {seed} {claim}"
        for seed in sorted(set(expected) | set(actual), key=int)
        for claim in sorted(set(expected.get(seed, {})) | set(actual.get(seed, {})))
        if expected.get(seed, {}).get(claim) != actual.get(seed, {}).get(claim)
    ]
    for line in moved:
        print(f"digest differs: {line}")
    print(f"{sum(map(len, actual.values()))} claim reports checked, {len(moved)} differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
