"""The exact vertex oracle against every ord/jeq verdict on a seeded battery of small MDPs.

The deciders check each verdict against its own certificate or witness; this
sweep is the broad cross-check against the exact oracle, run outside them. It draws
seeded pairs on MDPs with at most 1024 deterministic policies, in five
families: scaled and shaped (ord holds); zero-mean shaped and redistributed
(ord and jeq hold); independent; and the first reward plus noise of size 1e-12
(both hold) or 1e-3 (neither), all then shaped alike by a potential up to 1e6
times the reward. Each pair goes to ``ord_equivalent`` and ``j_equal`` and
to ``oracles.chord_oracle``. It prints the counts and exits 1 on any
disagreement with a decisive oracle, or on any InternalConsistencyError.

    PYTHONPATH=src python tests/oracle_sweep.py            # 3000 pairs
    PYTHONPATH=src python tests/oracle_sweep.py --pairs N

It takes a few seconds; like report_digests.py, it runs as its own CI step,
outside tier-1.
"""

import sys
from collections import Counter

import numpy as np

import oracles
from rewardlab import (Chain, LinearScaling, PotentialFn, PotentialShaping, RewardTable, apply, j_equal,
                       ord_equivalent, sample_potential_shaping, sample_s_redistribution)
from rewardlab.errors import InternalConsistencyError
from rewardlab.lab import random_mdp

SHAPES = [(n, k) for k in (2, 3, 4) for n in range(2, 11) if k**n <= 1024]
FAMILIES = ("scaled", "zero-mean", "independent", "noise-1e-12", "noise-1e-3")
DECIDERS = {"ord": ord_equivalent, "jeq": j_equal}


def battery(pairs: int, seed: int = 38):
    """``pairs`` seeded (family, mdp, r1, r2) draws, cycling through FAMILIES."""
    rng = np.random.default_rng(seed)
    for i in range(pairs):
        family = FAMILIES[i % len(FAMILIES)]
        n, k = SHAPES[int(rng.integers(len(SHAPES)))]
        mdp = random_mdp(n, k, float(rng.choice([0.5, 0.9, 0.99])), seed=int(rng.integers(2**31)))
        r1 = oracles.uniform_reward(mdp, seed=int(rng.integers(2**31)))
        if family == "scaled":
            steps = (LinearScaling(float(rng.uniform(0.2, 5.0))), sample_potential_shaping(mdp, 1.0, False, i))
            r2 = apply(Chain(steps), r1, mdp)
        elif family == "zero-mean":
            shaped = apply(sample_potential_shaping(mdp, 1.0, True, i), r1, mdp)
            r2 = apply(sample_s_redistribution(mdp, shaped, 1.0, i), shaped, mdp)
        elif family == "independent":
            r2 = oracles.uniform_reward(mdp, seed=int(rng.integers(2**31)))
        else:
            size = 1e-12 if family == "noise-1e-12" else 1e-3
            r2 = RewardTable(r1.values + rng.normal(0.0, size, size=r1.values.shape))
        phi = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(0.0, 6.0)
        shaping = PotentialShaping(PotentialFn(phi))
        yield family, mdp, apply(shaping, r1, mdp), apply(shaping, r2, mdp)


def main(argv: list[str]) -> int:
    pairs = int(argv[argv.index("--pairs") + 1]) if "--pairs" in argv else 3000
    counts, failures = Counter(), []
    for family, mdp, r1, r2 in battery(pairs):
        for relation, decider in DECIDERS.items():
            try:
                verdict = decider(r1, r2, mdp).equivalent
            except InternalConsistencyError as exc:
                failures.append(f"{family} {relation} S={mdp.n_states} A={mdp.n_actions}: {exc}")
                continue
            oracle = oracles.chord_oracle(mdp, r1, r2, relation)
            outcome = "silent" if oracle is None else "agree" if oracle == verdict else "disagree"
            counts[relation, verdict, outcome] += 1
            if outcome == "disagree":
                failures.append(f"{family} {relation} S={mdp.n_states} A={mdp.n_actions}: decider {verdict}")
    for (relation, verdict, outcome), count in sorted(counts.items()):
        print(f"{relation} {'accept' if verdict else 'refuse'} {outcome}: {count}")
    for line in failures:
        print(f"FAILED {line}")
    print(f"{pairs} pairs, {2 * pairs} verdicts, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
