"""JSON document formats: MDPs, rewards, transformations, verdicts.

All loaders re-validate what they read; a file that parses but violates the
model invariants raises ValidationFailure rather than producing a bad object.
Doubles go through Python's shortest round-trip repr, so dump/load cycles are
lossless.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .errors import StructuralError, ValidationFailure
from .mdp import Mdp, RewardTable, validate_mdp
from .transform import (
    Chain,
    ConstantShift,
    LinearScaling,
    OptimalityPreserving,
    PotentialFn,
    PotentialShaping,
    SuccessorRedistribution,
    TransformSpec,
)


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def mdp_to_doc(mdp: Mdp) -> dict:
    doc = {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "gamma": mdp.discount,
        "mu0": mdp.initial.tolist(),
        "transition": mdp.transition.tolist(),
    }
    if mdp.labels is not None:
        doc["labels"] = list(mdp.labels)
    return doc


def _malformed(what: str, exc: Exception) -> StructuralError:
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return StructuralError(f"malformed {what} document: {detail}")


def mdp_from_doc(doc: dict) -> Mdp:
    try:
        mdp = Mdp(
            transition=np.array(doc["transition"], dtype=float),
            initial=np.array(doc["mu0"], dtype=float),
            discount=float(doc["gamma"]),
            labels=tuple(doc["labels"]) if "labels" in doc else None,
        )
        declared = int(doc["n_states"]), int(doc["n_actions"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed("MDP", exc) from exc
    if (mdp.n_states, mdp.n_actions) != declared:
        raise StructuralError("declared n_states/n_actions do not match the transition tensor")
    report = validate_mdp(mdp)
    if not report.ok:
        raise ValidationFailure(
            "MDP document failed validation: "
            + ", ".join(f"{v[0]}@{v[1]}" for v in report.violations),
            report=report,
        )
    return mdp


def reward_to_doc(r: RewardTable) -> dict:
    if r.domain == "sas":
        values = r.values.tolist()
    elif r.domain == "sa":
        values = r.values[:, :, 0].tolist()
    else:
        values = r.values[:, 0, 0].tolist()
    return {"domain": r.domain, "values": values}


def reward_from_doc(doc: dict, n_actions: int | None = None) -> RewardTable:
    try:
        domain = doc.get("domain")
        values = np.array(doc.get("values"), dtype=float)
    except (AttributeError, TypeError, ValueError) as exc:
        raise _malformed("reward", exc) from exc
    if domain == "sas":
        return RewardTable(values, domain="sas")
    if domain == "sa":
        return RewardTable.from_sa(values)
    if domain == "s":
        if n_actions is None:
            raise StructuralError("loading an S-domain reward requires n_actions")
        return RewardTable.from_state(values, n_actions=n_actions)
    raise StructuralError(f"unknown reward domain {domain!r}")


def transform_to_doc(t: TransformSpec) -> dict:
    if isinstance(t, PotentialShaping):
        return {
            "kind": "ps",
            "phi": t.potential.phi.tolist(),
            "zero_initial": t.potential.zero_initial_expectation,
        }
    if isinstance(t, SuccessorRedistribution):
        return {"kind": "sr", "replacement": reward_to_doc(t.replacement)}
    if isinstance(t, LinearScaling):
        return {"kind": "ls", "c": t.c}
    if isinstance(t, ConstantShift):
        return {"kind": "cs", "k": t.k}
    if isinstance(t, OptimalityPreserving):
        return {"kind": "op", "psi": t.psi.tolist(), "slack": t.slack.tolist()}
    if isinstance(t, Chain):
        return {"kind": "seq", "steps": [transform_to_doc(s) for s in t.steps]}
    raise StructuralError(f"unknown transformation {t!r}")


def transform_from_doc(doc: dict) -> TransformSpec:
    try:
        kind = doc.get("kind")
        if kind == "ps":
            return PotentialShaping(
                PotentialFn(np.array(doc["phi"], dtype=float), bool(doc.get("zero_initial", False)))
            )
        if kind == "sr":
            return SuccessorRedistribution(reward_from_doc(doc["replacement"]))
        if kind == "ls":
            return LinearScaling(float(doc["c"]))
        if kind == "cs":
            return ConstantShift(float(doc["k"]))
        if kind == "op":
            return OptimalityPreserving(
                psi=np.array(doc["psi"], dtype=float), slack=np.array(doc["slack"], dtype=float)
            )
        if kind == "seq":
            return Chain(tuple(transform_from_doc(s) for s in doc["steps"]))
    except (AttributeError, KeyError, TypeError) as exc:
        raise _malformed("transformation", exc) from exc
    raise StructuralError(f"unknown transformation kind {kind!r}")


def verdict_to_doc(verdict) -> dict:
    doc = {"equivalent": verdict.equivalent, "relation": verdict.relation}
    if verdict.certificate is not None:
        cert = verdict.certificate
        doc["certificate"] = {
            "c": cert.c,
            "phi": cert.phi.phi.tolist(),
            "residual": cert.residual,
        }
    else:
        doc["certificate"] = None
    doc["witness"] = verdict.witness
    return doc


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_mdp(path) -> Mdp:
    return mdp_from_doc(load_json(path))


def load_reward(path, n_actions: int | None = None) -> RewardTable:
    return reward_from_doc(load_json(path), n_actions=n_actions)


def load_transform(path) -> TransformSpec:
    return transform_from_doc(load_json(path))


def save_doc(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def load_transfer_pair():
    """The committed two-state transfer fixture: (r1, r2, n_states, n_actions)."""
    raw = resources.files("rewardlab.data").joinpath("transfer_pair.json").read_text("utf-8")
    doc = json.loads(raw)
    return (
        reward_from_doc(doc["r1"]),
        reward_from_doc(doc["r2"]),
        int(doc["n_states"]),
        int(doc["n_actions"]),
    )
