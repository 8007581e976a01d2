"""JSON document formats: MDPs, rewards, transformations, verdicts.

All loaders re-validate what they read; a file that parses but violates the
model invariants raises ValidationFailure rather than producing a bad object.
The file loaders (``load_*``) prefix the document's path to a decoding error,
a document nested too deeply, a malformed document or a reward off its MDP's
grid, all raised as StructuralError. Rewards are read in the compact "sa" and
"s" formats too, and always written as full "sas" tensors.
Doubles go through Python's shortest round-trip repr, so dump/load cycles are
lossless.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import StructuralError, ValidationFailure
from .mdp import Mdp, RewardTable, validate_mdp
from .transform import (
    Chain,
    LinearScaling,
    OptimalityPreserving,
    PotentialFn,
    PotentialShaping,
    SuccessorRedistribution,
    TransformSpec,
)


def dumps(doc) -> str:
    """The document as JSON; raises ValueError rather than print NaN or Infinity, which are not JSON."""
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("a result is NaN or beyond float64's range, which JSON cannot hold") from None


def mdp_to_doc(mdp: Mdp) -> dict:
    return {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "gamma": mdp.discount,
        "mu0": mdp.initial.tolist(),
        "transition": mdp.transition.tolist(),
    }


def _malformed(what: str, exc: Exception) -> StructuralError:
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return StructuralError(f"malformed {what} document: {detail}")


def _numbers(value, field: str, scalar: bool = False):
    """``value`` as float64 (a float if ``scalar``); TypeError unless every entry is a JSON number, not a
    string or a boolean, which numpy would read as numbers."""
    entries = np.array(value, dtype=object)
    if not set(map(type, entries.flat)) <= {int, float} or scalar and entries.ndim:
        raise TypeError(f"{field} must {'be a JSON number' if scalar else 'hold JSON numbers only'}")
    return float(entries) if scalar else entries.astype(float)


def mdp_from_doc(doc: dict) -> Mdp:
    try:
        mdp = Mdp(transition=_numbers(doc["transition"], "transition"), initial=_numbers(doc["mu0"], "mu0"),
                  discount=_numbers(doc["gamma"], "gamma", scalar=True))
        declared = doc["n_states"], doc["n_actions"]
        if any(type(d) is not int for d in declared):  # a JSON integer; true and 2.0 are not
            raise TypeError(f"n_states and n_actions must be integers, got {declared}")
    except (KeyError, OverflowError, TypeError, ValueError) as exc:  # OverflowError: an integer beyond float64
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
    return {"domain": "sas", "values": r.values.tolist()}


def reward_from_doc(doc: dict, n_actions: int | None = None) -> RewardTable:
    """The reward ``doc`` describes: a full "sas" tensor, an (S, A) "sa" table or an (S,) "s" vector."""
    try:
        domain = doc.get("domain")
        values = _numbers(doc.get("values"), "values")
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise _malformed("reward", exc) from exc
    if domain == "sas":
        return RewardTable(values)
    if domain == "sa":
        return RewardTable.from_sa(values)
    if domain == "s":
        if n_actions is None:
            raise StructuralError("loading an S-domain reward requires n_actions")
        return RewardTable.from_state(values, n_actions=n_actions)
    raise StructuralError(f"unknown reward domain {domain!r}")


def transform_from_doc(doc: dict, n_actions: int | None = None) -> TransformSpec:
    """The spec ``doc`` describes; ``n_actions`` is needed to read an S-domain replacement reward.

    A ``ps`` step may carry a ``zero_initial`` key, which is ignored.
    """
    try:
        kind = doc.get("kind")
        if kind == "ps":
            return PotentialShaping(PotentialFn(_numbers(doc["phi"], "phi")))
        if kind == "sr":
            return SuccessorRedistribution(reward_from_doc(doc["replacement"], n_actions))
        if kind == "ls":
            return LinearScaling(_numbers(doc["c"], "c", scalar=True))
        if kind == "op":
            return OptimalityPreserving(psi=_numbers(doc["psi"], "psi"), slack=_numbers(doc["slack"], "slack"))
        if kind == "seq":
            return Chain(tuple(transform_from_doc(s, n_actions) for s in doc["steps"]))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
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


def _load(path, from_doc):
    """``from_doc`` of the JSON document at ``path``; a decoding or structural error names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return from_doc(json.load(fh))
    except (UnicodeDecodeError, json.JSONDecodeError, StructuralError) as exc:
        raise StructuralError(f"{path}: {exc}") from exc
    except RecursionError:
        raise StructuralError(f"{path}: document nested too deeply") from None


def load_mdp(path) -> Mdp:
    return _load(path, mdp_from_doc)


def load_reward(path, mdp: Mdp) -> RewardTable:
    def from_doc(doc):
        r = reward_from_doc(doc, n_actions=mdp.n_actions)
        mdp.check_reward(r)
        return r
    return _load(path, from_doc)


def load_transform(path, mdp: Mdp) -> TransformSpec:
    return _load(path, lambda doc: transform_from_doc(doc, mdp.n_actions))


def save_doc(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
