import json

import numpy as np
import pytest

from rewardlab import (
    Chain,
    LinearScaling,
    OptimalityPreserving,
    PotentialFn,
    PotentialShaping,
    RewardTable,
    SuccessorRedistribution,
    j_equal,
    opt_equivalent,
)
from rewardlab import documents
from rewardlab.errors import StructuralError, ValidationFailure
from rewardlab.lab import random_mdp


class TestMdpDocuments:
    def test_round_trip(self, chain):
        doc = documents.mdp_to_doc(chain)
        back = documents.mdp_from_doc(doc)
        assert np.array_equal(back.transition, chain.transition)
        assert np.array_equal(back.initial, chain.initial)
        assert back.discount == chain.discount

    @pytest.mark.parametrize(
        "labels",
        [["a", "b", "c"], ["a"], "abc", [1, None, {}]],
        ids=["one-per-state", "one-for-three-states", "string", "not-strings"],
    )
    def test_labels_key_ignored(self, labels):
        """A "labels" key, like any key the loader does not read, changes nothing, and none is written."""
        mdp = random_mdp(3, 2, 0.8, seed=1)
        doc = documents.mdp_to_doc(mdp)
        back = documents.mdp_from_doc(json.loads(json.dumps({**doc, "labels": labels})))
        assert np.array_equal(back.transition, mdp.transition)
        assert np.array_equal(back.initial, mdp.initial)
        assert back.discount == mdp.discount
        assert "labels" not in documents.mdp_to_doc(back)

    def test_loader_revalidates(self, chain):
        doc = documents.mdp_to_doc(chain)
        doc["transition"][0][0] = [0.5, 0.4]
        with pytest.raises(ValidationFailure) as err:
            documents.mdp_from_doc(doc)
        assert "row-sum" in err.value.report.rule_ids()

    def test_malformed_is_structural(self):
        with pytest.raises(StructuralError):
            documents.mdp_from_doc({"n_states": 2})
        with pytest.raises(StructuralError):
            documents.mdp_from_doc(
                {
                    "n_states": 3,  # declared size disagrees with the tensor
                    "n_actions": 2,
                    "gamma": 0.5,
                    "mu0": [1.0, 0.0],
                    "transition": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]],
                }
            )

    def test_file_round_trip(self, tmp_path, chain):
        path = tmp_path / "mdp.json"
        documents.save_doc(documents.mdp_to_doc(chain), path)
        assert np.array_equal(documents.load_mdp(path).transition, chain.transition)


class TestRewardDocuments:
    def test_sas_round_trip(self, chain_reward):
        back = documents.reward_from_doc(documents.reward_to_doc(chain_reward))
        assert np.array_equal(back.values, chain_reward.values)
        assert documents.reward_to_doc(back) == documents.reward_to_doc(chain_reward)

    def test_sa_round_trip_compact(self):
        # a compact "sa" document is read broadcast over s' and written back in full
        back = documents.reward_from_doc({"domain": "sa", "values": [[1.0, -0.5], [0.0, 2.0]]})
        assert np.array_equal(back.values, RewardTable.from_sa([[1.0, -0.5], [0.0, 2.0]]).values)
        doc = documents.reward_to_doc(back)
        assert doc["domain"] == "sas" and np.array(doc["values"]).shape == (2, 2, 2)

    def test_state_domain_needs_n_actions(self):
        doc = {"domain": "s", "values": [1.0, 2.0]}
        with pytest.raises(StructuralError):
            documents.reward_from_doc(doc)
        back = documents.reward_from_doc(doc, n_actions=3)
        assert np.array_equal(back.values, RewardTable.from_state([1.0, 2.0], n_actions=3).values)
        out = documents.reward_to_doc(back)
        assert out["domain"] == "sas" and np.array(out["values"]).shape == (2, 3, 2)

    def test_unknown_domain(self):
        with pytest.raises(StructuralError):
            documents.reward_from_doc({"domain": "saq", "values": []})


class TestTransformDocuments:
    def test_all_kinds_round_trip(self, chain_reward):
        """Each kind read from a JSON document carries its fields; ``seq`` keeps its steps in order."""
        docs = {
            "ps": {"kind": "ps", "phi": [0.1, -0.2]},
            "sr": {"kind": "sr", "replacement": {"domain": "sas", "values": chain_reward.values.tolist()}},
            "ls": {"kind": "ls", "c": 2.5},
            "op": {"kind": "op", "psi": [1.0, 0.0], "slack": [[-1.0, -1.0], [-1.0, -1.0]]},
        }
        read = {kind: documents.transform_from_doc(json.loads(json.dumps(doc))) for kind, doc in docs.items()}
        assert isinstance(read["ps"], PotentialShaping)
        assert np.array_equal(read["ps"].potential.phi, [0.1, -0.2])
        assert isinstance(read["sr"], SuccessorRedistribution)
        assert np.array_equal(read["sr"].replacement.values, chain_reward.values)
        assert isinstance(read["ls"], LinearScaling) and read["ls"].c == 2.5
        assert isinstance(read["op"], OptimalityPreserving)
        assert np.array_equal(read["op"].psi, [1.0, 0.0]) and np.array_equal(read["op"].slack, -np.ones((2, 2)))
        seq = documents.transform_from_doc({"kind": "seq", "steps": [docs["ls"], docs["ps"], docs["op"]]})
        assert isinstance(seq, Chain)
        assert [type(step) for step in seq.steps] == [LinearScaling, PotentialShaping, OptimalityPreserving]
        assert seq.steps[0].c == 2.5 and np.array_equal(seq.steps[2].psi, [1.0, 0.0])

    def test_constant_shift_kind_unknown(self):
        with pytest.raises(StructuralError, match="unknown transformation kind 'cs'"):
            documents.transform_from_doc({"kind": "cs", "k": 1.0})

    def test_ps_zero_initial_key_ignored(self):
        doc = {"kind": "ps", "phi": [0.1, -0.2], "zero_initial": True}
        back = documents.transform_from_doc(doc)
        assert isinstance(back, PotentialShaping)
        assert np.array_equal(back.potential.phi, [0.1, -0.2])

    def test_s_domain_redistribution_round_trip(self):
        """An "s"-domain replacement is read as its (S, A, S') broadcast, also inside a ``seq``."""
        doc = {"kind": "sr", "replacement": {"domain": "s", "values": [1.0, 2.0]}}
        full = RewardTable.from_state([1.0, 2.0], n_actions=2).values
        assert np.array_equal(documents.transform_from_doc(doc, n_actions=2).replacement.values, full)
        seq = documents.transform_from_doc({"kind": "seq", "steps": [doc]}, n_actions=2)
        assert np.array_equal(seq.steps[0].replacement.values, full)

    def test_load_transform_reads_s_domain_replacement(self, tmp_path, chain):
        path = tmp_path / "spec.json"
        documents.save_doc({"kind": "sr", "replacement": {"domain": "s", "values": [1.0, 2.0]}}, path)
        back = documents.load_transform(path, chain)
        assert np.array_equal(back.replacement.values, RewardTable.from_state([1.0, 2.0], n_actions=2).values)

    def test_unknown_kind(self):
        with pytest.raises(StructuralError):
            documents.transform_from_doc({"kind": "warp"})


class TestVerdictDocuments:
    def test_equivalent_with_certificate(self, chain, chain_reward):
        verdict = j_equal(chain_reward, chain_reward, chain)
        doc = documents.verdict_to_doc(verdict)
        assert doc["equivalent"] and doc["relation"] == "jeq"
        assert doc["certificate"]["c"] == 1.0

    def test_witness_serialized(self, chain, chain_reward):
        verdict = opt_equivalent(chain_reward, RewardTable(-chain_reward.values), chain)
        doc = documents.verdict_to_doc(verdict)
        assert not doc["equivalent"]
        assert doc["witness"]["state"] == 0


class TestTransferFixture:
    def test_quoted_values(self):
        r1, r2, n_states, n_actions = documents.load_transfer_pair()
        assert (n_states, n_actions) == (2, 2)
        assert r1.values[0, 0, 0] == 1.0
        assert r1.values[0, 0, 1] == 0.5
        assert r2.values[0, 0, 0] == 0.5
        assert r2.values[0, 0, 1] == 1.0


def test_dumps_is_lossless_for_doubles():
    awkward = {"a": 0.1 + 0.2, "b": 1.0 / 3.0, "c": 1e-300, "d": [np.pi]}
    again = json.loads(documents.dumps(awkward))
    assert again["a"] == awkward["a"]
    assert again["b"] == awkward["b"]
    assert again["c"] == awkward["c"]
    assert again["d"][0] == awkward["d"][0]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_dumps_refuses_non_finite(value):
    with pytest.raises(ValueError):
        documents.dumps({"x": [1.0, value]})


def test_dumps_stable_key_order():
    doc = {"zeta": 1, "alpha": {"q": 2, "b": 3}}
    assert documents.dumps(doc) == documents.dumps(json.loads(documents.dumps(doc)))
