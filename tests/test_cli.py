import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from rewardlab import LinearScaling, Mdp, PotentialFn, PotentialShaping, RewardTable, apply
from rewardlab import documents
from rewardlab.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, doc):
    path = tmp_path / name
    documents.save_doc(doc, path)
    return str(path)


class TestValidate:
    def test_valid_mdp(self, runner, chain_docs):
        mdp_path, reward_path = chain_docs
        result = runner.invoke(main, ["validate", str(mdp_path), "--reward", str(reward_path)])
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_row_sum_failure_exits_2(self, runner, tmp_path, chain):
        doc = documents.mdp_to_doc(chain)
        doc["transition"][0][0] = [0.5, 0.4]
        path = _write(tmp_path, "bad.json", doc)
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 2
        assert "row-sum" in result.output


    def test_violations_in_row_major_order(self, runner, tmp_path):
        """Two (s, a) rows break two rules each way, and mu0 breaks both of its rules."""
        doc = {"n_states": 3, "n_actions": 2, "gamma": 0.9, "mu0": [1.5, -0.25, 0.0],
               "transition": [[[0.5, 0.5, 0.0], [1.2, -0.3, 0.0]],
                              [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                              [[0.2, 0.2, 0.2], [0.0, -0.5, 1.5]]]}
        result = runner.invoke(main, ["validate", _write(tmp_path, "bad.json", doc), "--format", "json"])
        assert result.exit_code == 2
        assert json.loads(result.output)["violations"] == [
            ["negative-entry", "(s0,a1)", 0.3],
            ["row-sum", "(s0,a1)", 0.10000000000000009],
            ["row-sum", "(s2,a0)", 0.3999999999999999],
            ["negative-entry", "(s2,a1)", 0.5],
            ["mu0-negative", "mu0", 0.25],
            ["mu0-sum", "mu0", 0.25],
        ]

    def test_non_finite_mu0_exits_2_for_every_reader(self, runner, tmp_path, chain, chain_docs):
        doc = documents.mdp_to_doc(chain)
        doc["mu0"] = [float("nan"), 1.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # json.dumps, unlike documents.dumps, writes NaN
        reward = str(chain_docs[1])
        for args in (["validate", str(path)], ["solve", str(path), reward],
                     ["equiv", str(path), reward, reward, "--relation", "jeq"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, args
        assert "non-finite" in runner.invoke(main, ["validate", str(path)]).output

    def test_non_finite_transition_report_is_json(self, runner, tmp_path, chain):
        doc = documents.mdp_to_doc(chain)
        doc["transition"][1][0] = [float("nan"), float("inf")]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(path), "--format", "json"])
        assert result.exit_code == 2

        def not_json(constant):
            raise AssertionError(f"{constant} is not JSON")

        report = json.loads(result.output, parse_constant=not_json)
        assert report["violations"] == [["non-finite", "transition", 2.0]]


class TestSolve:
    def test_chain_with_beta(self, runner, chain_docs):
        mdp_path, reward_path = chain_docs
        result = runner.invoke(
            main, ["solve", str(mdp_path), str(reward_path), "--beta", "1", "--format", "json"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["boltzmann_policy"][0][1] == pytest.approx(0.731059, abs=1e-6)
        assert doc["opt_sets"] == [[1], [0]]

    def test_malformed_document_exits_2(self, runner, tmp_path, chain, chain_docs):
        doc = documents.mdp_to_doc(chain)
        doc["transition"][0][0] = [0.5, 0.4]
        bad = _write(tmp_path, "bad.json", doc)
        result = runner.invoke(main, ["solve", bad, chain_docs[1].as_posix()])
        assert result.exit_code == 2

    def test_json_output_stable(self, runner, chain_docs):
        mdp_path, reward_path = chain_docs
        args = ["solve", str(mdp_path), str(reward_path), "--format", "json"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2

    def test_out_file(self, runner, tmp_path, chain_docs):
        mdp_path, reward_path = chain_docs
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["solve", str(mdp_path), str(reward_path), "--format", "json", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["opt_sets"] == [[1], [0]]


    def test_residual_bound_is_relative_to_the_value_scale(self, runner, tmp_path):
        """A near-tie left at residual 5e-9 with max|rv| / (1 - gamma) = 1e4 is within 1e-10 of the value scale."""
        tau = np.zeros((2, 2, 2))
        tau[0, 0, 0] = tau[0, 1, 1] = tau[1, :, 1] = 1.0
        mdp_doc = documents.mdp_to_doc(Mdp(tau, np.array([1.0, 0.0]), 0.9))
        r = RewardTable.from_sa(np.array([[900.0 - 5e-10, 0.0], [1000.0, 1000.0]]))
        r_path = _write(tmp_path, "r.json", documents.reward_to_doc(r))
        args = ["solve", _write(tmp_path, "mdp.json", mdp_doc), r_path]
        assert runner.invoke(main, args).exit_code == 0


class TestEquiv:
    def test_scaled_shaped_pair_exits_0(self, runner, tmp_path, chain, chain_reward, chain_docs):
        mdp_path, reward_path = chain_docs
        shaped = apply(PotentialShaping(PotentialFn(np.array([0.2, -0.1]))),
                       apply(LinearScaling(2.0), chain_reward, chain), chain)
        r2 = _write(tmp_path, "r2.json", documents.reward_to_doc(shaped))
        result = runner.invoke(
            main, ["equiv", str(mdp_path), str(reward_path), r2, "--relation", "ord"]
        )
        assert result.exit_code == 0
        assert "c=2" in result.output

    @pytest.mark.parametrize("k1, k2", [(-1000, 1000), (1000, -1000)])
    def test_ord_certificate_outside_float64_exits_2(self, runner, tmp_path, chain_reward, chain_docs, k1, k2):
        mdp_path = str(chain_docs[0])
        r1, r2 = (_write(tmp_path, f"r{i}.json", documents.reward_to_doc(RewardTable(2.0**k * chain_reward.values)))
                  for i, k in enumerate((k1, k2)))
        result = runner.invoke(main, ["equiv", mdp_path, r1, r2, "--relation", "ord"])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1

    def test_negated_pair_exits_1_with_witness(self, runner, tmp_path, chain_reward, chain_docs):
        mdp_path, reward_path = chain_docs
        neg = _write(tmp_path, "neg.json", documents.reward_to_doc(RewardTable(-chain_reward.values)))
        result = runner.invoke(
            main, ["equiv", str(mdp_path), str(reward_path), neg, "--relation", "opt"]
        )
        assert result.exit_code == 1
        assert "witness" in result.output

    def test_jeq_on_redistributed_pair(self, runner, tmp_path, chain, chain_reward, chain_docs):
        from rewardlab import sample_s_redistribution

        mdp_path, reward_path = chain_docs
        r2 = apply(sample_s_redistribution(chain, chain_reward, 1.0, seed=3), chain_reward, chain)
        r2_path = _write(tmp_path, "r2.json", documents.reward_to_doc(r2))
        result = runner.invoke(
            main, ["equiv", str(mdp_path), str(reward_path), r2_path, "--relation", "jeq"]
        )
        assert result.exit_code == 0


class TestTransform:
    def test_applies_spec_document(self, runner, tmp_path, chain_docs):
        mdp_path, reward_path = chain_docs
        spec = {"kind": "seq", "steps": [{"kind": "ls", "c": 2.0},
                                         {"kind": "ps", "phi": [0.0, 1.0]}]}
        spec_path = _write(tmp_path, "spec.json", spec)
        out = tmp_path / "out.json"
        result = runner.invoke(
            main, ["transform", str(mdp_path), str(reward_path), spec_path, "--out", str(out)]
        )
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        # R'(s0,a1,s1) = 2*1 + 0.5*1 - 0
        assert doc["values"][0][1][1] == pytest.approx(2.5)

    def test_s_domain_redistribution_spec(self, runner, tmp_path, chain):
        # Each chain row is deterministic, so only R(s, a, successor) is seen: 1 at s0 and 2 at s1.
        reward = RewardTable(np.array([[[1.0, 5.0], [7.0, 1.0]], [[9.0, 2.0], [2.0, 4.0]]]))
        spec = {"kind": "sr", "replacement": {"domain": "s", "values": [1.0, 2.0]}}
        args = ["transform", _write(tmp_path, "m.json", documents.mdp_to_doc(chain)),
                _write(tmp_path, "r.json", documents.reward_to_doc(reward)), _write(tmp_path, "spec.json", spec)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["values"] == [[[1.0, 1.0], [1.0, 1.0]], [[2.0, 2.0], [2.0, 2.0]]]

    def test_bad_spec_exits_2(self, runner, tmp_path, chain_docs):
        mdp_path, reward_path = chain_docs
        spec_path = _write(tmp_path, "spec.json", {"kind": "warp"})
        result = runner.invoke(main, ["transform", str(mdp_path), str(reward_path), spec_path])
        assert result.exit_code == 2


class TestSolveOptions:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--alpha", "-1"],
            ["--alpha", "0"],
            ["--alpha", "nan"],
            ["--beta", "-1"],
            ["--beta", "nan"],
        ],
        ids=["alpha-negative", "alpha-zero", "alpha-nan", "beta-negative", "beta-nan"],
    )
    def test_bad_value_exits_2_with_one_line(self, runner, chain_docs, flags):
        mdp_path, reward_path = chain_docs
        result = runner.invoke(main, ["solve", str(mdp_path), str(reward_path), *flags])
        assert result.exit_code == 2
        assert result.output.startswith(f"error: {flags[0]} ")
        assert result.output.count("\n") == 1

    def test_tol_is_not_an_option(self, runner, chain_docs):
        mdp_path, reward_path = chain_docs
        result = runner.invoke(main, ["solve", str(mdp_path), str(reward_path), "--tol", "1e-3"])
        assert result.exit_code == 2
        assert "No such option" in result.output

    @pytest.mark.parametrize(
        "flags",
        [
            ["--beta", "9e307"],
            ["--beta", "1e308"],
            ["--alpha", "1e-308"],
            ["--alpha", "5e-309"],
            ["--alpha", "1e-320"],
        ],
        ids=["beta-9e307", "beta-1e308", "alpha-1e-308", "alpha-5e-309", "alpha-1e-320"],
    )
    def test_overflowing_temperature_exits_2_with_one_line(self, runner, tmp_path, flags):
        """beta * Q* or Q / alpha beyond float64 on a 2-state MDP with rewards in {0, 1}: one error line, no warning."""
        tau = [[[0.9, 0.1], [0.2, 0.8]], [[0.6, 0.4], [0.3, 0.7]]]
        mdp_path = _write(tmp_path, "mdp.json", documents.mdp_to_doc(Mdp(tau, np.array([0.5, 0.5]), 0.5)))
        r_path = _write(tmp_path, "r.json", {"domain": "sa", "values": [[0.0, 1.0], [1.0, 0.0]]})
        result = runner.invoke(main, ["solve", mdp_path, r_path, *flags])
        assert result.exit_code == 2
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        assert flags[0][2:] in result.output


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "command, broken",
        [
            ("validate", "mdp"),
            ("validate", "mdp-size-fraction"),
            ("validate", "mdp-size-float"),
            ("validate", "mdp-size-string"),
            ("validate", "mdp-size-true"),
            ("solve", "mdp"),
            ("equiv", "mdp"),
            ("transform", "mdp"),
            ("validate", "reward"),
            ("solve", "reward"),
            ("equiv", "reward"),
            ("transform", "reward"),
            ("transform", "spec"),
            ("transform", "spec-phi-1-state"),
            ("transform", "spec-psi-1-state"),
            ("transform", "spec-slack-1-action"),
            ("transform", "spec-seq-600-deep"),
            *[(command, broken)
              for command in ("validate", "solve", "equiv", "transform")
              for broken in ("not-utf8", "reward-3-states", "reward-1-state", "deep-array")],
        ],
    )
    def test_exit_2_with_one_line(self, runner, tmp_path, chain, chain_reward, command, broken):
        mdp_doc = documents.mdp_to_doc(chain)
        reward_doc = documents.reward_to_doc(chain_reward)
        spec_doc = {"kind": "ls", "c": 2.0}
        if broken == "mdp":
            del mdp_doc["n_states"]
        elif broken == "mdp-size-true":  # int(true) is 1: a one-action MDP and reward
            mdp_doc.update(n_actions=True, mu0=[0.5, 0.5], transition=[[[1.0, 0.0]], [[0.0, 1.0]]])
            reward_doc = {"domain": "sa", "values": [[0.0], [1.0]]}
        elif broken.startswith("mdp-size-"):  # a declared size that int() reads as the tensor's
            mdp_doc.update({"fraction": {"n_states": 2.7}, "float": {"n_actions": 2.0},
                            "string": {"n_states": "2"}}[broken.removeprefix("mdp-size-")])
        elif broken == "reward":
            reward_doc = reward_doc["values"]  # a JSON array, not an object
        elif broken == "reward-3-states":  # the chain MDP has 2 states
            reward_doc = {"domain": "sa", "values": [[0.0, 1.0]] * 3}
        elif broken == "reward-1-state":  # numpy would broadcast it over both states
            reward_doc = {"domain": "sa", "values": [[0.0, 1.0]]}
        elif broken == "spec":
            spec_doc = {"kind": "ls"}  # no scaling constant
        elif broken == "spec-phi-1-state":  # numpy would broadcast phi, psi or slack over the MDP
            spec_doc = {"kind": "ps", "phi": [3.0]}
        elif broken == "spec-psi-1-state":
            spec_doc = {"kind": "op", "psi": [1.0], "slack": [[-1.0]]}
        elif broken == "spec-slack-1-action":
            spec_doc = {"kind": "op", "psi": [1.0, 2.0], "slack": [[-1.0], [-1.0]]}
        mdp = _write(tmp_path, "mdp.json", mdp_doc)
        if broken == "not-utf8":  # the first document named on the command line
            (tmp_path / "mdp.json").write_bytes(b'{"n_states": "\xff"}')
        elif broken == "deep-array":  # too deep for the JSON parser's recursion
            (tmp_path / "mdp.json").write_text("[" * 100000 + "]" * 100000)
        reward = _write(tmp_path, "reward.json", reward_doc)
        spec = _write(tmp_path, "spec.json", spec_doc)
        if broken == "spec-seq-600-deep":  # written by hand: the JSON encoder recurses too
            deep = '{"kind": "seq", "steps": [' * 600 + '{"kind": "ls", "c": 2.0}' + "]}" * 600
            (tmp_path / "spec.json").write_text(deep)
        args = {
            "validate": [mdp, "--reward", reward],
            "solve": [mdp, reward],
            "equiv": [mdp, reward, reward],
            "transform": [mdp, reward, spec],
        }[command]
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "args",
        [["solve"], ["equiv", "--relation", "opt"], ["equiv", "--relation", "jeq"],
         ["equiv", "--relation", "ord", "--format", "json"]],
        ids=["solve", "opt", "jeq-text", "ord-json"],
    )
    def test_values_beyond_float64_exit_2_with_one_line(self, runner, tmp_path, args):
        """At gamma = 0.99, rewards of size 1e308 have values and J beyond float64's range."""
        mdp = _write(tmp_path, "mdp.json", {
            "n_states": 2, "n_actions": 2, "gamma": 0.99, "mu0": [0.5, 0.5],
            "transition": [[[0.9, 0.1], [0.2, 0.8]], [[0.6, 0.4], [0.3, 0.7]]]})
        values = np.array([[1e308, -1e308], [-1e308, 1e308]])
        huge = _write(tmp_path, "huge.json", {"domain": "sa", "values": values.tolist()})
        negated = _write(tmp_path, "negated.json", {"domain": "sa", "values": (-values).tolist()})
        paths = [mdp, huge] if args[0] == "solve" else [mdp, huge, negated]
        result = runner.invoke(main, [args[0], *paths, *args[1:]])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1
        assert "inf" not in result.output.lower()

    @pytest.mark.parametrize(
        "command, text",
        [
            ("equiv", '{"domain": "sa", "val'),
            ("equiv", '{"domain": "sa", "values": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]}'),
            ("transform", '{"kind": "ls", "c": "abc"}'),
        ],
        ids=["truncated-reward", "3-state-reward", "ill-typed-spec"],
    )
    def test_broken_document_is_named(self, runner, tmp_path, chain_docs, command, text):
        mdp_path, reward_path = chain_docs
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        result = runner.invoke(main, [command, str(mdp_path), str(reward_path), str(bad)])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1
        assert "bad.json" in result.output


class TestLab:
    def test_single_claim_passes(self, runner):
        result = runner.invoke(main, ["lab", "--claim", "EX-TRANSFER", "--seed", "1"])
        assert result.exit_code == 0
        assert "PASS EX-TRANSFER" in result.output

    def test_opt_model_passes_on_one_trial(self, runner):
        # The witness rule needs a class swap, which only an unrelated trial can show.
        for seed in ("1", "2", "3"):
            result = runner.invoke(main, ["lab", "--claim", "OPT-MODEL", "--seed", seed, "--trials", "1"])
            assert result.exit_code == 0, result.output

    def test_unknown_claim_exits_2(self, runner):
        result = runner.invoke(main, ["lab", "--claim", "NOPE", "--seed", "1"])
        assert result.exit_code == 2

    def test_seed_required(self, runner):
        result = runner.invoke(main, ["lab", "--claim", "EX-TRANSFER"])
        assert result.exit_code == 2
        assert "seed" in result.output

    @pytest.mark.parametrize(
        "flags",
        [
            ["--claim", "OCC-INJ", "--seed", "3", "--trials", "-3"],
            ["--claim", "OCC-INJ", "--seed", "-1", "--trials", "2"],
            ["--claim", "all", "--seed", "-1"],
            ["--seed", "3"],
        ],
        ids=["negative-trials", "negative-seed", "negative-seed-all", "no-claim"],
    )
    def test_input_errors_exit_2_with_one_line(self, runner, flags):
        result = runner.invoke(main, ["lab", *flags])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1

    def test_trials_flag_sets_the_count(self, runner):
        result = runner.invoke(main, ["lab", "--claim", "OCC-INJ", "--seed", "3", "--trials", "2"])
        assert result.exit_code == 0
        assert "PASS OCC-INJ: 2 pass" in result.output

    def test_help_lists_only_the_run_options(self, runner):
        result = runner.invoke(main, ["lab", "--help"])
        options = sorted(set(re.findall(r"^  (--[a-z]+)", result.output, flags=re.M)))
        assert options == ["--claim", "--help", "--out", "--seed", "--trials"]

    def test_report_bytes_stable_modulo_wall_clock(self, runner, tmp_path):
        def run(name):
            out = tmp_path / name
            result = runner.invoke(
                main, ["lab", "--claim", "J-AMB", "--seed", "9", "--trials", "5", "--out", str(out)]
            )
            assert result.exit_code == 0
            return json.loads(out.read_text())

        def strip(doc):
            for claim in doc["claims"].values():
                claim.pop("wall_clock_s")
            return documents.dumps(doc)

        assert strip(run("a.json")) == strip(run("b.json"))
