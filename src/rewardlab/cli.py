"""Command-line front end: validate, solve, equiv, transform, lab.

Exit codes follow a fixed contract, kept in one table (_EXIT_CODES) that a
single handler applies to every command: bad input exits 2 and a solver
failure 3. ``equiv`` exits 0 for equivalent and 1 for not equivalent; ``lab``
exits 0 iff the claim (or the whole registry) passes and 1 otherwise.
Randomized subcommands require an explicit seed; nothing is ever seeded from
the clock. JSON is the stable output surface; the text format is for humans
and may change.
"""

from __future__ import annotations

import math
import sys

import click

from . import documents
from .equiv import j_equal, opt_equivalent, ord_equivalent
from .errors import CapacityError, ConvergenceError, InternalConsistencyError, ValidationFailure
from .lab import ExperimentConfig, run_registry, verify_claim
from .models import boltzmann_policy, mce_policy
from .solve import optimal_values
from .transform import apply as apply_transform

# Exception type -> (exit code, message prefix); a raised exception takes the
# row of the nearest class in its MRO. ValueError covers malformed documents
# (StructuralError, ValidationFailure, JSON and UTF-8 decoding), bad option
# values and unknown claims, so no error leaves ``equiv`` with a verdict's code.
_EXIT_CODES = {
    ValueError: (2, "error"),
    OSError: (2, "error"),
    ConvergenceError: (3, "solver did not converge"),
    CapacityError: (3, "solver error"),
    InternalConsistencyError: (3, "solver error"),
}


class _Main(click.Group):
    """The command group; an exception a command raises leaves through _EXIT_CODES."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(_EXIT_CODES) as exc:
            code, prefix = next(_EXIT_CODES[k] for k in type(exc).__mro__ if k in _EXIT_CODES)
            click.echo(f"{prefix}: {exc}", err=True)
            ctx.exit(code)


def _emit(doc, fmt: str, out, text_renderer) -> None:
    payload = documents.dumps(doc)  # raises ValueError on NaN or +-inf, whatever the format
    payload = payload if fmt == "json" else text_renderer(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        click.echo(payload, nl=False)


def _solve_text(doc) -> str:
    lines = ["optimal values"]
    lines.append(f"  v_star: {doc['v_star']}")
    lines.append(f"  opt_sets: {doc['opt_sets']}")
    lines.append(f"  residual: {doc['residual']:.3e}")
    for key in ("boltzmann_policy", "mce_policy"):
        if key in doc:
            lines.append(f"  {key}: {doc[key]}")
    return "\n".join(lines) + "\n"


@click.group(cls=_Main)
def main():
    """Tabular-MDP solvers, reward-equivalence deciders, and the claim registry."""


@main.command()
@click.argument("mdp_path", type=click.Path(exists=True))
@click.option("--reward", "reward_path", type=click.Path(exists=True), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text")
def validate(mdp_path, reward_path, fmt):
    """Validate an MDP document (and optionally a reward document against it)."""
    try:
        mdp = documents.load_mdp(mdp_path)
    except ValidationFailure as exc:
        violations = [list(v) for v in exc.report.violations]
        _emit({"ok": False, "violations": violations}, fmt, None,
              lambda d: "invalid:\n" + "\n".join(f"  {v}" for v in d["violations"]) + "\n")
        sys.exit(2)
    if reward_path:
        documents.load_reward(reward_path, mdp)
    _emit({"ok": True, "violations": []}, fmt, None, lambda d: "ok\n")


@main.command()
@click.argument("mdp_path", type=click.Path(exists=True))
@click.argument("reward_path", type=click.Path(exists=True))
@click.option("--beta", type=float, default=None, help="also report the softmax-of-Q* policy")
@click.option("--alpha", type=float, default=None, help="also report the entropy-regularized policy")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text")
@click.option("--out", type=click.Path(), default=None)
def solve(mdp_path, reward_path, beta, alpha, fmt, out):
    """Solve for optimal values, advantages, and optimal-action sets."""
    for name, value in (("beta", beta), ("alpha", alpha)):
        if value is not None and not 0 < value < math.inf:
            raise ValueError(f"--{name} must be positive and finite, got {value}")
    mdp = documents.load_mdp(mdp_path)
    r = documents.load_reward(reward_path, mdp)
    bundle = optimal_values(mdp, r)
    doc = {
        "v_star": bundle.v_star.tolist(),
        "q_star": bundle.q_star.tolist(),
        "a_star": bundle.a_star.tolist(),
        "opt_sets": [sorted(s) for s in bundle.opt_sets],
        "residual": bundle.residual,
    }
    if beta is not None:
        doc["boltzmann_policy"] = boltzmann_policy(mdp, r, beta).probs.tolist()
    if alpha is not None:
        doc["mce_policy"] = mce_policy(mdp, r, alpha).probs.tolist()
    _emit(doc, fmt, out, _solve_text)


@main.command()
@click.argument("mdp_path", type=click.Path(exists=True))
@click.argument("r1_path", type=click.Path(exists=True))
@click.argument("r2_path", type=click.Path(exists=True))
@click.option("--relation", type=click.Choice(["opt", "ord", "jeq"]), default="ord", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text")
@click.option("--out", type=click.Path(), default=None)
def equiv(mdp_path, r1_path, r2_path, relation, fmt, out):
    """Decide whether two rewards are equivalent under the chosen relation."""
    mdp = documents.load_mdp(mdp_path)
    r1 = documents.load_reward(r1_path, mdp)
    r2 = documents.load_reward(r2_path, mdp)
    decider = {"opt": opt_equivalent, "ord": ord_equivalent, "jeq": j_equal}[relation]
    verdict = decider(r1, r2, mdp)

    def text(doc):
        if doc["equivalent"]:
            line = f"equivalent ({doc['relation']})"
            if doc["certificate"]:
                line += f", certificate c={doc['certificate']['c']:.12g}"
            return line + "\n"
        return f"not equivalent ({doc['relation']}), witness: {doc['witness']}\n"

    _emit(documents.verdict_to_doc(verdict), fmt, out, text)
    sys.exit(0 if verdict.equivalent else 1)


@main.command()
@click.argument("mdp_path", type=click.Path(exists=True))
@click.argument("reward_path", type=click.Path(exists=True))
@click.argument("spec_path", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None)
def transform(mdp_path, reward_path, spec_path, out):
    """Apply a transformation document to a reward and emit the result."""
    mdp = documents.load_mdp(mdp_path)
    r = documents.load_reward(reward_path, mdp)
    result = apply_transform(documents.load_transform(spec_path, mdp), r, mdp)
    _emit(documents.reward_to_doc(result), "json", out, lambda d: "")


@main.command()
@click.option("--claim", default=None, help="claim id, or 'all' for the whole registry")
@click.option("--seed", type=int, default=None, help="non-negative; required")
@click.option("--trials", type=int, default=0, help="override the claim's default trial count (0 keeps it)")
@click.option("--out", type=click.Path(), default=None)
def lab(claim, seed, trials, out):
    """Run registered theorem checks; exit 0 iff everything passes."""
    if claim is None:
        raise ValueError("--claim is required")
    if seed is None:
        # No wall-clock seeding: randomized runs must be reproducible.
        raise ValueError("--seed is required")
    if claim == "all":
        reports = run_registry(seed=seed, trials=trials)
    else:
        reports = [verify_claim(ExperimentConfig(claim_id=claim, trials=trials, seed=seed))]
    doc = {
        "ok": all(rep.ok for rep in reports),
        "claims": {rep.claim_id: rep.to_doc() for rep in reports},
        "order": [rep.claim_id for rep in reports],
    }
    if out:
        documents.save_doc(doc, out)
    for rep in reports:
        counts = rep.counts
        click.echo(
            f"{'PASS' if rep.ok else 'FAIL'} {rep.claim_id}: "
            f"{counts['pass']} pass, {counts['fail']} fail, {counts['skip']} skip "
            f"({rep.wall_clock_s:.2f}s)"
        )
    sys.exit(0 if doc["ok"] else 1)


if __name__ == "__main__":
    main()
