"""One benchmark measurement in a fresh interpreter; run by perfbench/run.py.

    python3 perfbench/worker.py --workload decide --seed 1 --seconds 45 --trace 0
    python3 perfbench/worker.py --workload decide --seed 1 --setup-only

The last line of standard output is one JSON object. ``--setup-only`` stops
after set-up (importing rewardlab and rewardlab.cli, then building the
workload's inputs) and reports how long that took.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any heavy import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

WORKLOADS = ("registry", "decide", "solve-large")
OUT_DIR = os.path.join(HERE, "out")

# The registry's claims in report order; fixed here, not read from rewardlab.
EXPECTED_CLAIMS = [
    "ORD-CHAR", "BOLTZ-OPT", "BM-ORD", "OPT-MODEL", "MCE-ORD", "LEM-GAMMA", "LEM-TAU",
    "MDP-MISSPEC", "OCC-INJ", "J-AMB", "CONTROL", "EX-SA-SHAPING", "EX-TRANSFER",
]

# Tail percentile per workload: the highest one with at least ten samples
# beyond it at the run length BENCHMARK.json sets. The registry has too few
# runs for any percentile, so its tail is the slowest run.
TAIL_PERCENTILE = {"registry": 100.0, "decide": 99.0, "solve-large": 90.0}

CHECK_RTOL = 1e-9      # exact solves against the benchmark's references
RESIDUAL_RTOL = 1e-8   # Bellman residuals of the iterative solvers
CERT_RTOL = 1e-6       # recovered scaling constant of an ord certificate

TRACED_FUNCTIONS = {
    "solve": ["optimal_values", "soft_optimal_values", "policy_evaluate", "occupancy",
              "controllable_states", "evaluate_action_tuples", "evaluate_policy_batch",
              "reward_vector"],
    "equiv": ["opt_equivalent", "ord_equivalent", "j_equal", "order_signature",
              "orderings_agree", "probe_policies"],
    "transform": ["decompose_ord", "decompose_j", "apply", "shaping_matrix"],
    "lab": ["random_mdp", "random_reward", "advantage_gap", "gamma_counterexample",
            "tau_counterexample", "oracle_opt_sets"],
    "models": ["boltzmann_policy", "mce_policy", "fvariant_policy"],
    "mdp": ["validate_mdp", "enumerate_action_tuples"],
    "documents": ["dumps"],
    "cli": ["entry", "lab"],
}

# Layers a traced run reports. Only the registry reaches cli, documents, lab
# and models; BENCHMARK.json lists the per-layer metrics of decide and
# solve-large, which must match these names exactly.
REPORTED_LAYERS = {
    "registry": LAYERS,
    "decide": ("equiv", "transform", "solve", "mdp"),
    "solve-large": ("equiv", "transform", "solve", "mdp"),
}


# -- set-up ---------------------------------------------------------------

def _setup(workload, seed):
    import rewardlab
    import rewardlab.cli  # noqa: F401  (start-up cost of the command line)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(rewardlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"rewardlab imported from {rewardlab.__file__}, not from {src}")
    if workload == "decide":
        raw = inputs.decide_queries(seed)
        return {"ops": [_decide_input(rewardlab, q) for q in raw], "digest": inputs.digest(raw)}
    if workload == "solve-large":
        raw = inputs.solve_instances(seed)
        return {"ops": _solve_inputs(rewardlab, raw), "digest": inputs.digest(raw)}
    return {"ops": None, "digest": None}


def _spec(rl, steps):
    out = []
    for step in steps:
        if step[0] == "ls":
            out.append(rl.LinearScaling(step[1]))
        elif step[0] == "ps":
            out.append(rl.PotentialShaping(rl.PotentialFn(step[1])))
        elif step[0] == "sr":
            out.append(rl.SuccessorRedistribution(rl.RewardTable(step[1])))
        else:
            out.append(rl.OptimalityPreserving(psi=step[1], slack=step[2]))
    return out[0] if len(out) == 1 else rl.Chain(tuple(out))


def _decide_input(rl, q):
    mdp = rl.Mdp(transition=q["tau"], initial=q["mu0"], discount=q["gamma"])
    return {
        "band": q["band"], "relation": q["relation"], "expected": q["expected"], "c": q["c"],
        "mdp": mdp, "r1": rl.RewardTable(q["r1"]), "r2": rl.RewardTable(q["r2"]),
        "r2_values": q["r2"],
        "spec": _spec(rl, q["steps"]) if q["steps"] else None,
    }


def _solve_inputs(rl, raw):
    large = []
    for inst in raw["large"]:
        large.append(dict(inst, mdp=rl.Mdp(transition=inst["tau"], initial=inst["mu0"],
                                            discount=inst["gamma"]),
                          reward=rl.RewardTable(inst["r"]),
                          policy=rl.StochasticPolicy(inst["pi"])))
    control = [dict(inst, mdp=rl.Mdp(transition=inst["tau"], initial=inst["mu0"],
                                     discount=inst["gamma"]))
               for inst in raw["control"]]
    ops = []
    at = {"large": 0, "control": 0}
    for _ in range(len(large)):
        for kind in inputs.SOLVE_CYCLE:
            pool = "control" if kind == "controllable" else "large"
            items = control if pool == "control" else large
            ops.append((kind, items[at[pool] % len(items)]))
            at[pool] += 1
    return ops


# -- operations -----------------------------------------------------------
# Each op returns (seconds spent in rewardlab, error or None). Program calls
# go through the package namespace so that the tracer's rebinding applies.

def _close(a, b, rtol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    return a.shape == b.shape and float(np.abs(a - b).max(initial=0.0)) <= rtol * scale


def _decide_op(rl, q):
    decider = {"opt": rl.opt_equivalent, "ord": rl.ord_equivalent, "jeq": rl.j_equal}[q["relation"]]
    t0 = time.perf_counter()
    try:
        applied = rl.apply(q["spec"], q["r1"], q["mdp"]) if q["spec"] is not None else None
        verdict = decider(q["r1"], q["r2"], q["mdp"])
    except Exception as exc:  # a raising call is a failed op
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if applied is not None and not _close(applied.values, q["r2_values"], CHECK_RTOL):
        return dt, "transform.apply output differs from the reference construction"
    if verdict.equivalent != q["expected"]:
        return dt, f"{q['band']} {q['relation']} verdict {verdict.equivalent}, expected {q['expected']}"
    if q["relation"] == "ord" and q["expected"] and q["c"] is not None:
        cert = verdict.certificate
        if cert is None or abs(cert.c - q["c"]) > CERT_RTOL * max(1.0, q["c"]):
            return dt, "ord certificate does not recover the scaling constant"
    return dt, None


def _solve_op(rl, op):
    kind, inst = op
    mdp, tau, gamma = inst["mdp"], inst["tau"], inst["gamma"]
    t0 = time.perf_counter()
    try:
        if kind == "optimal":
            out = rl.optimal_values(mdp, inst["reward"])
        elif kind == "soft":
            out = rl.soft_optimal_values(mdp, inst["reward"], inst["alpha"])
        elif kind == "evaluate":
            out = rl.policy_evaluate(mdp, inst["reward"], inst["policy"])
        elif kind == "occupancy":
            out = rl.occupancy(mdp, inst["policy"])
        else:
            out = rl.controllable_states(mdp)
    except Exception as exc:  # a raising call is a failed op
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0

    if kind == "optimal":
        q = inst["rsa"] + gamma * (tau @ out.v_star)
        if not _close(q.max(axis=1), out.v_star, RESIDUAL_RTOL):
            return dt, "optimal_values: Bellman residual too large"
        if not _close(out.q_star, q, RESIDUAL_RTOL):
            return dt, "optimal_values: q_star inconsistent with v_star"
        greedy = out.q_star.argmax(axis=1)
        if any(int(greedy[s]) not in out.opt_sets[s] for s in range(len(greedy))):
            return dt, "optimal_values: a greedy action is missing from opt_sets"
    elif kind == "soft":
        alpha = inst["alpha"]
        q = inst["rsa"] + gamma * (tau @ out.v_soft)
        m = q.max(axis=1)
        backup = m + alpha * np.log(np.exp((q - m[:, None]) / alpha).sum(axis=1))
        if not _close(backup, out.v_soft, RESIDUAL_RTOL):
            return dt, "soft_optimal_values: soft-Bellman residual too large"
        if not _close(out.q_soft, q, RESIDUAL_RTOL):
            return dt, "soft_optimal_values: q_soft inconsistent with v_soft"
    elif kind == "evaluate":
        v_ref = inst["v_ref"]
        if not (_close(out.v, v_ref, CHECK_RTOL) and _close(out.q, inst["q_ref"], CHECK_RTOL)
                and _close(out.j, inst["mu0"] @ v_ref, CHECK_RTOL)):
            return dt, "policy_evaluate differs from the exact solve"
    elif kind == "occupancy":
        if not _close(out.d, inst["d_ref"], CHECK_RTOL):
            return dt, "occupancy differs from the exact flow solve"
    elif set(out.states) != set(inst["expected"]):
        return dt, f"controllable_states {sorted(out.states)}, expected {sorted(inst['expected'])}"
    return dt, None


def _strip_wall_clock(doc):
    if isinstance(doc, dict):
        return {k: _strip_wall_clock(v) for k, v in doc.items() if k != "wall_clock_s"}
    if isinstance(doc, list):
        return [_strip_wall_clock(v) for v in doc]
    return doc


def _registry_op(cli, seed, run_index, tracer=None):
    """One full `rewardlab lab --claim all` through the CLI entry point, in-process."""
    out = os.path.join(OUT_DIR, f"registry-report-{run_index}.json")
    if os.path.exists(out):
        os.remove(out)
    args = ["lab", "--claim", "all", "--seed", str(seed), "--out", out]
    code = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            if tracer is None:
                cli.main(args, prog_name="rewardlab")
            else:
                tracer.call("cli.entry", cli.main, args, prog_name="rewardlab")
        except SystemExit as exc:
            code = exc.code if exc.code is not None else 0
    dt = time.perf_counter() - t0
    if code != 0:
        return dt, f"exit code {code}", None
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("ok") is not True:
        return dt, "report ok is not true", None
    if report.get("order") != EXPECTED_CLAIMS or sorted(report.get("claims", {})) != sorted(EXPECTED_CLAIMS):
        return dt, f"claims {report.get('order')} differ from the expected 13", None
    fails = {cid: c["counts"]["fail"] for cid, c in report["claims"].items() if c["counts"]["fail"]}
    if fails:
        return dt, f"failing trials {fails}", None
    stripped = json.dumps(_strip_wall_clock(report), sort_keys=True).encode()
    return dt, None, hashlib.sha256(stripped).hexdigest()


# -- driving loops ----------------------------------------------------------

class Run:
    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, dt, error, timed=True):
        self.attempted += 1
        if timed and dt is not None:
            self.latencies.append(dt)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(error)


def _op_fn(workload):
    return _decide_op if workload == "decide" else _solve_op


def _guarded(fn, rl, op):
    try:
        return fn(rl, op)
    except Exception as exc:  # a check that cannot run fails the op; its time is unknown
        return None, f"{type(exc).__name__}: {exc}"


def _stream(rl, workload, ops, run, seconds=None, count=None):
    """Closed loop, one client: the next op starts when the previous one ends."""
    fn = _op_fn(workload)
    start = time.perf_counter()
    n = 0
    while n < count if count is not None else time.perf_counter() - start < seconds:
        run.record(*_guarded(fn, rl, ops[n % len(ops)]))
        n += 1
    return n


def _registry_runs(cli, seed, run, digests, seconds=0.0, count=None, tracer=None):
    """Full registry runs at one seed; each report must match the first byte for byte."""
    start = time.perf_counter()
    i = 0
    while i < count if count is not None else (i < 2 or time.perf_counter() - start < seconds):
        try:
            dt, err, dig = _registry_op(cli, seed, i, tracer)
        except Exception as exc:  # a run that cannot be checked is a failed run
            dt, err, dig = None, f"{type(exc).__name__}: {exc}", None
        if err is None:
            if digests and dig != digests[0]:
                err = "report differs from the first run at the same seed (wall_clock_s stripped)"
            digests.append(dig)
        run.record(dt, err)
        i += 1


def _environment():
    import importlib.util

    blas = None
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {k: dep.get(k) for k in ("name", "version", "openblas configuration") if k in dep}
    except Exception as exc:  # the layout of show_config differs across numpy versions
        blas = f"unavailable: {exc}"
    kernels = sys.modules.get("rewardlab._kernels")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": getattr(kernels, "BACKEND", None),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                     "MKL_NUM_THREADS")},
    }


def _end_to_end(workload, run):
    lat = np.array(run.latencies) * 1e3
    p50 = float(np.median(lat))
    tail = float(np.percentile(lat, TAIL_PERCENTILE[workload]))
    metrics = {
        "op_p50_ms": {"value": p50, "unit": "ms"},
        "op_tail_ms": {"value": tail, "unit": "ms"},
        "ops_per_s": {"value": len(lat) / (lat.sum() / 1e3), "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "ok_ratio": {"value": (run.attempted - run.failed) / run.attempted, "unit": "ratio"},
    }
    named = {
        "registry": {"registry_s": p50 / 1e3},
        "decide": {"decide_qps": metrics["ops_per_s"]["value"], "decide_p50_ms": p50,
                   "decide_p99_ms": tail},
        "solve-large": {"solve_ops_per_s": metrics["ops_per_s"]["value"], "solve_p50_ms": p50,
                        "solve_p90_ms": tail},
    }[workload]
    named["failed_ratio"] = run.failed / run.attempted
    named["samples"] = len(lat)
    named["tail_percentile"] = TAIL_PERCENTILE[workload]
    return metrics, named


def _ratio(num, den):
    return num / den if den else 0.0


def _per_layer(workload, tr, overhead):
    m = {}
    for layer in REPORTED_LAYERS[workload]:
        calls, self_s = tr.layer_totals(layer)
        m[f"{layer}.calls"] = {"value": calls, "unit": "count"}
        m[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
        for fn in TRACED_FUNCTIONS[layer]:
            name = f"{layer}.{fn}"
            m[f"{name}.calls"] = {"value": tr.calls(name), "unit": "count"}
            m[f"{name}.self_s"] = {"value": tr.self_s(name), "unit": "s"}
    deciders = tr.calls("equiv.ord_equivalent") + tr.calls("equiv.j_equal")
    checked = sum(tr.cross_checked.values())
    m["equiv.cross_check_ratio"] = {"value": _ratio(checked, deciders), "unit": "ratio"}
    m["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    if workload != "registry":
        return m
    for cid in EXPECTED_CLAIMS:
        m[f"lab.claim.{cid}.total_s"] = {"value": tr.total_s(f"lab.claim.{cid}"), "unit": "s"}
    m["lab.random_reward.accept_ratio"] = {
        "value": _ratio(tr.returned("lab.random_reward"),
                        tr.child_calls("lab.random_reward", "lab.advantage_gap")),
        "unit": "ratio"}
    m["lab.random_mdp.accept_ratio"] = {
        "value": _ratio(tr.returned("lab.random_mdp"),
                        tr.child_calls("lab.random_mdp", "mdp.validate_mdp")),
        "unit": "ratio"}
    return m


def _require_timings(run):
    if not run.latencies:
        raise SystemExit(f"error: no operation completed; first errors: {run.errors[:3]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    state = _setup(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import rewardlab as rl
    import rewardlab.cli as cli

    os.makedirs(OUT_DIR, exist_ok=True)
    run = Run()
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "input_digest": state["digest"], "environment": _environment()}
    ops = state["ops"]
    if ops is not None:
        warm = len(inputs.DECIDE_CYCLE) if args.workload == "decide" else len(inputs.SOLVE_CYCLE)
        fn = _op_fn(args.workload)
        for op in ops[:warm]:  # first calls warm caches; checked but not timed
            run.record(*_guarded(fn, rl, op), timed=False)

    if not args.trace:
        if args.workload == "registry":
            digests = []
            _registry_runs(cli, args.seed, run, digests, seconds=args.seconds)
            details["report_digest"] = digests[0] if digests else None
        else:
            _stream(rl, args.workload, ops, run, seconds=args.seconds)
        _require_timings(run)
        metrics, named = _end_to_end(args.workload, run)
        details["named_metrics"] = named
    else:
        tracer = Tracer()
        if args.workload == "registry":
            digests = []
            _registry_runs(cli, args.seed, run, digests, count=1)
            k1 = len(run.latencies)
            tracer.install()
            try:
                _registry_runs(cli, args.seed, run, digests, count=1, tracer=tracer)
            finally:
                tracer.uninstall()
            untraced, traced = sum(run.latencies[:k1]), sum(run.latencies[k1:])
            details["report_digest"] = digests[0] if digests else None
        else:
            k0 = len(run.latencies)
            n = _stream(rl, args.workload, ops, run, seconds=args.seconds / 2)
            k1 = len(run.latencies)
            tracer.install()
            try:
                _stream(rl, args.workload, ops, run, count=n)
            finally:
                tracer.uninstall()
            untraced, traced = sum(run.latencies[k0:k1]), sum(run.latencies[k1:])
        _require_timings(run)
        metrics = _per_layer(args.workload, tracer, traced / untraced if untraced else 0.0)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(trace_path)
        details["trace_file"] = os.path.relpath(trace_path, os.getcwd())
        details["traced_wall_s"] = traced
        details["untraced_wall_s"] = untraced

    details["errors"] = run.errors
    print(json.dumps({"setup_s": setup_s, "correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics, "details": details}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
