"""Config-driven experiment runner and claim verifier.

Subcommands:

- ``run CONFIG [--seed N] [--seeds a,b,c] [--out DIR]``: run one experiment
  described by a JSON config, writing trace.csv, summary.json, policy.json.
- ``verify {1,2,3,4}``: canned desk-scale reproductions of the four
  optimality claims (1: product-policy gradient traps; 2: value-decomposition
  traps; 3: transform value equivalence; 4: transform-and-distill
  optimality). Exit 0 iff the claim's checks pass.
- ``env list`` / ``env dump NAME``: built-in environments.
- ``transform report ENV``: state-action accounting of the transformation.

Exit codes: 0 success, 1 failed verification, 2 config/schema errors,
3 size-guard refusal, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import local_min_certificate, stationarity_certificate
from .constructions import (
    builtin_game,
    builtin_names,
    construct_local_minima,
    random_mmdp,
)
from .core import (
    SIZE_GUARD,
    CoordinationPolicy,
    DecentralizedPolicySet,
    SizeGuardError,
    brute_force_optimal,
    dump_env_text,
    evaluate_policy,
    greedy_codes,
    load_env_file,
    matrix_game,
)
from .learners import (
    GdDivergenceError,
    MapgParams,
    VdParams,
    gd_run,
    mapg_loss_and_grad,
    run_mapg,
    run_vd,
    tad_run,
    vd_loss_and_grad,
)
from .transform import size_report, value_relation_check

#: gradient-norm threshold echoed into summaries
STATIONARITY_TOL = 1e-6


class SchemaError(ValueError):
    """Config or environment file does not match the documented schema."""


# ---------------------------------------------------------------------------
# config plumbing

_LEARNER_KEYS = {
    "mapg": {"kind", "lr", "steps", "log_every"},
    "vd": {"kind", "variant", "lr", "steps", "log_every"},
    "tad": {"kind", "sarl", "lr", "steps", "clip", "sweeps", "tol", "log_every"},
}
#: numeric learner fields: (integer-valued?, lower bound, bound allowed?)
_LEARNER_NUMBERS = {
    "lr": (False, 0, False),
    "tol": (False, 0, False),
    "clip": (False, 0, False),
    "steps": (True, 0, True),
    "log_every": (True, 1, True),
    "sweeps": (True, 1, True),
}
_INIT_MODES = ("uniform", "concentrated", "file")


def _check_number(key, value):
    integral, low, closed = _LEARNER_NUMBERS[key]
    exact = isinstance(value, int) and not isinstance(value, bool)
    real = isinstance(value, float) and math.isfinite(value)
    ok = (exact or real) and (value >= low if closed else value > low)
    if integral and real:
        ok = ok and value.is_integer()
    if not ok:
        kind = "an integer" if integral else "a number"
        bound = ">=" if closed else ">"
        raise SchemaError(f"learner {key!r} must be {kind} {bound} {low}, got {value!r}")


def _load_config(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise SchemaError("config must be a JSON object")
    allowed = {"env", "learner", "init", "distill", "outputs"}
    extra = set(config) - allowed
    if extra:
        raise SchemaError(f"unknown config keys: {sorted(extra)}")
    if "env" not in config:
        raise SchemaError("config is missing 'env'")
    learner = config.get("learner")
    if not isinstance(learner, dict) or "kind" not in learner:
        raise SchemaError("config needs a 'learner' object with a 'kind'")
    kind = learner["kind"]
    if kind not in _LEARNER_KEYS:
        raise SchemaError(f"unknown learner kind {kind!r}")
    extra = set(learner) - _LEARNER_KEYS[kind]
    if extra:
        raise SchemaError(f"unknown learner keys for {kind}: {sorted(extra)}")
    if kind == "vd" and learner.get("variant", "vdn") not in ("vdn", "monotonic", "duplex"):
        raise SchemaError(f"unknown vd variant {learner.get('variant')!r}")
    if kind == "tad" and learner.get("sarl", "vi") not in (
        "vi", "q_learning", "softmax_pg", "clipped_pg",
    ):
        raise SchemaError(f"unknown single-agent learner {learner.get('sarl')!r}")
    for key in _LEARNER_NUMBERS:
        if key in learner and not (key == "clip" and learner[key] is None):
            _check_number(key, learner[key])
    init = config.get("init", {})
    if not isinstance(init, dict):
        raise SchemaError("'init' must be an object")
    mode = init.get("mode", "uniform")
    if mode not in _INIT_MODES:
        raise SchemaError(f"unknown init mode {mode!r}")
    if mode == "file" and not (isinstance(init.get("file"), str)
                               and os.path.isfile(init["file"])):
        raise SchemaError(f"init file not found: {init.get('file')!r}")
    outputs = config.get("outputs", ["trace", "summary"])
    if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
        raise SchemaError("'outputs' must be a list of names")
    bad = set(outputs) - {"trace", "summary"}
    if bad:
        raise SchemaError(f"unknown outputs: {sorted(bad)}")
    if config.get("distill", "greedy") not in ("greedy", "kl"):
        raise SchemaError(f"unknown distill mode {config.get('distill')!r}")
    return config


def _resolve_env(spec):
    if isinstance(spec, dict):
        spec = spec.get("file")
    if not isinstance(spec, str):
        raise SchemaError("'env' must be a builtin name or a file path")
    if spec in builtin_names():
        return builtin_game(spec), spec
    if os.path.exists(spec):
        try:
            return load_env_file(spec), spec
        except (ValueError, json.JSONDecodeError) as exc:
            raise SchemaError(f"bad environment file {spec}: {exc}") from exc
    raise SchemaError(f"env {spec!r} is neither a builtin nor an existing file")


def _init_mapg(init_cfg, model):
    mode = init_cfg.get("mode", "uniform")
    if mode == "uniform":
        return MapgParams.uniform(model.n_agents, model.n_states, model.n_actions)
    if mode == "concentrated":
        target = init_cfg.get("target_joint_action")
        if target is None or len(target) != model.n_agents:
            raise SchemaError("concentrated init needs target_joint_action per agent")
        return MapgParams.concentrated(
            model.n_agents, model.n_states, model.n_actions,
            target, float(init_cfg.get("scale", 5.0)),
        )
    with open(init_cfg["file"]) as fh:
        return MapgParams(np.asarray(json.load(fh)["logits"], dtype=float))


def _init_vd(init_cfg, variant, model):
    mode = init_cfg.get("mode", "uniform")
    if mode == "uniform":
        return VdParams.zeros(variant, model.n_agents, model.n_states, model.n_actions)
    if mode == "concentrated":
        target = init_cfg.get("target_joint_action")
        if target is None or len(target) != model.n_agents:
            raise SchemaError("concentrated init needs target_joint_action per agent")
        p = VdParams.zeros(variant, model.n_agents, model.n_states, model.n_actions)
        for i, a in enumerate(target):
            p.q_local[i, :, int(a)] = float(init_cfg.get("scale", 1.0))
        return p
    with open(init_cfg["file"]) as fh:
        data = json.load(fh)
    return VdParams(
        variant,
        np.asarray(data["q_local"], dtype=float),
        None if data.get("w_raw") is None else np.asarray(data["w_raw"], dtype=float),
        None if data.get("lam_raw") is None else np.asarray(data["lam_raw"], dtype=float),
    )


def _execute(config, seed, out_dir):
    """Run one replica; returns the summary dict (also written to disk)."""
    model, env_name = _resolve_env(config["env"])
    if model.n_states * model.n_joint_actions > SIZE_GUARD:
        raise SizeGuardError(
            f"environment has {model.n_states * model.n_joint_actions} "
            f"state-action pairs, beyond the oracle guard"
        )
    learner = dict(config["learner"])
    kind = learner["kind"]
    init_cfg = config.get("init", {"mode": "uniform"})
    distill = config.get("distill", "greedy")
    outputs = config.get("outputs", ["trace", "summary"])
    lr = float(learner.get("lr", 0.05 if model.horizon == 1 else 0.01))
    steps = int(learner.get("steps", 20000))
    log_every = int(learner.get("log_every", max(1, steps // 200)))

    resolved = {"kind": kind, "lr": lr, "steps": steps, "log_every": log_every}
    certificates = {}
    if kind == "mapg":
        params0 = _init_mapg(init_cfg, model)
        params, trace = run_mapg(model, params0, lr=lr, steps=steps, log_every=log_every)
        policies = params.policies()

        def loss_fn(x):
            loss, grad = mapg_loss_and_grad(params.unpack_like(x), model)
            return loss, grad.ravel()

        ok, norm = stationarity_certificate(loss_fn, params.pack(), STATIONARITY_TOL)
        certificates["stationarity"] = {"ok": bool(ok), "grad_norm": norm,
                                        "tol": STATIONARITY_TOL}
    elif kind == "vd":
        variant = learner.get("variant", "vdn")
        resolved["variant"] = variant
        params0 = _init_vd(init_cfg, variant, model)
        params, trace = run_vd(model, params0, lr=lr, steps=steps, log_every=log_every)
        acts = np.argmax(params.q_local, axis=2)
        policies = DecentralizedPolicySet.deterministic(acts, model.n_actions)

        def loss_fn(x):
            loss, grad = vd_loss_and_grad(params.unpack_like(x), model)
            return loss, grad.pack()

        ok, norm = stationarity_certificate(loss_fn, params.pack(), STATIONARITY_TOL)
        certificates["stationarity"] = {"ok": bool(ok), "grad_norm": norm,
                                        "tol": STATIONARITY_TOL}
    else:
        sarl = learner.get("sarl", "vi")
        resolved["sarl"] = sarl
        resolved["distill"] = distill
        cfg = {}
        if sarl in ("softmax_pg", "clipped_pg"):
            cfg = {"lr": lr, "steps": steps, "log_every": log_every}
            if sarl == "clipped_pg" or learner.get("clip") is not None:
                cfg["clip"] = float(learner.get("clip", 0.2))
                resolved["clip"] = cfg["clip"]
        elif sarl == "q_learning":
            cfg = {"sweeps": int(learner.get("sweeps", 200))}
        elif sarl == "vi":
            cfg = {"tol": float(learner.get("tol", 1e-10))}
        policies, trace = tad_run(model, sarl=sarl, distill=distill, seed=seed, **cfg)

    final_return = evaluate_policy(model, policies)
    saved = {"type": "decentralized", "tables": policies.tables.tolist()}
    greedy_policies = DecentralizedPolicySet.deterministic(
        policies.greedy_actions(), model.n_actions)
    greedy_return = evaluate_policy(model, greedy_policies)
    optimal_return, _ = brute_force_optimal(model)
    summary = {
        "env": env_name,
        "seed": seed,
        "learner": resolved,
        "final_return": final_return,
        "greedy_return": greedy_return,
        "optimal_return": optimal_return,
        "suboptimality_gap": optimal_return - greedy_return,
        "greedy_policy": [int(c) for c in greedy_codes(policies.tables)],
        "certificates": certificates,
        "tolerances": {"oracle_vi_tol": 1e-10, "stationarity_tol": STATIONARITY_TOL},
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "policy.json", "w") as fh:
        json.dump(saved, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if "trace" in outputs:
        trace.to_csv(out_dir / "trace.csv")
    if "summary" in outputs:
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summary


def _sweep_worker(payload):
    config, seed, out_dir = payload
    return seed, _execute(config, seed, Path(out_dir))


def cmd_run(args):
    try:
        config = _load_config(args.config)
        if args.seeds:
            try:
                seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
            except ValueError as exc:
                raise SchemaError(f"--seeds must be comma-separated integers: "
                                  f"{args.seeds!r}") from exc
        else:
            seeds = [args.seed]
        if not seeds:
            raise SchemaError("empty seed list")
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        if len(seeds) == 1:
            summary = _execute(config, seeds[0], out)
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        payloads = [(config, s, str(out / f"seed_{s}")) for s in seeds]
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(4, len(payloads))) as pool:
                results = list(pool.map(_sweep_worker, payloads))
        except (OSError, PermissionError):
            results = [_sweep_worker(p) for p in payloads]
        results.sort(key=lambda pair: pair[0])
        sweep = [
            {"seed": s, "final_return": r["final_return"],
             "suboptimality_gap": r["suboptimality_gap"]}
            for s, r in results
        ]
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "sweep.json", "w") as fh:
            json.dump(sweep, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(json.dumps(sweep, indent=2, sort_keys=True))
        return 0
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GdDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


# ---------------------------------------------------------------------------
# claim verification

def _check(label, ok, detail):
    print(f"  [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


def _verify_pg_traps(seed):
    """Concentrated inits stay on their diagonal; uniform init finds the optimum."""
    model = builtin_game("table1")
    ok = True
    for target, expected in (((1, 1), 5.0), ((2, 2), 1.0)):
        params0 = MapgParams.concentrated(2, 1, 3, target, 5.0)
        params, _ = run_mapg(model, params0, lr=0.05, steps=20000, log_every=5000)
        code = int(params.greedy_joint()[0])
        greedy = DecentralizedPolicySet.deterministic(
            np.argmax(params.logits, axis=2), model.n_actions
        )
        ret = evaluate_policy(model, greedy)
        ok &= _check(
            f"concentrated init at {target}",
            code == target[0] * 3 + target[1] and abs(ret - expected) < 1e-6,
            f"greedy code {code}, greedy return {ret:.9f} (want {expected})",
        )
    params, _ = run_mapg(model, MapgParams.uniform(2, 1, 3), lr=0.05,
                         steps=20000, log_every=5000)
    greedy = DecentralizedPolicySet.deterministic(
        np.argmax(params.logits, axis=2), model.n_actions
    )
    ret = evaluate_policy(model, greedy)
    ok &= _check("uniform init", abs(ret - 10.0) < 1e-6,
                 f"greedy return {ret:.9f} (want 10)")
    return ok


def _verify_vd_traps(seed):
    tensor, points = construct_local_minima(3, 2, None)
    game = matrix_game(tensor)
    best = tensor.max()
    ok = True
    rng = np.random.default_rng(seed)
    for idx, theta in enumerate(points):
        def loss_fn(x, _theta=theta):
            loss, grad = vd_loss_and_grad(_theta.unpack_like(x), game)
            return loss, grad.pack()

        stat_ok, norm = stationarity_certificate(loss_fn, theta.pack(), 1e-8)
        ok &= _check(f"point {idx} stationary", stat_ok, f"grad norm {norm:.3e}")
        local = local_min_certificate(loss_fn, theta.pack(), radius=0.02,
                                      samples=10000, rng=rng)
        ok &= _check(f"point {idx} local minimum", local,
                     "no descent direction in 10^4 ball samples (radius 0.02)")
        payoff = tensor.reshape(-1)[int(theta.greedy_joint()[0])]
        if payoff < best:
            x, _ = gd_run(loss_fn, theta.pack(), lr=0.05, steps=10000, log_every=10000)
            after = theta.unpack_like(x)
            stuck = int(after.greedy_joint()[0]) == int(theta.greedy_joint()[0])
            ok &= _check(f"point {idx} retains suboptimal greedy", stuck,
                         f"greedy payoff {payoff} < optimum {best}")
    return ok


def _verify_value_relation(seed, cases=100):
    rng = np.random.default_rng(seed)
    combos = [(n, g) for n in (1, 2, 3, 4) for g in (0.5, 0.9, 0.99)]
    worst = 0.0
    for i in range(cases):
        n_agents, gamma = combos[i % len(combos)]
        n_states = int(rng.integers(1, 4))
        n_actions = int(rng.integers(2, 4 if n_agents < 4 else 3))
        model = random_mmdp(n_states, n_agents, n_actions, gamma=gamma, rng=rng)
        pc = CoordinationPolicy.random(n_agents, n_states, n_actions, rng)
        _, _, residual = value_relation_check(model, pc)
        worst = max(worst, residual)
    ok = worst < 1e-8
    _check("value relation residual", ok, f"{cases} cases, max residual {worst:.3e}")
    return ok


def _verify_optimal_composition(seed):
    rng = np.random.default_rng(seed)
    names = ["table1", "matgame2"] + [f"multitask_{i}" for i in range(1, 11)] + [
        "multitask_suite"
    ]
    ok = True
    worst = 0.0
    for name in names:
        model = builtin_game(name)
        policies, _ = tad_run(model, sarl="vi")
        gap = brute_force_optimal(model)[0] - evaluate_policy(model, policies)
        worst = max(worst, abs(gap))
        ok &= abs(gap) < 1e-8
    _check("built-in games", ok, f"max |gap| {worst:.3e}")
    worst_r = 0.0
    for _ in range(50):
        model = random_mmdp(
            int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 5)),
            gamma=float(rng.choice([0.5, 0.9, 0.99])), rng=rng,
        )
        policies, _ = tad_run(model, sarl="vi")
        gap = brute_force_optimal(model)[0] - evaluate_policy(model, policies)
        worst_r = max(worst_r, abs(gap))
    ok_r = worst_r < 1e-8
    _check("random models", ok_r, f"50 models, max |gap| {worst_r:.3e}")
    return ok and ok_r


def cmd_verify(args):
    checks = {
        1: ("product-policy gradient descent is trapped by its init", _verify_pg_traps),
        2: ("decomposed TD learning has constructible trap points", _verify_vd_traps),
        3: ("the transformation rescales policy values exactly", _verify_value_relation),
        4: ("transform + solve + distill reaches the optimum", _verify_optimal_composition),
    }
    label, fn = checks[args.claim]
    print(f"claim {args.claim}: {label}")
    ok = fn(seed=args.seed)
    print(f"claim {args.claim}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# environment inspection

def cmd_env(args):
    if args.env_cmd == "list":
        for name in builtin_names():
            print(name)
        return 0
    try:
        model = builtin_game(args.name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(dump_env_text(model))
    return 0


def cmd_transform(args):
    try:
        model, _ = _resolve_env(args.env)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = size_report(model)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="tadlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--seeds", default=None,
                       help="comma-separated seed sweep (parallel replicas)")
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="verify an optimality claim")
    p_verify.add_argument("claim", type=int, choices=(1, 2, 3, 4))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(fn=cmd_verify)

    p_env = sub.add_parser("env", help="inspect built-in environments")
    env_sub = p_env.add_subparsers(dest="env_cmd", required=True)
    env_sub.add_parser("list").set_defaults(fn=cmd_env)
    p_dump = env_sub.add_parser("dump")
    p_dump.add_argument("name")
    p_dump.set_defaults(fn=cmd_env)

    p_tr = sub.add_parser("transform", help="transformation reports")
    tr_sub = p_tr.add_subparsers(dest="transform_cmd", required=True)
    p_report = tr_sub.add_parser("report")
    p_report.add_argument("env")
    p_report.set_defaults(fn=cmd_transform)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
