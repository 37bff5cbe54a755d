"""Config-driven experiment runner and claim verifier.

Subcommands:

- ``run CONFIG [--seed N] [--out DIR]``: run one experiment
  described by a JSON config, writing trace.csv, summary.json, policy.json.
- ``verify {1,2,3,4} [--seed N]``: canned desk-scale reproductions of the
  four optimality claims (1: product-policy gradient traps; 2:
  value-decomposition traps; 3: transform value equivalence; 4:
  transform-and-distill optimality), run by `tadlab.claims`. Exit 0 iff the
  claim's checks pass.
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

from .claims import CLAIMS
from .constructions import builtin_game, builtin_names
from .core import (
    OPTION_BOUNDS,
    ORACLE_TOL,
    SIZE_GUARD,
    DecentralizedPolicySet,
    DeterministicJointPolicy,
    SizeGuardError,
    _floats,
    brute_force_optimal,
    check_options,
    dump_env_text,
    episode_positions,
    evaluate_policy,
    greedy_codes,
    load_env_file,
)
from .learners import (
    SARL_OPTIONS,
    VD_VARIANTS,
    GdDivergenceError,
    MapgParams,
    VdParams,
    run_mapg,
    run_vd,
    tad_run,
)
from .transform import size_report, step_discount

#: gradient-norm threshold echoed into summaries
STATIONARITY_TOL = 1e-6


class SchemaError(ValueError):
    """Config or environment file does not match the documented schema."""


_EXIT_CODES = {SchemaError: 2, SizeGuardError: 3, GdDivergenceError: 4}


# ---------------------------------------------------------------------------
# config plumbing

#: keys of the mapg and vd learners; a tad learner takes `sarl` and that
#: learner's `SARL_OPTIONS`
_LEARNER_KEYS = {
    "mapg": {"kind", "lr", "steps", "log_every"},
    "vd": {"kind", "variant", "lr", "steps", "log_every"},
}
_INIT_MODES = ("uniform", "concentrated", "file")


def _load_config(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"config file not found: {path}") from exc
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read config {path} as JSON: {exc}") from exc
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
    name = kind = learner["kind"]
    if kind == "tad":
        name = learner.get("sarl", "vi")
        if not isinstance(name, str) or name not in SARL_OPTIONS:
            raise SchemaError(f"unknown single-agent learner {name!r}")
        keys = {"kind", "sarl", *SARL_OPTIONS[name]}
    elif isinstance(kind, str) and kind in _LEARNER_KEYS:
        keys = _LEARNER_KEYS[kind]
    else:
        raise SchemaError(f"unknown learner kind {kind!r}")
    extra = set(learner) - keys
    if extra:
        raise SchemaError(f"unknown learner keys for {name}: {sorted(extra)}")
    if kind == "vd" and learner.get("variant", "vdn") not in VD_VARIANTS:
        raise SchemaError(f"unknown vd variant {learner.get('variant')!r}")
    try:
        check_options(**{key: learner[key] for key in OPTION_BOUNDS
                         if key in learner and not (key == "clip" and learner[key] is None)})
    except ValueError as exc:
        raise SchemaError(f"learner {exc}") from exc
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
            model = load_env_file(spec)
            if model.horizon is not None:
                episode_positions(model)  # the oracle needs a layered model
            return model, spec
        except (OSError, ValueError) as exc:
            raise SchemaError(f"bad environment file {spec}: {exc}") from exc
    raise SchemaError(f"env {spec!r} is neither a builtin nor an existing file")


def _init_target(init_cfg, model, default_scale):
    """The per-agent actions and the scale of a concentrated init."""
    target = init_cfg.get("target_joint_action")
    if not (isinstance(target, list) and len(target) == model.n_agents and all(
            type(a) is int and 0 <= a < model.n_actions for a in target)):
        raise SchemaError(f"concentrated init needs target_joint_action: one action "
                          f"in [0, {model.n_actions}) per agent, got {target!r}")
    scale = init_cfg.get("scale", default_scale)
    if type(scale) not in (int, float) or not math.isfinite(scale):
        raise SchemaError(f"init 'scale' must be a finite number, got {scale!r}")
    return target, float(scale)


def _init_arrays(path, shapes):
    """Arrays of a `file` init by name, each checked against its entry in
    `shapes`; the first is required, the others are None when absent or null."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read init file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"init file {path} must hold a JSON object")
    arrays = {}
    for i, (key, shape) in enumerate(shapes.items()):
        if data.get(key) is None:
            if i == 0:
                raise SchemaError(f"init file {path} lacks {key!r}")
            arrays[key] = None
            continue
        try:
            arrays[key] = _floats(data[key])
            ok = arrays[key].shape == shape and np.isfinite(arrays[key]).all()
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise SchemaError(f"init file {path}: {key!r} must be a finite numeric "
                              f"array of shape {list(shape)}")
    return arrays


def _init_mapg(init_cfg, model):
    shape = (model.n_agents, model.n_states, model.n_actions)
    mode = init_cfg.get("mode", "uniform")
    if mode == "uniform":
        return MapgParams.uniform(*shape)
    if mode == "concentrated":
        return MapgParams.concentrated(*shape, *_init_target(init_cfg, model, 5.0))
    return MapgParams(**_init_arrays(init_cfg["file"], {"logits": shape}))


def _init_vd(init_cfg, variant, model):
    n, s, a = model.n_agents, model.n_states, model.n_actions
    mode = init_cfg.get("mode", "uniform")
    if mode == "uniform":
        return VdParams.zeros(variant, n, s, a)
    if mode == "concentrated":
        target, scale = _init_target(init_cfg, model, 1.0)
        p = VdParams.zeros(variant, n, s, a)
        for i, act in enumerate(target):
            p.q_local[i, :, act] = scale
        return p
    mixer = {"monotonic": {"w_raw": (n, s)}, "duplex": {"lam_raw": (n, s, a**n)}}
    shapes = {"q_local": (n, s, a), **mixer.get(variant, {})}
    return VdParams(variant, **_init_arrays(init_cfg["file"], shapes))


def _execute(config, seed, out_dir):
    """Run one (config, seed) pair; returns the summary dict (also written to disk)."""
    model, env_name = _resolve_env(config["env"])
    if model.n_states * model.n_joint_actions > SIZE_GUARD:
        raise SizeGuardError(
            f"environment has {model.n_states * model.n_joint_actions} "
            f"state-action pairs, beyond the oracle guard"
        )
    learner = config["learner"]
    kind = learner["kind"]
    init_cfg = config.get("init", {"mode": "uniform"})
    distill = config.get("distill", "greedy")
    outputs = config.get("outputs", ["trace", "summary"])
    certificates = {}
    if kind == "tad":
        sarl = learner.get("sarl", "vi")
        # the learner's defaults under the given options, null counting as
        # absent, each of its default's type
        options = {key: type(default)(default if learner.get(key) is None else learner[key])
                   for key, default in SARL_OPTIONS[sarl].items()}
        resolved = {"kind": kind, "sarl": sarl, "distill": distill, **options}
        try:
            step_discount(model)
        except ValueError as exc:
            raise SchemaError(f"the tad learner cannot run on {env_name}: {exc}") from exc
        policies, trace = tad_run(model, sarl=sarl, distill=distill, seed=seed, **options)
    else:
        lr = float(learner.get("lr", 0.05 if model.horizon == 1 else 0.01))
        steps = int(learner.get("steps", 20000))
        log_every = int(learner.get("log_every", max(1, steps // 200)))
        resolved = {"kind": kind, "lr": lr, "steps": steps, "log_every": log_every}
        if kind == "mapg":
            params0 = _init_mapg(init_cfg, model)
            params, trace = run_mapg(model, params0, lr=lr, steps=steps, log_every=log_every)
            policies = params.policies()
        else:
            variant = learner.get("variant", "vdn")
            resolved["variant"] = variant
            params0 = _init_vd(init_cfg, variant, model)
            params, trace = run_vd(model, params0, lr=lr, steps=steps, log_every=log_every)
            acts = np.argmax(params.q_local, axis=2)
            policies = DecentralizedPolicySet.deterministic(acts, model.n_actions)
        # the descent logs its last step, at the returned params
        norm = trace.grad_norm[-1]
        certificates["stationarity"] = {"ok": norm < STATIONARITY_TOL, "grad_norm": norm,
                                        "tol": STATIONARITY_TOL}

    final_return = evaluate_policy(model, policies)
    saved = {"type": "decentralized", "tables": policies.tables.tolist()}
    codes = greedy_codes(policies.tables)
    greedy_return = evaluate_policy(model, DeterministicJointPolicy(codes))
    optimal_return, _ = brute_force_optimal(model)
    summary = {
        "env": env_name,
        "seed": seed,
        "learner": resolved,
        "final_return": final_return,
        "greedy_return": greedy_return,
        "optimal_return": optimal_return,
        "suboptimality_gap": optimal_return - greedy_return,
        "greedy_policy": [int(c) for c in codes],
        "certificates": certificates,
        # oracle_vi_tol is the oracle's advantage tolerance; the key keeps its
        # value-iteration name so that summaries stay byte-identical
        "tolerances": {"oracle_vi_tol": ORACLE_TOL, "stationarity_tol": STATIONARITY_TOL},
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


def cmd_run(args):
    try:
        summary = _execute(_load_config(args.config), args.seed, args.out)
    except (SchemaError, SizeGuardError, GdDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# claim verification

def cmd_verify(args):
    if args.seed < 0:
        print(f"error: --seed must be a non-negative integer, got {args.seed}",
              file=sys.stderr)
        return 2
    title, claim = CLAIMS[args.claim]
    print(f"claim {args.claim}: {title}")
    record = claim(seed=args.seed)
    for label, ok, detail in record.checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    print(f"claim {args.claim}: {'PASS' if record.ok else 'FAIL'}")
    return 0 if record.ok else 1


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
