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
import dataclasses
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
    SizeGuardError,
    _floats,
    _real,
    brute_force_optimal,
    check_options,
    dump_env_text,
    episode_positions,
    evaluate_policy,
    greedy_codes,
    load_env_file,
    require_enumerable,
)
from .learners import (
    SARL_OPTIONS,
    STATIONARITY_TOL,
    VD_VARIANTS,
    GdDivergenceError,
    MapgParams,
    VdParams,
    run_mapg,
    run_vd,
    tad_run,
)
from .transform import size_report, step_discount


class SchemaError(ValueError):
    """Config or environment file does not match the documented schema."""


_EXIT_CODES = {SchemaError: 2, SizeGuardError: 3, GdDivergenceError: 4}


# ---------------------------------------------------------------------------
# config plumbing

#: the keys of the mapg and vd learners besides `kind`, each with its
#: default, or None where the default needs the steps (`log_every`) or the
#: model (`lr`); a tad learner takes `sarl` and that learner's `SARL_OPTIONS`
_DESCENT_OPTIONS = {"mapg": {"lr": None, "steps": 20000, "log_every": None},
                    "vd": {"variant": "vdn", "lr": None, "steps": 20000, "log_every": None}}
#: the keys each init mode takes
_INIT_KEYS = {
    "uniform": {"mode"},
    "concentrated": {"mode", "target_joint_action", "scale"},
    "file": {"mode", "file"},
}


def _read_json(path, what):
    """The JSON object in the file at `path`, the run's `what` file (config
    or init); SchemaError naming both when the file is missing, unreadable,
    not JSON or not an object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"{what} file not found: {path}") from exc
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read {what} file {path} as JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{what} file {path} must hold a JSON object")
    return data


def _load_config(path):
    """The config at `path`, checked against the schema and resolved: the
    returned copy has every default that needs no model filled in, so
    `_execute` reads fields, not defaults. That is the top-level `init`
    (with `mode` "uniform"; refused on a tad learner, which starts from no
    params), `distill` and `outputs`; the learner's `sarl`
    ("vi") or `variant` ("vdn"); a tad learner's absent options, and a null
    `clip`, from `SARL_OPTIONS`; a mapg or vd learner's `steps` (20000) and
    `log_every` (max(1, steps // 200)); and every numeric option as
    `check_options` normalizes it. Raises SchemaError on the first fault."""
    config = _read_json(path, "config")
    extra = set(config) - {"env", "learner", "init", "distill", "outputs"}
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
        known = {"sarl": name, **SARL_OPTIONS[name]}
    elif isinstance(kind, str) and kind in _DESCENT_OPTIONS:
        known = _DESCENT_OPTIONS[kind]
    else:
        raise SchemaError(f"unknown learner kind {kind!r}")
    extra = set(learner) - {"kind", *known}
    if extra:
        raise SchemaError(f"unknown learner keys for {name}: {sorted(extra)}")
    learner = {**{key: value for key, value in known.items() if value is not None},
               **{key: value for key, value in learner.items()
                  if not (key == "clip" and value is None)}}
    if kind == "vd" and learner["variant"] not in VD_VARIANTS:
        raise SchemaError(f"unknown vd variant {learner['variant']!r}")
    options = {key: learner[key] for key in OPTION_BOUNDS if key in learner}
    try:
        learner.update(zip(options, check_options(**options)))
    except ValueError as exc:
        raise SchemaError(f"learner {exc}") from exc
    if kind != "tad":
        learner.setdefault("log_every", max(1, learner["steps"] // 200))
    if kind == "tad" and "init" in config:
        raise SchemaError("a tad learner takes no 'init'")
    init = config.get("init", {})
    if not isinstance(init, dict):
        raise SchemaError("'init' must be an object")
    init = {"mode": "uniform", **init}
    if not isinstance(init["mode"], str) or init["mode"] not in _INIT_KEYS:
        raise SchemaError(f"unknown init mode {init['mode']!r}")
    extra = set(init) - _INIT_KEYS[init["mode"]]
    if extra:
        raise SchemaError(f"unknown init keys for {init['mode']}: {sorted(extra)}")
    if init["mode"] == "file" and not (isinstance(init.get("file"), str)
                                       and os.path.isfile(init["file"])):
        raise SchemaError(f"init file not found: {init.get('file')!r}")
    outputs = config.get("outputs", ["trace", "summary"])
    if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
        raise SchemaError("'outputs' must be a list of names")
    bad = set(outputs) - {"trace", "summary"}
    if bad:
        raise SchemaError(f"unknown outputs: {sorted(bad)}")
    distill = config.get("distill", "greedy")
    if distill not in ("greedy", "kl"):
        raise SchemaError(f"unknown distill mode {distill!r}")
    return dict(config, learner=learner, init=init, outputs=outputs, distill=distill)


def _resolve_env(spec):
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


def _init_arrays(path, shapes):
    """Arrays of a `file` init by name, each checked against its entry in
    `shapes`; the first is required, the others are None when absent or null."""
    data = _read_json(path, "init")
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


def _init_params(init, learner, model):
    """The start point of a mapg or vd run, `MapgParams(logits)` or
    `VdParams(variant, q_local)`: zero tables for a uniform init; `scale`
    at each agent's `target_joint_action` slot, zero elsewhere, for a
    concentrated one (`scale` defaults to 5 for mapg and 1 for vd); for a
    file init, the file's arrays at the zero point's shapes (`logits`, or
    `q_local` and the mixer's optional `w_raw`/`lam_raw`)."""
    n, s, a = model.n_agents, model.n_states, model.n_actions
    mapg = learner["kind"] == "mapg"
    table = np.zeros((n, s, a))
    if init["mode"] == "concentrated":
        target = init.get("target_joint_action")
        if not (isinstance(target, list) and len(target) == n and all(
                type(act) is int and 0 <= act < a for act in target)):
            raise SchemaError(f"concentrated init needs target_joint_action: one action "
                              f"in [0, {a}) per agent, got {target!r}")
        scale = init.get("scale", 5.0 if mapg else 1.0)
        try:
            ok = math.isfinite(_real(scale))
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            raise SchemaError(f"init 'scale' must be a finite number, got {scale!r}")
        table = MapgParams.concentrated(n, s, a, target, scale).logits
    params = MapgParams(table) if mapg else VdParams(learner["variant"], table)
    if init["mode"] == "file":
        shapes = {key: value.shape for key, value in vars(params).items()
                  if isinstance(value, np.ndarray)}
        params = dataclasses.replace(params, **_init_arrays(init["file"], shapes))
    return params


def _execute(config, seed, out_dir):
    """Run one config as `_load_config` resolves it at `seed`, write its
    outputs to `out_dir`, and return the summary dict. The one mapg and vd
    default that needs the model is set here: `lr` (0.05 on a one-step
    model, else 0.01). Once the learner returns its policies and trace,
    every kind takes one path: the summary's `certificates` is the trace's
    `record`, as the learner filled it.
    `out_dir` and its missing parents are made once the config is checked,
    before the learner runs (an OSError there is a SchemaError), and removed
    again if the learner, or the evaluation of its policies and the oracle
    (a return that overflows, say), fails."""
    model, env_name = _resolve_env(config["env"])
    require_enumerable(model)
    learner = config["learner"]
    if learner["kind"] == "tad":
        try:
            step_discount(model)
        except ValueError as exc:
            raise SchemaError(f"the tad learner cannot run on {env_name}: {exc}") from exc
    else:
        init = _init_params(config["init"], learner, model)
    created = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SchemaError(f"cannot create the output directory {out_dir}: "
                          f"{exc.strerror or exc}") from exc
    try:
        if learner["kind"] == "tad":
            resolved = {**learner, "distill": config["distill"]}
            policies, trace = tad_run(model, seed=seed, **{
                key: value for key, value in resolved.items() if key != "kind"})
        else:
            resolved = {"lr": 0.05 if model.horizon == 1 else 0.01, **learner}
            params, trace = (run_mapg if learner["kind"] == "mapg" else run_vd)(
                model, init, lr=resolved["lr"], steps=resolved["steps"],
                log_every=resolved["log_every"])
            policies = params.policies()
        final_return = evaluate_policy(model, policies)
        codes = greedy_codes(policies.tables)
        greedy_return = evaluate_policy(model, codes)
        optimal_return, _ = brute_force_optimal(model)
    except BaseException:
        for path in created:
            path.rmdir()
        raise

    saved = {"type": "decentralized", "tables": policies.tables.tolist()}
    summary = {
        "env": env_name,
        "seed": seed,
        "learner": resolved,
        "final_return": final_return,
        "greedy_return": greedy_return,
        "optimal_return": optimal_return,
        "suboptimality_gap": optimal_return - greedy_return,
        "greedy_policy": [int(c) for c in codes],
        "certificates": trace.record,
        # oracle_vi_tol is the oracle's advantage tolerance; the key keeps its
        # value-iteration name so that summaries stay byte-identical
        "tolerances": {"oracle_vi_tol": ORACLE_TOL, "stationarity_tol": STATIONARITY_TOL},
    }
    for name, data in (("policy.json", saved), ("trace.csv", trace), ("summary.json", summary)):
        path = out_dir / name
        if path.stem not in ("policy", *config["outputs"]):
            continue
        try:
            if name == "trace.csv":
                data.to_csv(path)
            else:
                path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise SchemaError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return summary


def cmd_run(args):
    summary = _execute(_load_config(args.config), args.seed, Path(args.out))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# claim verification

def cmd_verify(args):
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
        raise SchemaError(str(exc)) from exc
    print(dump_env_text(model))
    return 0


def cmd_transform(args):
    model, _ = _resolve_env(args.env)
    print(json.dumps(size_report(model), indent=2, sort_keys=True))
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
    """Run one subcommand; a SchemaError, SizeGuardError or
    GdDivergenceError prints one `error:` line and exits with its
    `_EXIT_CODES` code."""
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise SchemaError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.fn(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
