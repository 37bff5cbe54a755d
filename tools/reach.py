"""Which functions of a Python package a set of inputs never calls.

Runs these inputs in one process under `sys.setprofile`:

- `tadlab verify 1..4 --seed 0`;
- `tadlab run` on each `configs/*.json`, into a temporary directory;
- `tadlab run` of a `vd` learner on a layered episodic env file, of a
  `mapg` learner from a `file` init, and of a short `tad` `softmax_pg`
  learner with `"distill": "kl"` on `table1`, all written to that
  directory;
- `tadlab env list`, `env dump table1` and `transform report table1`;
- one pass of the benchmark's `solve` workload (`perfbench/workloads.py`,
  loaded by path and only read).

It prints how many functions `src/tadlab` defines, nested ones included,
then each function that no input called, as `module.py:line name`. A
function that no input calls must stay for a reason that `KEEP` gives, or
be nested in one that does; `main` exits 1 on any other, and on an input
that fails.

    python3 tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: a two-step layered model: state 0 at step 0 moves to state 1 at step 1
LAYERED_ENV = {"n_states": 2, "n_agents": 2, "n_actions": 2, "gamma": 0.9, "horizon": 2,
               "initial_dist": [1.0, 0.0],
               "transition": [[[0.0, 1.0]] * 4, [[1.0, 0.0]] * 4],
               "reward": [[1.0, 0.0, 0.0, 2.0], [0.5, 0.0, 0.0, 1.0]]}

#: the package `main` reports on
PACKAGE = ROOT / "src" / "tadlab"

#: the functions no input calls that stay in the package, as
#: `module.qualified_name`, and why; a function nested in one counts as kept
KEEP = {
    "analysis.grad_check": "acceptance criterion 8",
    "analysis.local_min_certificate": "named in perfbench/tracer.py",
    "analysis.ne_count_expectation": "acceptance criterion 7",
    "analysis.ne_count_exact": "acceptance criterion 7",
    "core.joint_digits": "acceptance criteria 1, 3 and 6",
    "learners.VdParams.zeros": "acceptance criterion 3",
    "learners.VdParams.random": "acceptance criteria 8 and 9",
    "learners.VdParams.joint_table": "acceptance criteria 3 and 6",
    "learners.ReplicaTraces.step": "read by the step counter of perfbench/tracer.py",
    "learners.mapg_loss_and_grad": "named in perfbench/tracer.py",
    "learners.vd_loss_and_grad": "named in perfbench/tracer.py",
    "learners.igm_consistent": "acceptance criterion 9, through igm_check",
    "learners.igm_check": "acceptance criterion 9",
    "learners._scaled_norms": "the overflow path of gd_run's gradient norms",
    "learners.value_iteration": "named in perfbench/tracer.py",
    "learners.q_learning": "named in perfbench/tracer.py",
    "transform.inverse_transform": "acceptance criterion 9",
    "transform.lower_policy": "acceptance criterion 9; named in perfbench/tracer.py",
}


def defined_functions(package):
    """Every function defined in the .py files under `package`, nested ones
    included: (path, line of its `def`, first line of its code, qualified
    name). The first line of the code is a decorator's when it has one."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found.append((path, child.lineno, first, prefix + child.name))
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(Path(package).resolve().rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def profile_reach(package, run):
    """Call `run()` under `sys.setprofile` and return (functions, unreached):
    the functions defined under `package` as `defined_functions` lists
    them, and those that no call during `run()` entered."""
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(record)
    try:
        run()
    finally:
        sys.setprofile(None)
    reached = {(os.path.realpath(name), line) for name, line in called}
    functions = defined_functions(package)
    unreached = [f for f in functions if (os.path.realpath(f[0]), f[2]) not in reached]
    return functions, unreached


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # @dataclass looks its module up here
    spec.loader.exec_module(workloads)
    return workloads


def run_inputs(out_dir):
    """Run every input listed in the module docstring, writing run outputs
    under `out_dir`; returns the labels of the inputs that failed."""
    import tadlab
    import tadlab.cli

    out = Path(out_dir)
    argvs = [["verify", str(claim), "--seed", "0"] for claim in range(1, 5)]
    argvs += [["run", str(path), "--seed", "0", "--out", str(out / path.stem)]
              for path in sorted((ROOT / "configs").glob("*.json"))]
    env, init = out / "layered_env.json", out / "init.json"
    env.write_text(json.dumps(LAYERED_ENV))
    init.write_text(json.dumps({"logits": [[[0.0, 0.0, 0.0]]] * 2}))
    short = {"steps": 20, "log_every": 10}
    file_runs = {"layered_vd": {"env": str(env), "learner": {"kind": "vd", **short}},
                 "file_init": {"env": "table1", "learner": {"kind": "mapg", **short},
                               "init": {"mode": "file", "file": str(init)}},
                 "kl_distill": {"env": "table1", "distill": "kl",
                                "learner": {"kind": "tad", "sarl": "softmax_pg", **short}}}
    for name, config in file_runs.items():
        (out / f"{name}.json").write_text(json.dumps(config))
        argvs.append(["run", str(out / f"{name}.json"), "--seed", "0", "--out", str(out / name)])
    argvs += [["env", "list"], ["env", "dump", "table1"], ["transform", "report", "table1"]]
    failed = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = tadlab.cli.main(argv)
        if code != 0:
            failed.append(f"{' '.join(argv)}: exit {code}")
    solve = _load_workloads().WORKLOADS["solve"](ROOT, 0, out_dir)
    solve.build(tadlab)
    failed += [f"solve: {c.label}" for c in solve.run_pass(tadlab) if not c.ok]
    return failed


def kept(module, name):
    """The `KEEP` reason for `module.name`, or for the function it is
    nested in; None when there is none."""
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        reason = KEEP.get(".".join([module] + parts[:end]))
        if reason:
            return reason
    return None


def main():
    sys.path.insert(0, str(PACKAGE.parent))
    failed = []
    with tempfile.TemporaryDirectory() as out_dir:
        functions, unreached = profile_reach(
            PACKAGE, lambda: failed.extend(run_inputs(out_dir)))
    for label in failed:
        print(f"input failed: {label}", file=sys.stderr)
    print(f"{len(functions)} functions in {PACKAGE.name}, {len(unreached)} never called:")
    unkept = []
    for path, line, _, name in unreached:
        where = path.relative_to(PACKAGE)
        reason = kept(".".join(where.with_suffix("").parts), name)
        print(f"{where}:{line} {name}" + (f"  ({reason})" if reason else ""))
        if reason is None:
            unkept.append(f"{where}:{line} {name}")
    for label in unkept:
        print(f"never called and not in KEEP: {label}", file=sys.stderr)
    return 1 if failed or unkept else 0


if __name__ == "__main__":
    sys.exit(main())
