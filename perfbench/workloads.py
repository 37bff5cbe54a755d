"""The benchmark's workloads: the inputs each builds and what one pass runs.

A workload builds its inputs from the seed in ``build`` (timed as set-up,
and repeated before every pass) and runs its fixed task list in
``run_pass``, which returns one ``Check`` per correctness check. Workloads call only public ``tadlab`` names and
``tadlab.cli.main``, looked up on the module at call time, so a tracer that
has replaced them is seen. An exception in a task is a failed check.

``small=True`` gives a reduced-size pass of the same shape, used by the
benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Check:
    label: str
    ok: bool
    detail: str = ""


def _attempt(checks, label, task):
    """Run ``task() -> (ok, detail)`` and record it; raising counts as failing."""
    try:
        ok, detail = task()
    except (Exception, SystemExit):
        ok, detail = False, traceback.format_exc()
    checks.append(Check(label, bool(ok), detail))


def _cli(tadlab, argv):
    """``tadlab.cli.main(argv)`` with its output captured: (exit code, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = tadlab.cli.main(argv)
    return code, buf.getvalue()


class Claims:
    """``tadlab verify 1..4 --seed <seed>``: the claim reproductions."""

    name = "claims"

    def __init__(self, root, seed, work_dir, small=False):
        self.seed = seed
        self.claims = ("3",) if small else ("1", "2", "3", "4")

    def build(self, tadlab):
        self.argvs = [["verify", c, "--seed", str(self.seed)] for c in self.claims]

    def run_pass(self, tadlab, tracer=None):
        checks = []
        for argv in self.argvs:
            def task(argv=argv):
                code, output = _cli(tadlab, argv)
                return code == 0, output
            _attempt(checks, " ".join(argv), task)
        return checks


#: suboptimality_gap each config reproduces; the nonzero gaps are trap results
GAP_REFERENCE = {
    "matgame2_duplex_counterexample": 1.0,
    "matgame2_vdn": 1.0,
    "multitask_tad_vi": 0.0,
    "table1_mapg_trap": 5.0,
    "table1_mapg_uniform": 0.0,
    "table1_tad_pg": 0.0,
}
SMALL_CONFIGS = ("matgame2_vdn", "multitask_tad_vi", "table1_tad_pg")
OUTPUT_FILES = ("trace.csv", "summary.json", "policy.json")
GAP_TOL = 1e-9


class Configs:
    """``tadlab run configs/<name>.json --seed <seed>``, each into a fresh directory."""

    name = "configs"

    def __init__(self, root, seed, work_dir, small=False):
        self.seed = seed
        self.config_dir = Path(root) / "configs"
        self.work_dir = Path(work_dir)
        self.stems = SMALL_CONFIGS if small else tuple(GAP_REFERENCE)
        self.passes = 0
        self.first_digests = {}

    def build(self, tadlab):
        self.paths = {}
        for stem in self.stems:
            path = self.config_dir / f"{stem}.json"
            with open(path) as fh:
                if not isinstance(json.load(fh), dict):
                    raise ValueError(f"{path} is not a JSON object")
            self.paths[stem] = path
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def run_pass(self, tadlab, tracer=None):
        self.passes += 1
        checks = []
        for stem, path in self.paths.items():
            out = self.work_dir / f"pass{self.passes}" / stem
            argv = ["run", str(path), "--seed", str(self.seed), "--out", str(out)]

            def run(argv=argv):
                code, output = _cli(tadlab, argv)
                return code == 0, output

            def gap(stem=stem, out=out):
                with open(out / "summary.json") as fh:
                    got = json.load(fh)["suboptimality_gap"]
                want = GAP_REFERENCE[stem]
                return abs(got - want) <= GAP_TOL, f"gap {got!r}, reference {want!r}"

            def identical(stem=stem, out=out):
                digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                           for f in OUTPUT_FILES}
                first = self.first_digests.setdefault(stem, digests)
                if tracer is not None:
                    tracer.add("cli.outputs.bytes",
                               sum((out / f).stat().st_size for f in OUTPUT_FILES))
                changed = [f for f in OUTPUT_FILES if digests[f] != first[f]]
                return not changed, f"differs from the first pass: {changed}"

            _attempt(checks, f"run {stem} exits 0", run)
            _attempt(checks, f"run {stem} gap", gap)
            _attempt(checks, f"run {stem} outputs identical across passes", identical)
        return checks


#: |oracle - distilled return| allowed for each tad_run
RETURN_TOL = 1e-8


class Solve:
    """transform -> solve -> distill on two seeded models, against the oracle.

    (a) a discounted MMDP, S=50, n=3, A=4, gamma=0.99, solved by value
    iteration; (b) a one-step game, k=3, n=7, solved by vi, synchronous
    q_learning, and vi with kl distillation.
    """

    name = "solve"

    def __init__(self, root, seed, work_dir, small=False):
        self.seed = seed
        self.mmdp_size = (6, 2, 3) if small else (50, 3, 4)
        self.game_size = (2, 4) if small else (3, 7)

    def build(self, tadlab):
        s, n, a = self.mmdp_size
        self.cases = (
            ("mmdp", tadlab.random_mmdp(s, n, a, gamma=0.99, rng=self.seed),
             ({"sarl": "vi"},)),
            ("game", tadlab.random_matrix_game(*self.game_size, self.seed),
             ({"sarl": "vi"}, {"sarl": "q_learning"}, {"sarl": "vi", "distill": "kl"})),
        )

    def run_pass(self, tadlab, tracer=None):
        checks = []
        for name, model, runs in self.cases:
            oracle = []
            for kwargs in runs:
                def task(model=model, kwargs=kwargs, oracle=oracle):
                    policies, _ = tadlab.tad_run(model, seed=self.seed, **kwargs)
                    # kl distillation returns softmax policies that are only
                    # near-deterministic; the claim is about their greedy play
                    greedy = tadlab.DecentralizedPolicySet.deterministic(
                        policies.greedy_actions(), model.n_actions)
                    got = tadlab.evaluate_policy(model, greedy)
                    if not oracle:
                        oracle.append(tadlab.brute_force_optimal(model)[0])
                    gap = abs(oracle[0] - got)
                    return gap <= RETURN_TOL, f"|oracle - distilled| = {gap:.3e}"
                _attempt(checks, f"{name} tad_run {kwargs}", task)
        return checks


WORKLOADS = {w.name: w for w in (Claims, Configs, Solve)}
