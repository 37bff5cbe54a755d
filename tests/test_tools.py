"""The rulers in tools/ that ROADMAP and CHANGES quote: the code-line
counter, the reach probe and the benchmark pair runner."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
reach = _load("reach")
bench_pairs = _load("bench_pairs")

#: a module whose code lines are the ones marked `# code`: docstrings,
#: comment-only lines and blank lines do not count
MODULE = '''"""Module docstring
on two lines."""

# a comment-only line
import os  # code


class Thing:  # code
    """Class docstring."""

    def method(self):  # code
        """Method docstring,
        on two lines."""
        # another comment
        return os.path.join(  # code
            "a",  # code
            "b",  # code
        )  # code
'''

FUNCTION = '''def function():
    "Function docstring."

    value = 1
    "a string expression, not a docstring"
    return value
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    assert code_lines.code_lines(path) == MODULE.count("# code") == 7
    path.write_text(FUNCTION)
    # def, the assignment, the string expression and the return
    assert code_lines.code_lines(path) == 4


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(MODULE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "fn.py").write_text(FUNCTION)
    (tmp_path / "__init__.py").write_text('"""Package docstring."""\n')
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == ("     0  __init__.py\n"
                                       "     7  mod.py\n"
                                       "     4  sub/fn.py\n"
                                       "    11  total\n")


@pytest.fixture
def probe_package(tmp_path, monkeypatch):
    """A package `reach_probe_pkg` on sys.path whose `mod` defines
    `called`, `never` and `never.nested`."""
    package = tmp_path / "reach_probe_pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text("def called():\n    return 1\n\n\n"
                                    "def never():\n    def nested():\n        return 2\n"
                                    "    return nested()\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "reach_probe_pkg", raising=False)
    monkeypatch.delitem(sys.modules, "reach_probe_pkg.mod", raising=False)
    return package


def _call_probe():
    importlib.import_module("reach_probe_pkg.mod").called()


def test_profile_reach_lists_the_function_that_no_call_entered(probe_package):
    functions, unreached = reach.profile_reach(probe_package, _call_probe)
    assert [(path.name, line, name) for path, line, _, name in functions] == [
        ("mod.py", 1, "called"), ("mod.py", 5, "never"), ("mod.py", 6, "never.nested")]
    assert [name for *_, name in unreached] == ["never", "never.nested"]


@pytest.mark.parametrize("keep, unkept", [
    ({"mod.never": "a reason"}, []),
    ({}, ["mod.py:5 never", "mod.py:6 never.nested"]),
    ({"mod.never.nested": "a reason"}, ["mod.py:5 never"]),
], ids=["kept-with-nested", "not-kept", "only-nested-kept"])
def test_reach_fails_on_a_never_called_function_outside_keep(probe_package, monkeypatch,
                                                            capsys, keep, unkept):
    monkeypatch.setattr(reach, "PACKAGE", probe_package)
    monkeypatch.setattr(reach, "KEEP", keep)
    monkeypatch.setattr(reach, "run_inputs", lambda out_dir: _call_probe() or [])
    assert reach.main() == (1 if unkept else 0)
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "3 functions in reach_probe_pkg, 2 never called:"
    assert err.splitlines() == [f"never called and not in KEEP: {label}" for label in unkept]


def test_reach_keeps_only_functions_defined_in_the_package():
    package = Path(reach.PACKAGE)
    defined = {f"{path.relative_to(package).with_suffix('')}.{name}".replace("/", ".")
               for path, _, _, name in reach.defined_functions(package)}
    assert set(reach.KEEP) <= defined


def _result(**values):
    """A canned `perfbench/run.py` result line with the given metric values."""
    units = {"wall_s": "s", "pass_rate": "ratio"}
    return {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}


def test_bench_pairs_summary_counts_strict_wins_in_each_metrics_direction():
    walls = [(3.0, 2.0), (4.0, 4.0), (5.0, 6.0), (6.0, 3.0), (2.0, 1.0)]
    rates = [(1.0, 1.0), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0), (0.5, 1.0)]
    runs = [{"parent": _result(wall_s=pw, pass_rate=pr),
             "change": _result(wall_s=cw, pass_rate=cr)}
            for (pw, cw), (pr, cr) in zip(walls, rates)]
    summary = bench_pairs.summarize(runs, {"wall_s": "lower", "pass_rate": "higher"})
    wall = summary["wall_s"]
    # parent 2, 3, 4, 5, 6 and change 1, 2, 3, 4, 6: inclusive quartiles
    assert wall["parent"] == {"median": 4.0, "q1": 3.0, "q3": 5.0}
    assert wall["change"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    # the tie at 4.0 counts for neither side
    assert (wall["change_wins"], wall["pairs"], wall["unit"]) == (3, 5, "s")
    assert wall["median_change_rel"] == -0.25 and wall["parent_iqr"] == 2.0
    rate = summary["pass_rate"]
    assert rate["change_wins"] == 2 and rate["median_change_rel"] == 0.0


def test_bench_pairs_summary_reproduces_a_committed_bench_file():
    doc = json.loads((TOOLS.parent / "BENCH_29.json").read_text())
    spec = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for workload in doc["workloads"].values():
        assert bench_pairs.summarize(workload["runs"], better) == workload["summary"]


def test_bench_pairs_runs_one_tree_at_a_time_parent_first_on_even_pairs(monkeypatch):
    calls = []

    def run_once(tree, workload, seed, seconds, trace=0):
        calls.append(tree)
        env = {"environment": {"seed": seed}, "raw_medians": {"passes": len(calls)}}
        return env, _result(wall_s=float(len(calls)))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    runs, env = bench_pairs.run_pairs({"parent": "P", "change": "C"}, "claims", 1, 40.0, 3)
    assert calls == ["P", "C", "C", "P", "P", "C"]
    assert [r["first"] for r in runs] == ["parent", "change", "parent"]
    assert runs[1]["change"]["metrics"]["wall_s"]["value"] == 3.0
    assert runs[1]["raw_medians"] == {"change": {"passes": 3}, "parent": {"passes": 4}}
    assert env == {"seed": 1}


@pytest.mark.parametrize("spec, want", [("configs=10", ("configs", "configs", 0, 10)),
                                        ("claims@1=4", ("claims_seed1", "claims", 1, 4))])
def test_bench_pairs_reads_workload_seed_and_pair_count(spec, want):
    assert bench_pairs.parse_pairs([spec]) == [want]


def test_bench_pairs_refuses_a_tree_with_a_bytecode_cache(tmp_path, monkeypatch, capsys):
    trees = [tmp_path / side for side in ("parent", "change")]
    for tree in trees:
        (tree / "src" / "pkg").mkdir(parents=True)
    (trees[1] / "src" / "pkg" / "__pycache__").mkdir()
    monkeypatch.setattr(bench_pairs, "run_pairs", lambda *args: pytest.fail("a run started"))
    code = bench_pairs.main([str(trees[0]), str(trees[1]), str(tmp_path / "out.json"),
                             "--pairs", "solve=1"])
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1
    assert err.startswith(f"error: {trees[1] / 'src' / 'pkg' / '__pycache__'} is a bytecode cache")
    assert not (tmp_path / "out.json").exists()
    assert bench_pairs.bytecode_caches(trees[:1]) == []


def test_bench_pairs_runs_each_child_without_writing_bytecode(monkeypatch):
    seen = []

    class Done:
        returncode, stderr = 0, ""
        stdout = '{"environment": {}}\n{"metrics": {}}\n'

    def run(cmd, **kwargs):
        seen.append(kwargs["env"].get("PYTHONDONTWRITEBYTECODE"))
        return Done()

    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.run_once("tree", "solve", 0, 1.0) == ({"environment": {}}, {"metrics": {}})
    assert seen == ["1"]


def test_reach_runs_a_layered_episodic_env_file():
    from tadlab.core import episode_positions, mmdp_from_dict

    model = mmdp_from_dict(reach.LAYERED_ENV)
    assert model.horizon == 2 and episode_positions(model).tolist() == [0, 1]
