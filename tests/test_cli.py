import json

import numpy as np
import pytest

import tadlab.cli as cli
import tadlab.core
from tadlab import SizeGuardError, brute_force_optimal, learners
from tadlab.claims import CLAIMS, ClaimRecord
from tadlab import DecentralizedPolicySet, evaluate_policy
from tadlab.constructions import builtin_game


def write_config(path, config):
    path.write_text(json.dumps(config))
    return str(path)


MAPG_TRAP = {
    "env": "table1",
    "learner": {"kind": "mapg", "lr": 0.05, "steps": 3000, "log_every": 500},
    "init": {"mode": "concentrated", "target_joint_action": [1, 1], "scale": 5.0},
    "outputs": ["trace", "summary"],
}


def test_run_writes_outputs_and_reports_trap_gap(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", MAPG_TRAP)
    rc = cli.main(["run", cfg, "--seed", "1", "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["greedy_policy"] == [4]
    assert summary["suboptimality_gap"] == pytest.approx(5.0, abs=1e-9)
    header = (tmp_path / "out" / "trace.csv").read_text().splitlines()[0]
    assert header == "step,loss,grad_norm,return,greedy_policy"


def test_summary_return_matches_saved_policy(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", MAPG_TRAP)
    cli.main(["run", cfg, "--seed", "1", "--out", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    saved = json.loads((tmp_path / "out" / "policy.json").read_text())
    policies = DecentralizedPolicySet(np.asarray(saved["tables"]))
    again = evaluate_policy(builtin_game("table1"), policies)
    assert summary["final_return"] == pytest.approx(again, abs=1e-10)


def test_identical_seeds_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", MAPG_TRAP)
    cli.main(["run", cfg, "--seed", "3", "--out", str(tmp_path / "a")])
    cli.main(["run", cfg, "--seed", "3", "--out", str(tmp_path / "b")])
    for name in ("summary.json", "trace.csv", "policy.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_tad_on_env_file(tmp_path):
    env_path = tmp_path / "game.json"
    env_path.write_text(json.dumps({"matrix": [[-20, 10], [10, 9]]}))
    cfg = write_config(
        tmp_path / "cfg.json",
        {"env": str(env_path), "learner": {"kind": "tad", "sarl": "vi"}},
    )
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["final_return"] == pytest.approx(10.0, abs=1e-9)
    assert summary["suboptimality_gap"] == pytest.approx(0.0, abs=1e-9)


def test_file_init_mode(tmp_path):
    logits = np.zeros((2, 1, 3))
    logits[0, 0, 2] = 8.0
    logits[1, 0, 2] = 8.0
    (tmp_path / "params.json").write_text(json.dumps({"logits": logits.tolist()}))
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "env": "table1",
            "learner": {"kind": "mapg", "lr": 0.05, "steps": 2000},
            "init": {"mode": "file", "file": str(tmp_path / "params.json")},
        },
    )
    rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["greedy_policy"] == [8]  # stays at the (2, 2) trap
    assert summary["greedy_return"] == pytest.approx(1.0, abs=1e-9)


def test_missing_env_exits_2(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"learner": {"kind": "mapg"}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2


def test_unknown_env_exits_2(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", {"env": "nope", "learner": {"kind": "mapg"}}
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2


def test_unknown_learner_key_exits_2(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"env": "table1", "learner": {"kind": "mapg", "momentum": 0.9}},
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2


def test_size_guard_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(tadlab.core, "SIZE_GUARD", 4)
    cfg = write_config(
        tmp_path / "cfg.json", {"env": "table1", "learner": {"kind": "tad"}}
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 3


def test_size_guard_exit_line_is_the_oracles_message(tmp_path, monkeypatch, capsys):
    # one guard: the CLI refuses before the learner with the oracle's own error
    monkeypatch.setattr(tadlab.core, "SIZE_GUARD", 8)
    with pytest.raises(SizeGuardError) as raised:
        brute_force_optimal(builtin_game("table1"))
    cfg = write_config(tmp_path / "cfg.json", {"env": "table1", "learner": {"kind": "mapg"}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"error: {raised.value}\n"
    assert str(raised.value) == "1 states x 9 joint actions exceeds the enumeration guard (8)"
    assert not (tmp_path / "out").exists()


def test_divergence_exits_4(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "env": "matgame2",
            "learner": {"kind": "vd", "variant": "duplex", "lr": 1e3, "steps": 500},
            "init": {"mode": "concentrated", "target_joint_action": [1, 1]},
        },
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 4


def test_clipped_pg_divergence_exits_4_with_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {
        "env": "table1", "learner": {"kind": "tad", "sarl": "clipped_pg", "lr": 1e308}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "non-finite loss or gradient" in err
    assert not (tmp_path / "out").exists()


# the suite turns warnings into errors, so a run that warns before its
# `error:` line fails here
@pytest.mark.parametrize("env,learner", [
    ("table1", {"kind": "tad", "sarl": "softmax_pg", "lr": 1e308}),
    ("matgame2", {"kind": "vd", "variant": "duplex", "lr": 1e308}),
    ("table1", {"kind": "tad", "sarl": "q_learning", "lr": 5.0, "sweeps": 2000}),
], ids=["tad-softmax-pg", "vd-duplex", "tad-q-learning"])
def test_diverging_run_prints_only_its_error_line(tmp_path, capsys, env, learner):
    cfg = write_config(tmp_path / "cfg.json", {"env": env, "learner": learner})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_env_list_and_dump_round_trip(capsys, tmp_path):
    assert cli.main(["env", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "table1" in names and "multitask_10" in names

    assert cli.main(["env", "dump", "table1"]) == 0
    text = capsys.readouterr().out
    data = json.loads(text)
    assert data["reward"] == [[10.0, -30.0, -30.0, -30.0, 5.0, -30.0, -30.0, -30.0, 1.0]]
    env_path = tmp_path / "dumped.json"
    env_path.write_text(text)
    from tadlab import load_env_file

    model = load_env_file(env_path)
    assert np.array_equal(model.reward, builtin_game("table1").reward)


def test_env_dump_unknown_exits_2():
    assert cli.main(["env", "dump", "mystery"]) == 2


@pytest.mark.parametrize("name", ["multitask_01", "multitask_+1", "multitask_1_0",
                                  "multitask_ 3"])
def test_env_dump_refuses_other_spellings_of_a_builtin(capsys, name):
    assert cli.main(["env", "dump", name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown builtin game")
    assert len(captured.err.splitlines()) == 1
    assert cli.main(["env", "list"]) == 0
    assert capsys.readouterr().out.split() == (
        ["table1", "matgame2"] + [f"multitask_{i}" for i in range(1, 11)]
        + ["multitask_suite"])


def test_transform_report(capsys):
    assert cli.main(["transform", "report", "table1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"bound": True, "original_sa": 9, "transformed_sa": 12}


def test_transform_report_refuses_a_boolean_among_numbers(tmp_path, capsys):
    # numpy reads [true, 0] as integers; the env loader refuses it all the same
    env_path = tmp_path / "game.json"
    env_path.write_text('{"matrix": [[true, 0], [0, 1]]}')
    assert cli.main(["transform", "report", str(env_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert "bad environment file" in captured.err


def test_verify_claim_3(capsys):
    assert cli.main(["verify", "3", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "100 cases" in out


def test_verify_prints_failed_check_and_exits_1(capsys, monkeypatch):
    failed = ClaimRecord((("kept", True, "fine"), ("broken", False, "off by 1")), {})
    monkeypatch.setitem(CLAIMS, 2, ("a claim", lambda seed: failed))
    assert cli.main(["verify", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["claim 2: a claim", "  [PASS] kept: fine",
                   "  [FAIL] broken: off by 1", "claim 2: FAIL"]


@pytest.mark.parametrize("claim", ["1", "2", "3", "4"])
def test_verify_negative_seed_exits_2_before_any_work(capsys, monkeypatch, claim):
    def refuse(seed):
        raise AssertionError("the claim ran")
    monkeypatch.setitem(CLAIMS, int(claim), ("a claim", refuse))
    assert cli.main(["verify", claim, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def _refuse_to_learn(*args, **kwargs):
    raise AssertionError("the learner ran")


def test_run_negative_seed_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_load_config", _refuse_to_learn)
    cfg = write_config(tmp_path / "cfg.json", MAPG_TRAP)
    assert cli.main(["run", cfg, "--seed", "-3", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be a non-negative integer, got -3\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["existing-file", "under-a-file"])
def test_run_out_that_cannot_be_a_directory_exits_2_before_the_learner(
        tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(cli, "run_mapg", _refuse_to_learn)
    cfg = write_config(tmp_path / "cfg.json", MAPG_TRAP)
    blocker = tmp_path / "taken"
    blocker.write_text("kept")
    out = blocker if case == "existing-file" else blocker / "out" / "deeper"
    assert cli.main(["run", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot create the output directory ")
    assert len(captured.err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]
    assert blocker.read_text() == "kept"


def test_a_failed_run_removes_only_the_directories_it_made(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {
        "env": "matgame2", "learner": {"kind": "vd", "variant": "duplex", "lr": 1e308}})
    (tmp_path / "kept").mkdir()
    assert cli.main(["run", cfg, "--out", str(tmp_path / "kept" / "a" / "b")]) == 4
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "kept"]
    assert not any((tmp_path / "kept").iterdir())


def _probe(learner=None, **fields):
    """A table1 config with a 10-step mapg learner updated by `learner`; a
    tad learner holds only the keys given, so it takes each of them."""
    learner = learner or {}
    base = {} if learner.get("kind") == "tad" else {"kind": "mapg", "steps": 10}
    config = {"env": "table1", "learner": {**base, **learner}}
    config.update(fields)
    return config


#: an integer literal that JSON reads exactly and float() cannot hold
_HUGE = "1" + "0" * 400

#: (id, config, a fragment of the one error line that names the fault)
_BAD_FIELDS = [
    ("lr-string", _probe({"lr": "abc"}), "'lr'"),
    ("lr-zero", _probe({"lr": 0}), "'lr'"),
    ("lr-negative", _probe({"lr": -0.5}), "'lr'"),
    ("lr-huge-int", _probe({"lr": int(_HUGE)}), "'lr'"),
    ("tad-pg-lr-huge-int", _probe({"kind": "tad", "sarl": "softmax_pg", "lr": int(_HUGE)}),
     "'lr'"),
    ("steps-negative", _probe({"steps": -3}), "'steps'"),
    ("steps-fraction", _probe({"steps": 2.5}), "'steps'"),
    ("log-every-zero", _probe({"log_every": 0}), "'log_every'"),
    ("vd-steps-negative", _probe({"kind": "vd", "steps": -3}), "'steps'"),
    ("sweeps-zero", _probe({"kind": "tad", "sarl": "q_learning", "sweeps": 0}), "'sweeps'"),
    ("sweeps-huge-int", _probe({"kind": "tad", "sarl": "q_learning", "sweeps": 10**38}),
     "'sweeps'"),
    ("steps-huge-int", _probe({"steps": 10**39}), "'steps'"),
    ("tad-pg-steps-huge-int", _probe({"kind": "tad", "sarl": "softmax_pg", "steps": 10**39}),
     "'steps'"),
    ("tol-zero", _probe({"kind": "tad", "sarl": "vi", "tol": 0.0}), "'tol'"),
    ("tol-huge-int", _probe({"kind": "tad", "sarl": "vi", "tol": int(_HUGE)}), "'tol'"),
    ("clip-negative", _probe({"kind": "tad", "sarl": "clipped_pg", "clip": -0.1}), "'clip'"),
    ("clip-huge-int", _probe({"kind": "tad", "sarl": "clipped_pg", "clip": int(_HUGE)}),
     "'clip'"),
    ("init-not-object", _probe(init="uniform"), "'init'"),
    ("init-file-missing", _probe(init={"mode": "file", "file": "no/such/params.json"}),
     "init file not found"),
    ("init-file-absent", _probe(init={"mode": "file"}), "init file not found"),
    ("tad-init-concentrated",
     _probe({"kind": "tad"}, init={"mode": "concentrated", "target_joint_action": [9, 9],
                                   "scale": "big"}),
     "takes no 'init'"),
    # an existing file that holds no params: the init is refused before it is read
    ("tad-init-file", _probe({"kind": "tad"}, init={"mode": "file", "file": __file__}),
     "takes no 'init'"),
    ("outputs-string", _probe(outputs="trace"), "'outputs'"),
    ("kind-list", _probe({"kind": ["mapg"]}), "learner kind"),
    ("target-out-of-range",
     _probe(init={"mode": "concentrated", "target_joint_action": [5, 5]}),
     "target_joint_action"),
    ("target-string", _probe(init={"mode": "concentrated", "target_joint_action": "ab"}),
     "target_joint_action"),
    ("vd-target-not-integer",
     _probe({"kind": "vd"}, init={"mode": "concentrated", "target_joint_action": ["a", 1]}),
     "target_joint_action"),
    ("scale-string",
     _probe(init={"mode": "concentrated", "target_joint_action": [1, 1], "scale": "big"}),
     "'scale'"),
    ("scale-huge-int",
     _probe(init={"mode": "concentrated", "target_joint_action": [1, 1],
                  "scale": int(_HUGE)}),
     "'scale'"),
]


@pytest.mark.parametrize("config,fragment", [case[1:] for case in _BAD_FIELDS],
                         ids=[case[0] for case in _BAD_FIELDS])
def test_bad_config_fields_exit_2_with_one_line(tmp_path, capsys, config, fragment):
    cfg = write_config(tmp_path / "cfg.json", config)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert fragment in err
    assert not (tmp_path / "out").exists()


def test_each_init_mode_takes_only_its_own_keys(tmp_path, capsys):
    init_path = tmp_path / "params.json"
    init_path.write_text(json.dumps({"logits": np.zeros((2, 1, 3)).tolist()}))
    file_init = {"mode": "file", "file": str(init_path)}
    for init, stray in (
            ({"mode": "concentrated", "target_joint_action": [1, 1], "scal": 50.0}, "scal"),
            ({"mode": "uniform", "scale": 5.0}, "scale"),
            ({**file_init, "target_joint_action": [1, 1]}, "target_joint_action")):
        cfg = write_config(tmp_path / "cfg.json", _probe(init=init))
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown init keys") and len(err.splitlines()) == 1
        assert repr(stray) in err
        assert not (tmp_path / "out").exists()
    # without the stray key the file init runs
    cfg = write_config(tmp_path / "cfg.json", _probe(init=file_init))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0


def test_run_fills_the_defaults_that_configs_leave_out(tmp_path):
    from tadlab import (MapgParams, VdParams, load_env_file, mapg_loss_and_grad,
                        vd_loss_and_grad)

    env_path = tmp_path / "env.json"
    env_path.write_text(json.dumps(_layered_env(np.random.default_rng(0))))
    out = tmp_path / "out"
    for env, learner, echoed in (
            ("table1", {"kind": "mapg", "steps": 10}, {"lr": 0.05, "log_every": 1}),
            (str(env_path), {"kind": "vd", "steps": 400},
             {"variant": "vdn", "lr": 0.01, "log_every": 2})):
        cfg = write_config(tmp_path / "cfg.json", {"env": env, "learner": learner})
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["learner"] == {**learner, **echoed}
    # a concentrated init without a scale starts mapg at logit 5 and vd at
    # local value 1 on each agent's target action
    init = {"mode": "concentrated", "target_joint_action": [1, 0]}
    for env, model, kind, value in (("table1", builtin_game("table1"), "mapg", 5.0),
                                    (str(env_path), load_env_file(env_path), "vd", 1.0)):
        cfg = write_config(tmp_path / "cfg.json", {
            "env": env, "learner": {"kind": kind, "steps": 0}, "init": init})
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        table = np.zeros((model.n_agents, model.n_states, model.n_actions))
        table[0, :, 1] = table[1, :, 0] = value
        if kind == "mapg":
            loss, grad = mapg_loss_and_grad(MapgParams(table), model)
        else:
            loss, grad = vd_loss_and_grad(VdParams("vdn", table), model)
            grad = grad.pack()
        row = (out / "trace.csv").read_text().splitlines()[1].split(",")
        assert row[:3] == ["0", repr(float(loss)), repr(float(np.linalg.norm(grad)))]


def _unreadable_input(tmp_path, case):
    """argv for a run or report whose config, env or init file cannot be read
    as JSON text: a directory, or bytes that are not UTF-8."""
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"note": "caf\xe9"}')
    folder = tmp_path / "folder.json"
    folder.mkdir()
    out = ["--out", str(tmp_path / "out")]
    if case == "config-dir":
        return ["run", str(folder), *out]
    if case == "config-not-utf8":
        return ["run", str(not_utf8), *out]
    if case == "env-dir-report":
        return ["transform", "report", str(folder)]
    if case == "env-dir-run":
        config = _probe({"kind": "tad"}, env=str(folder))
    else:
        config = _probe(init={"mode": "file", "file": str(not_utf8)})
    return ["run", write_config(tmp_path / "cfg.json", config), *out]


@pytest.mark.parametrize("case", ["config-dir", "config-not-utf8", "env-dir-run",
                                  "env-dir-report", "init-not-utf8"])
def test_unreadable_input_files_exit_2_with_one_line(tmp_path, capsys, case):
    assert cli.main(_unreadable_input(tmp_path, case)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert ("Is a directory" if "dir" in case else "can't decode") in captured.err
    assert not (tmp_path / "out").exists()


def test_clipped_pg_null_clip_takes_the_default(tmp_path):
    config = {"env": "table1", "learner": {"kind": "tad", "sarl": "clipped_pg",
                                           "steps": 5, "clip": None}}
    cfg = write_config(tmp_path / "cfg.json", config)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["learner"]["clip"] == 0.2


#: a valid value of every tad learner option
_TAD_VALUES = {"tol": 1e-8, "sweeps": 5, "lr": 0.5, "steps": 3, "log_every": 1, "clip": 0.3}


@pytest.mark.parametrize("sarl", sorted(learners.SARL_OPTIONS))
def test_tad_block_takes_exactly_its_learners_options(tmp_path, capsys, sarl):
    assert set(_TAD_VALUES) == set().union(*learners.SARL_OPTIONS.values())
    own = {key: _TAD_VALUES[key] for key in learners.SARL_OPTIONS[sarl]}
    for key in sorted(set(_TAD_VALUES) - set(own)):
        learner = {"kind": "tad", "sarl": sarl, key: _TAD_VALUES[key]}
        cfg = write_config(tmp_path / "bad.json", {"env": "table1", "learner": learner})
        assert cli.main(["run", cfg, "--out", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: unknown learner keys for {sarl}: ['{key}']\n"
        assert not (tmp_path / "bad").exists()
    # the summary echoes exactly the options the learner ran with
    for given, echoed in ((own, own), ({}, learners.SARL_OPTIONS[sarl])):
        learner = {"kind": "tad", "sarl": sarl, **given}
        cfg = write_config(tmp_path / "cfg.json", {"env": "table1", "learner": learner})
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["learner"] == {"kind": "tad", "sarl": sarl, "distill": "greedy",
                                      **echoed}


def test_q_learning_options_reach_the_learner_and_the_summary(tmp_path, monkeypatch):
    calls = []
    sweep = learners.layered_q_learning

    def spy(model, **options):
        calls.append(options)
        return sweep(model, **options)

    monkeypatch.setattr(learners, "layered_q_learning", spy)
    learner = {"kind": "tad", "sarl": "q_learning", "sweeps": 40, "lr": 0.9}
    cfg = write_config(tmp_path / "cfg.json", {"env": "matgame2", "learner": learner})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert calls == [{"sweeps": 40, "lr": 0.9}]
    assert summary["learner"] == {**learner, "distill": "greedy"}
    # the sweep loop's record: sweep 20 of 40 changed no bit of the table
    assert summary["certificates"] == {"fixed_point": {"ok": True, "sweeps": 20}}


@pytest.mark.parametrize("text", [
    '{"matrix": [[1, NaN], [0, 1]]}', '{"matrix": 5}',
    '{"matrix": [[1, 2], [3, 4]], "gamma": null}',
    '{"matrix": [[1, 2], [3, 4]], "gamma": [0.9]}',
    '{"matrix": [[true, 0], [0, 1]]}',
])
def test_bad_matrix_shorthand_exits_2(tmp_path, capsys, text):
    env_path = tmp_path / "game.json"
    env_path.write_text(text)
    cfg = write_config(tmp_path / "cfg.json",
                       {"env": str(env_path), "learner": {"kind": "tad"}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "bad environment file" in err


@pytest.mark.parametrize("text", [
    '{"matrix": [[%s, 0], [0, 1]]}' % _HUGE,
    '{"matrix": [[1, 0], [0, 1]], "gamma": %s}' % _HUGE,
], ids=["matrix", "gamma"])
def test_integer_beyond_the_float_range_exits_2(tmp_path, capsys, text):
    env_path = tmp_path / "game.json"
    env_path.write_text(text)
    assert cli.main(["transform", "report", str(env_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "bad environment file" in err


@pytest.mark.parametrize("kind,contents", [
    ("mapg", {"q_local": [[[0.0, 0.0, 0.0]]] * 2}),
    ("mapg", {"logits": [[[0.0, 0.0]]] * 2}),
    ("mapg", {"logits": "zeros"}),
    ("mapg", [[[0.0, 0.0, 0.0]]]),
    ("vd", {"logits": [[[0.0, 0.0, 0.0]]] * 2}),
    ("vd", {"q_local": [[[0.0, 0.0, 0.0]]] * 3}),
    ("duplex", {"q_local": [[[0.0, 0.0, 0.0]]] * 2, "lam_raw": [[[0.0] * 3]] * 2}),
    ("mapg", {"logits": [[[True, "2", 0]], [[0, 0, "1e1"]]]}),
    ("mapg", {"logits": [[[float("nan"), 0, 0]], [[0, 0, 0]]]}),
    ("mapg", {"logits": [[[float("inf"), 0, 0]], [[0, 0, 0]]]}),
    ("vd", {"q_local": [[[False, "3", 0]], [[0, 0, 0]]]}),
    ("mapg", {"logits": [[[True, False, True]], [[0, 0, 0]]]}),
], ids=["mapg-lacks-logits", "mapg-wrong-shape", "mapg-not-numeric", "mapg-not-object",
        "vd-lacks-q-local", "vd-wrong-shape", "duplex-lam-wrong-shape",
        "mapg-bools-and-strings", "mapg-nan", "mapg-infinity",
        "vd-bool-and-string", "mapg-bools-and-numbers"])
def test_bad_init_file_contents_exit_2(tmp_path, capsys, kind, contents):
    init_path = tmp_path / "params.json"
    init_path.write_text(json.dumps(contents))
    learner = {"kind": "vd", "variant": kind} if kind == "duplex" else {"kind": kind}
    cfg = write_config(tmp_path / "cfg.json", _probe(
        learner, init={"mode": "file", "file": str(init_path)}))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("what, text, fragment", [
    ("config", None, "config file not found: "),
    ("config", "{", "cannot read config file "),
    ("config", "[1, 2]", "must hold a JSON object"),
    ("init", "{", "cannot read init file "),
    ("init", '"logits"', "must hold a JSON object"),
], ids=["config-missing", "config-not-json", "config-list", "init-not-json", "init-string"])
def test_an_unreadable_config_or_init_file_exits_2_naming_it(tmp_path, capsys, what, text,
                                                            fragment):
    # the config and the init file go through one reader, which names the file
    path = tmp_path / f"{what}.json"
    cfg = tmp_path / "config.json"
    if what == "init":
        write_config(cfg, _probe(init={"mode": "file", "file": str(path)}))
    if text is not None:
        path.write_text(text)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert fragment in err and str(path) in err
    assert not (tmp_path / "out").exists()


def test_vd_file_init_reads_each_mixer_array(tmp_path):
    from tadlab import VdParams, vd_loss_and_grad

    q_local = np.eye(3)[[1, 1]][:, None, :]  # both agents favour action 1
    for variant, extra in (("duplex", {"lam_raw": np.full((2, 1, 9), 0.7)}),
                           ("monotonic", {"w_raw": np.array([[0.5], [-0.5]])}),
                           ("duplex", {"lam_raw": None})):
        init_path = tmp_path / "params.json"
        init_path.write_text(json.dumps({"q_local": q_local.tolist(), **{
            k: None if v is None else v.tolist() for k, v in extra.items()}}))
        cfg = write_config(tmp_path / "cfg.json", _probe(
            {"kind": "vd", "variant": variant, "steps": 0},
            init={"mode": "file", "file": str(init_path)}))
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        _, grad = vd_loss_and_grad(VdParams(variant, q_local, **extra), builtin_game("table1"))
        assert summary["greedy_policy"] == [4]
        assert summary["certificates"]["stationarity"]["grad_norm"] == np.linalg.norm(grad.pack())


def test_full_env_file_with_bad_fields_exits_2(tmp_path, capsys):
    from tadlab.core import mmdp_to_dict

    base = mmdp_to_dict(builtin_game("table1"))
    for key, value in (("gamma", None), ("n_states", None), ("horizon", "one"),
                       ("reward", {"a": 1}), ("initial_dist", [float("nan")]),
                       ("horizon", 1.7), ("horizon", True), ("n_agents", 2.0)):
        env_path = tmp_path / f"{key}.json"
        env_path.write_text(json.dumps({**base, key: value}))
        cfg = write_config(tmp_path / "cfg.json",
                           {"env": str(env_path), "learner": {"kind": "tad"}})
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "bad environment file" in err


def test_env_with_no_actions_and_negative_agents_exits_2(tmp_path, capsys):
    # 0 ** -1 joint actions has no value; the counts are refused, not raised on
    env = {"n_states": 1, "n_agents": -1, "n_actions": 0, "gamma": 0.9,
           "initial_dist": [1.0], "transition": [[[1.0]]], "reward": [[0.0]]}
    env_path = tmp_path / "env.json"
    env_path.write_text(json.dumps(env))
    cfg = write_config(tmp_path / "cfg.json", {"env": str(env_path), "learner": {"kind": "tad"}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "n_agents must be positive, got -1" in err


# ---------------------------------------------------------------------------
# seeded fuzz: malformed env and config dicts made by mutating valid ones

#: mutations by field type; every one makes the field invalid
_MUTATIONS = {
    "count": ("negative", "zero", "fraction", "bool", "string", "null", "nan", "inf",
              "list", "huge-int"),
    # env files take integers only; learner counts also take integral floats
    "integer": ("negative", "zero", "fraction", "float", "bool", "string", "null", "nan",
                "inf", "list"),
    "real": ("nan", "inf", "-inf", "bool", "string", "null", "list", "object", "too-low",
             "huge-int"),
    "array": ("string", "null", "scalar", "object", "nan-entry", "inf-entry",
              "string-entry", "bool-entries", "ragged", "wrong-shape"),
}


def _mutate(kind, how, value, low, rng):
    """A malformed stand-in for a field `value` of type `kind`; `low` is a
    number outside the field's range."""
    k = int(rng.integers(1, 9))
    simple = {
        "negative": -k, "zero": 0, "fraction": k + 0.5, "float": float(k),
        "bool": bool(rng.integers(2)), "string": str(k), "null": None,
        "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "list": [k],
        "object": {"value": k}, "too-low": low, "scalar": float(k), "huge-int": int(_HUGE),
    }
    if how in simple:
        return simple[how]
    flat = np.asarray(value, dtype=float)
    if how == "bool-entries":
        return (flat > 0).tolist()
    if how == "ragged":
        return [value, [0.0]]
    if how == "wrong-shape":
        return np.resize(flat, flat.shape[:-1] + (flat.shape[-1] + 1,)).tolist()
    broken = flat.astype(object)
    broken.flat[int(rng.integers(flat.size))] = {
        "nan-entry": float("nan"), "inf-entry": float("inf"), "string-entry": "0.5"}[how]
    return broken.tolist()


def _mutations(base, fields, rng, required):
    """One malformed copy of `base` per (field, mutation) in `fields`, one
    per missing required key, and one with an unknown key. `fields` maps
    paths into nested dicts (tuples) to (type, out-of-range value, whether
    null is allowed)."""
    cases = []
    for path, (kind, low, nullable) in fields.items():
        for how in _MUTATIONS[kind]:
            if (how == "zero" and low < 0) or (how == "null" and nullable):
                continue
            case = json.loads(json.dumps(base))
            parent = case
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = _mutate(kind, how, parent[path[-1]], low, rng)
            cases.append((f"{'.'.join(path)}:{how}", case))
    for key in required:
        cases.append((f"missing {key}", {k: v for k, v in base.items() if k != key}))
    cases.append(("unknown key", {**base, "comment": "x"}))
    return cases


def _layered_env(rng):
    """A layered horizon-2 env dict with two agents of two actions: state 0,
    then states 1 and 2."""
    transition = np.zeros((3, 4, 3))
    transition[0, :, 1:] = rng.dirichlet([1.0, 1.0], size=4)
    transition[1:, :, 0] = 1.0
    return {"n_states": 3, "n_agents": 2, "n_actions": 2, "gamma": 0.9, "horizon": 2,
            "initial_dist": [1.0, 0.0, 0.0], "transition": transition.tolist(),
            "reward": rng.standard_normal((3, 4)).tolist()}


def _fuzz_cases(rng):
    """(label, config, env dict or None) for every mutation of the valid
    env dicts and configs below."""
    from tadlab.constructions import random_mmdp
    from tadlab.core import mmdp_to_dict

    env = _layered_env(rng)
    env_fields = {(key,): ("integer", 0, key == "horizon")
                  for key in ("n_states", "n_agents", "n_actions", "horizon")}
    env_fields[("gamma",)] = ("real", -0.5, False)
    env_fields.update({(key,): ("array", 0, False)
                       for key in ("initial_dist", "transition", "reward")})
    matrix = {"matrix": [[1.0, 0.0], [0.0, 1.0]], "gamma": 0.5}
    envs = (_mutations(env, env_fields, rng, set(env) - {"horizon"})
            + _mutations(matrix, {("matrix",): ("array", 0, False),
                                  ("gamma",): ("real", -1.0, False)}, rng, ["matrix"]))
    envs.append(("not layered", mmdp_to_dict(random_mmdp(2, 2, 2, gamma=0.9, rng=3,
                                                         horizon=2))))
    envs.append(("gamma zero", {**env, "gamma": 0.0}))  # tad cannot split it
    cases = [(f"env {label}", {"learner": {"kind": "tad"}}, bad) for label, bad in envs]
    concentrated = {"mode": "concentrated", "target_joint_action": [1, 1], "scale": 5.0}
    configs = [
        ({"env": "table1", "learner": {"kind": "mapg", "lr": 0.05, "steps": 5,
                                       "log_every": 1}, "init": concentrated},
         {("learner", "lr"): ("real", 0.0, False),
          ("init", "scale"): ("real", float("nan"), False)}),
        ({"env": "matgame2", "learner": {"kind": "vd", "variant": "duplex", "lr": 0.01,
                                         "steps": 5}, "outputs": ["trace"]},
         {("learner", "steps"): ("count", -1, False)}),
        ({"env": "table1", "learner": {"kind": "tad", "sarl": "clipped_pg", "lr": 1.0,
                                       "steps": 5, "clip": 0.2, "log_every": 2},
          "distill": "kl"},
         {("learner", "clip"): ("real", -0.1, True),
          ("learner", "log_every"): ("count", 0, False)}),
        ({"env": "table1", "learner": {"kind": "tad", "sarl": "vi", "tol": 1e-10}},
         {("learner", "tol"): ("real", 0.0, False)}),
        ({"env": "matgame2", "learner": {"kind": "tad", "sarl": "q_learning",
                                         "sweeps": 5}},
         {("learner", "sweeps"): ("count", 0, False)}),
    ]
    for i, (config, fields) in enumerate(configs):
        for label, bad in _mutations(config, fields, rng, ["env", "learner"]):
            cases.append((f"config {i} {label}", bad, None))
        learner = config["learner"]
        for key, values in (("kind", (None, 3, "mapg ", ["mapg"])),
                            ("variant", ("qmix", None, 2)), ("sarl", ("ppo", None, 2, ["vi"])),
                            ("beta", (0.5,))):
            if key in learner or key == "beta":
                for value in values:
                    bad = {**config, "learner": {**learner, key: value}}
                    cases.append((f"config {i} learner.{key}={value!r}", bad, None))
        for key, values in (("env", ("table2", 5, None, [], {"file": 5})),
                            ("learner", ("mapg", None, {})),
                            ("init", ("uniform", [], {"mode": "random"},
                                      {"mode": "file", "file": 3}, {"mode": "file"},
                                      {**concentrated, "scal": 50.0},
                                      {"mode": "uniform", "scale": 5.0},
                                      # an existing file: the stray key is refused
                                      {"mode": "file", "file": __file__,
                                       "target_joint_action": [1, 1]})),
                            ("outputs", ("trace", ["trace", 1], ["plots"], None)),
                            ("distill", ("soft", ["kl"], None))):
            for value in values:
                cases.append((f"config {i} {key}={value!r}", {**config, key: value}, None))
    # a key that the chosen single-agent learner does not take
    for sarl, key, value in (("vi", "lr", 0.05), ("q_learning", "steps", 5),
                             ("softmax_pg", "clip", 0.2), ("clipped_pg", "tol", 1e-6)):
        bad = {"env": "table1", "learner": {"kind": "tad", "sarl": sarl, key: value}}
        cases.append((f"{sarl} with {key}", bad, None))
    for value in ([1], [1, 1, 1], [1, -1], [1, 3], [True, 1], [1.0, 1], "11", None):
        bad = {**configs[0][0], "init": {**concentrated, "target_joint_action": value}}
        cases.append((f"target={value!r}", bad, None))
    return cases


def test_fuzzed_env_and_config_dicts_exit_2_with_one_line(tmp_path, capsys):
    cases = _fuzz_cases(np.random.default_rng(2022))
    assert len(cases) >= 200
    failures = []
    for i, (label, config, env) in enumerate(cases):
        out = tmp_path / f"out{i}"
        if env is not None:
            config = {**config, "env": str(tmp_path / f"env{i}.json")}
            (tmp_path / f"env{i}.json").write_text(json.dumps(env))
        cfg = write_config(tmp_path / f"cfg{i}.json", config)
        try:
            rc = cli.main(["run", cfg, "--out", str(out)])
        except Exception as exc:  # a traceback, in a real run
            rc = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if rc != 2 or len(err.splitlines()) != 1 or not err.startswith("error: ") \
                or "Traceback" in err or out.exists():
            failures.append(f"{label}: exit {rc}, stderr {err!r}")
    assert not failures, f"{len(failures)} of {len(cases)} cases:\n" + "\n".join(failures)


@pytest.mark.parametrize("name", ["policy.json", "trace.csv"])
def test_an_output_that_cannot_be_written_exits_2_with_one_line(tmp_path, capsys, name):
    cfg = write_config(tmp_path / "cfg.json", {
        "env": "matgame2", "learner": {"kind": "vd", "variant": "vdn", "steps": 10}})
    (tmp_path / "out" / name).mkdir(parents=True)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {tmp_path / 'out' / name}: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("learner, distill", [
    ({"kind": "tad", "sarl": "vi"}, "greedy"),
    ({"kind": "tad", "sarl": "vi"}, "kl"),
    ({"kind": "tad", "sarl": "q_learning"}, "greedy"),
    ({"kind": "tad", "sarl": "softmax_pg", "steps": 5}, "greedy"),
    ({"kind": "tad", "sarl": "clipped_pg", "steps": 5}, "kl"),
    ({"kind": "mapg", "steps": 5}, "greedy"),
    ({"kind": "vd", "variant": "duplex", "steps": 5}, "greedy"),
], ids=["tad-vi", "tad-vi-kl", "tad-q-learning", "tad-softmax-pg", "tad-clipped-pg-kl",
        "mapg", "vd-duplex"])
def test_a_model_whose_values_overflow_exits_4_with_one_error_line(tmp_path, capsys,
                                                                    learner, distill):
    from tadlab.constructions import random_mmdp
    from tadlab.core import mmdp_to_dict

    data = mmdp_to_dict(random_mmdp(2, 2, 2, gamma=0.99, rng=0))
    data["reward"] = np.full((2, 4), 1e308).tolist()
    env = tmp_path / "env.json"
    env.write_text(json.dumps(data))
    cfg = write_config(tmp_path / "cfg.json",
                       {"env": str(env), "learner": learner, "distill": distill})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_an_overflowing_greedy_return_after_a_finite_run_leaves_no_directory(tmp_path, capsys):
    # the uniform MA-PG point (steps 0) has a finite return, but its greedy
    # play, joint action 0, pays 1e308 / (1 - 0.5), as does the optimum
    data = {"n_states": 1, "n_agents": 2, "n_actions": 2, "gamma": 0.5,
            "initial_dist": [1.0], "transition": [[[1.0]] * 4],
            "reward": [[1e308, 0.0, 0.0, 0.0]]}
    env = tmp_path / "env.json"
    env.write_text(json.dumps(data))
    cfg = write_config(tmp_path / "cfg.json",
                       {"env": str(env), "learner": {"kind": "mapg", "steps": 0}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err == "error: the return overflowed the float range\n"
    assert not (tmp_path / "out").exists()
