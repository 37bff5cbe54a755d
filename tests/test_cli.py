import json

import numpy as np
import pytest

import tadlab.cli as cli
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
    monkeypatch.setattr(cli, "SIZE_GUARD", 4)
    cfg = write_config(
        tmp_path / "cfg.json", {"env": "table1", "learner": {"kind": "tad"}}
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


def test_seed_sweep_writes_sorted_merge(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "env": "matgame2",
            "learner": {"kind": "vd", "variant": "vdn", "lr": 0.5, "steps": 400},
        },
    )
    rc = cli.main(["run", cfg, "--seeds", "5,2", "--out", str(tmp_path / "out")])
    assert rc == 0
    sweep = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert [row["seed"] for row in sweep] == [2, 5]
    assert (tmp_path / "out" / "seed_2" / "summary.json").exists()
    assert (tmp_path / "out" / "seed_5" / "summary.json").exists()


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


def test_transform_report(capsys):
    assert cli.main(["transform", "report", "table1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"bound": True, "original_sa": 9, "transformed_sa": 12}


def test_verify_claim_3(capsys):
    assert cli.main(["verify", "3", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "100 cases" in out


def _probe(learner=None, **fields):
    config = {"env": "table1", "learner": {"kind": "mapg", "steps": 10, **(learner or {})}}
    config.update(fields)
    return config


@pytest.mark.parametrize("config", [
    _probe({"lr": "abc"}),
    _probe({"lr": 0}),
    _probe({"lr": -0.5}),
    _probe({"steps": -3}),
    _probe({"steps": 2.5}),
    _probe({"log_every": 0}),
    _probe({"kind": "vd", "steps": -3}),
    _probe({"kind": "tad", "sarl": "q_learning", "sweeps": 0}),
    _probe({"kind": "tad", "sarl": "vi", "tol": 0.0}),
    _probe({"kind": "tad", "sarl": "clipped_pg", "clip": -0.1}),
    _probe(init="uniform"),
    _probe(init={"mode": "file", "file": "no/such/params.json"}),
    _probe(init={"mode": "file"}),
    _probe(outputs="trace"),
], ids=["lr-string", "lr-zero", "lr-negative", "steps-negative", "steps-fraction",
        "log-every-zero", "vd-steps-negative", "sweeps-zero", "tol-zero",
        "clip-negative", "init-not-object", "init-file-missing", "init-file-absent",
        "outputs-string"])
def test_bad_config_fields_exit_2_with_one_line(tmp_path, capsys, config):
    cfg = write_config(tmp_path / "cfg.json", config)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_bad_seed_list_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", _probe())
    assert cli.main(["run", cfg, "--seeds", "a,b", "--out", str(tmp_path / "out")]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("text", ['{"matrix": [[1, NaN], [0, 1]]}', '{"matrix": 5}'])
def test_bad_matrix_shorthand_exits_2(tmp_path, capsys, text):
    env_path = tmp_path / "game.json"
    env_path.write_text(text)
    cfg = write_config(tmp_path / "cfg.json",
                       {"env": str(env_path), "learner": {"kind": "tad"}})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "bad environment file" in err
