import json

from qkdkit.cli import main
from qkdkit.scenario import EXIT_ABORTED, EXIT_CONFIG_ERROR, EXIT_OK


def write_config(tmp_path, **overrides):
    cfg = {
        "name": "cli-test",
        "master_seed": 5,
        "rounds": 1,
        "protocol": {"n_pulses": 16384, "decoy_probability": 0.1, "strategy": {"mode": "symmetric"}},
        "channel": {"transmittance": 0.9},
        "eve": {"kind": "none"},
    }
    cfg.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_clean_scenario_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    assert "status: ok" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["rounds"][0]["e_x"] == "0.000000"
    assert report["exit_code"] == EXIT_OK


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfg), "--out-dir", str(out1)])
    main(["run", "--config", str(cfg), "--out-dir", str(out2)])
    for name in ("report.json", "rounds.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_changes_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfg), "--out-dir", str(out1)])
    main(["run", "--config", str(cfg), "--seed", "77", "--out-dir", str(out2)])
    assert (out1 / "rounds.csv").read_bytes() != (out2 / "rounds.csv").read_bytes()


def test_run_full_interception_returns_abort_code(tmp_path):
    cfg = write_config(tmp_path, eve={"kind": "intercept_resend", "fraction": 1.0})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_ABORTED
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "aborted"
    assert abs(float(report["rounds"][0]["e_x"]) - 0.25) < 0.01


def test_run_without_detections_returns_abort_code(tmp_path):
    cfg = write_config(tmp_path, channel={"transmittance": 0.0})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_ABORTED
    report = json.loads((out / "report.json").read_text())
    assert (report["status"], report["reason"]) == ("aborted", "empty-sample")


def test_config_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG_ERROR
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"rounds": 1}))
    assert main(["run", "--config", str(missing)]) == EXIT_CONFIG_ERROR


def test_retired_auth_settings_exit_one(tmp_path, capsys):
    # runs tag at t = w = 64 and sign with Lamport 128/128 keys; a config
    # that still sets one of the old knobs fails at load
    for key, value in (("ots_security_bits", 128), ("ots_digest_bits", 128), ("ots_scheme", "lamport"),
                       ("mac_tag_bits", 64), ("mac_word_bits", 64)):
        cfg = write_config(tmp_path, auth={"mode": "ots_bootstrap", key: value})
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert f"config field auth/{key}: unknown field" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_sweep_writes_ascending_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "swp"
    code = main(
        ["sweep", "--config", str(cfg), "--param", "p_z", "--values", "0.9,0.5,0.7",
         "--out-dir", str(out)]
    )
    assert code == EXIT_OK
    lines = (out / "sweep_p_z.csv").read_text().splitlines()
    assert lines[0].startswith("parameter,value,")
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == [0.5, 0.7, 0.9]
    finals = [int(line.split(",")[5]) for line in lines[1:]]
    assert finals == sorted(finals)  # key length grows with basis asymmetry


def test_empty_sweep_emits_header_only(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "swp"
    assert main(["sweep", "--config", str(cfg), "--param", "threshold", "--values", "",
                 "--out-dir", str(out)]) == EXIT_OK
    lines = (out / "sweep_threshold.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("parameter,")


def test_sweep_unknown_parameter_exits_one(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--param", "nope", "--values", "1"]) == EXIT_CONFIG_ERROR
    assert main(["sweep", "--config", str(cfg), "--param", "nope", "--values", ""]) == EXIT_CONFIG_ERROR


def test_topology_check(tmp_path, capsys):
    topo = tmp_path / "topo.txt"
    topo.write_text(
        "node A end_user\nnode B end_user\nnode R trusted_relay\n"
        "link A R qkd 1000\nlink R B qkd 1000\n"
    )
    assert main(["topology-check", "--topology", str(topo)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nodes: 3" in out and "preshared pairs needed for pairwise keys: 3" in out
    bad = tmp_path / "bad.txt"
    bad.write_text("node A end_user\nlink A B qkd x\n")
    assert main(["topology-check", "--topology", str(bad)]) == EXIT_CONFIG_ERROR
    assert "line 2" in capsys.readouterr().err


def test_mosca_verb(capsys):
    assert main(["mosca", "--shelf-life", "10", "--migration", "5", "--quantum-arrival", "12"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "AT RISK" in out and "-3.00" in out
    assert main(["mosca", "--shelf-life", "1", "--migration", "1", "--quantum-arrival", "10"]) == EXIT_OK
    assert "safe" in capsys.readouterr().out


def test_out_dir_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QKDKIT_OUT_DIR", str(tmp_path / "envout"))
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert (tmp_path / "envout" / "report.json").exists()
