import pytest

from fogca import cli, curve, wire
from fogca.integrity import AffinityStore, perturb_profile
from fogca.scenarios import device_profile


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_args_prints_usage(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["handshake", "--bogus"])
        assert err.value.code == 2

    def test_attack_requires_seed(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["attack", "--scenario", "replay"])
        assert err.value.code == 2

    def test_experiment_requires_seed(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["experiment", "--setting", "FogOnly", "--out", "x.csv"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        "experiment --setting FogOnly --nodes -1 --seed 1 --out x.csv",
        "handshake --seed 1 --nodes -3",
        "register --seed 1 --id " + "x" * 65,
        "register --seed 1 --id " + "\u00e9" * 33,  # 33 letters, 66 bytes
        "peer --seed 1 --from a --to a",
    ], ids=["negative-nodes", "negative-handshake", "long-id", "long-utf8-id",
            "peer-to-itself"])
    def test_bad_value_exits_2_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv.split())
        assert err.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("command",
                             ["setup", "register", "handshake", "peer"])
    def test_curve_offers_exactly_the_presets(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--help"])
        assert err.value.code == 0
        offered = "{" + ",".join(curve.PRESETS) + "}"
        assert f"--curve {offered}" in capsys.readouterr().out


class TestSetup:
    def test_prints_decodable_announcement(self, capsys):
        code, out, _ = run(capsys, ["setup", "--curve", "toy17", "--seed", "3"])
        assert code == 0
        ann = wire.decode(bytes.fromhex(out.strip()))
        assert isinstance(ann, wire.Announcement)
        assert ann.params == curve.toy17()

    def test_seed_changes_key(self, capsys):
        _, out1, _ = run(capsys, ["setup", "--curve", "toy17", "--seed", "1"])
        _, out2, _ = run(capsys, ["setup", "--curve", "toy17", "--seed", "2"])
        assert out1 != out2


class TestHandshake:
    def test_three_nodes_all_ok(self, capsys):
        code, out, _ = run(capsys, ["handshake", "--nodes", "3",
                                    "--curve", "toy17", "--seed", "1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.endswith("key-agreement: OK") for line in lines)

    def test_register_single(self, capsys):
        code, out, _ = run(capsys, ["register", "--curve", "toy17",
                                    "--seed", "2", "--id", "cam-9"])
        assert code == 0 and "cam-9" in out and "OK" in out


class TestPeer:
    def test_peer_exchange(self, capsys):
        code, out, _ = run(capsys, ["peer", "--from", "child-a",
                                    "--to", "child-b", "--seed", "5",
                                    "--curve", "toy17"])
        assert code == 0
        assert "established, keys equal" in out


class TestAttack:
    @pytest.mark.parametrize("scenario,expected", [
        ("replay", "ReplayDetected"),
        ("impersonate", "BadProof"),
        ("tamper", "KeyMismatch"),
    ])
    def test_blocked_scenarios_exit_zero(self, capsys, scenario, expected):
        code, out, _ = run(capsys, ["attack", "--scenario", scenario,
                                    "--seed", "7"])
        assert code == 0
        assert expected in out
        assert "blocked" in out

    def test_passive_reports_clean(self, capsys):
        code, out, _ = run(capsys, ["attack", "--scenario", "passive",
                                    "--seed", "7"])
        assert code == 0
        assert "no secrets" in out


class TestIvv:
    def make_files(self, tmp_path, tamper: bool):
        base, rep = AffinityStore(), AffinityStore()
        profile = device_profile(b"cam-01")
        base.provision(profile, b"\x01" * 32)
        rep.provision(perturb_profile(profile, "os_digest") if tamper
                      else profile, b"\x01" * 32)
        bp, rp = tmp_path / "base.txt", tmp_path / "report.txt"
        base.save(bp)
        rep.save(rp)
        return str(bp), str(rp)

    def test_match_exits_zero(self, capsys, tmp_path):
        bp, rp = self.make_files(tmp_path, tamper=False)
        code, out, _ = run(capsys, ["ivv", "--profile", bp, "--report", rp])
        assert code == 0 and "match" in out

    def test_mismatch_exits_one_and_names_field(self, capsys, tmp_path):
        bp, rp = self.make_files(tmp_path, tamper=True)
        code, out, _ = run(capsys, ["ivv", "--profile", bp, "--report", rp])
        assert code == 1 and "os_digest" in out

    def test_malformed_file_is_an_error_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("# baseline\nnot-hex 01 trusted 0\n")
        code, out, err = run(capsys, ["ivv", "--profile", str(bad),
                                      "--report", str(bad)])
        assert code == 1 and out == ""
        assert err.startswith("error: MalformedRecord: line 2: ")

    def test_missing_file_is_an_error_line(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run(capsys, ["ivv", "--profile", missing,
                                      "--report", missing])
        assert code == 1 and out == ""
        assert err.startswith("error: FileNotFoundError: ")
        assert missing in err and "Traceback" not in err


class TestExperiment:
    def test_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "run.csv"
        code, out, _ = run(capsys, ["experiment", "--setting", "FogOnly",
                                    "--nodes", "5", "--seed", "2",
                                    "--out", str(out_path)])
        assert code == 0
        assert out_path.exists()
        header = out_path.read_text().splitlines()[0]
        assert header == "setting,nodes,txn_type,mean_ms,p50_ms,p95_ms," \
                         "max_ms,retransmits,cloud_tasks,fog_tasks"


class TestParityWithLibrary:
    def test_cli_handshake_matches_library(self, capsys):
        # the CLI is a shell: the same seed through the library gives the
        # same announcement bytes
        import random
        from fogca import authority
        code, out, _ = run(capsys, ["setup", "--curve", "prod256",
                                    "--seed", "11"])
        _, ann = authority.setup(curve.prod256(), random.Random(11))
        assert out.strip() == wire.encode(ann).hex()


class TestExperimentParity:
    def test_cli_experiment_matches_library(self, capsys, tmp_path):
        from dataclasses import replace
        from fogca import experiments as ex
        out_path = tmp_path / "cli.csv"
        code, _, _ = run(capsys, ["experiment", "--setting", "MainlyFog",
                                  "--nodes", "8", "--seed", "3",
                                  "--out", str(out_path)])
        assert code == 0
        lib_path = tmp_path / "lib.csv"
        workload = replace(ex.DEFAULT_WORKLOAD, node_count=8)
        stats = ex.run_experiment(ex.placement("MainlyFog"), workload, seed=3)
        ex.export_csv([("MainlyFog", 8, stats)], lib_path)
        assert out_path.read_bytes() == lib_path.read_bytes()
