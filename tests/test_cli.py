import json
import math

import pytest

from acsbm import write_edge_list
from acsbm.cli import main


@pytest.fixture
def triangles_file(tmp_path, triangle_pair):
    path = tmp_path / "triangles.edges"
    write_edge_list(triangle_pair, path)
    return path


class TestGenerate:
    def test_generate_ppm_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "inst"
        rc = main(["generate-ppm", "--n", "40", "--k", "2", "--avg-degree", "6",
                   "--ratio", "0.2", "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert out.with_suffix(".edges").exists()
        assert out.with_suffix(".labels").exists()
        meta = json.loads(out.with_suffix(".json").read_text())
        assert meta["kind"] == "ppm" and meta["p_in"] > 0
        assert "wrote" in capsys.readouterr().out

    def test_generate_sbm_sidecar_has_planted_omega(self, tmp_path):
        out = tmp_path / "inst"
        rc = main(["generate-sbm", "--n", "30", "--k", "3", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        meta = json.loads(out.with_suffix(".json").read_text())
        assert len(meta["planted_omega"]) == 3

    def test_bad_ratio_fails(self, tmp_path, capsys):
        rc = main(["generate-ppm", "--n", "40", "--k", "2", "--avg-degree", "6",
                   "--ratio", "1.7", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["generate-sbm", "--n", "10", "--k", "2", "--diag-range", "nan,1"],
        ["generate-sbm", "--n", "10", "--k", "2", "--diag-range", "0,inf"],
        ["generate-ppm", "--n", "4", "--k", "4", "--avg-degree", "2",
         "--ratio", "0"],
        ["generate-ppm", "--n", "1", "--k", "1", "--avg-degree", "0.5",
         "--ratio", "0.5"],
    ])
    def test_degenerate_spec_fails_cleanly(self, tmp_path, capsys, argv):
        rc = main(argv + ["--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())


class TestFit:
    def test_triangles_reach_global_optimum(self, tmp_path, triangles_file):
        out = tmp_path / "result.json"
        rc = main(["fit", "--graph", str(triangles_file), "--k", "2",
                   "--model", "ac-dc-sbm", "--runs", "5", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["best"]["log_likelihood"] == pytest.approx(
            6 * math.log(2) - 6, abs=1e-9)
        assert result["best"]["lambda"] >= 0
        assert len(result["runs_summary"]) == 5
        assert sorted(result["best"]["partition"]) == [0, 0, 0, 1, 1, 1]

    def test_modularity_model_reports_block_sizes(self, capsys, triangles_file):
        rc = main(["fit", "--graph", str(triangles_file), "--k", "3",
                   "--model", "modularity", "--runs", "5", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "block_sizes" in out

    def test_mode_flag_requires_ac_model(self, capsys, triangles_file):
        rc = main(["fit", "--graph", str(triangles_file), "--k", "2",
                   "--model", "dc-sbm", "--mode", "weak"])
        assert rc == 1
        assert "--mode" in capsys.readouterr().err

    def test_weak_mode_accepted(self, tmp_path, triangles_file):
        out = tmp_path / "r.json"
        rc = main(["fit", "--graph", str(triangles_file), "--k", "2",
                   "--model", "ac-dc-sbm", "--mode", "weak", "--runs", "3",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["best"]["mode"] == "weak"

    def test_missing_file_nonzero_exit(self, capsys):
        rc = main(["fit", "--graph", "/nonexistent.edges", "--k", "2"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("max_sweeps", ["0", "-3"])
    def test_max_sweeps_below_one_fails(self, capsys, triangles_file,
                                        max_sweeps):
        rc = main(["fit", "--graph", str(triangles_file), "--k", "2",
                   "--max-sweeps", max_sweeps])
        assert rc == 1
        out, err = capsys.readouterr()
        assert err.startswith("error:") and "max_sweeps" in err
        assert "best" not in out

    def test_workers_below_one_fails(self, capsys, triangles_file):
        rc = main(["fit", "--graph", str(triangles_file), "--k", "2",
                   "--runs", "2", "--workers", "0"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert err.startswith("error:") and "workers" in err
        assert "best" not in out

    def test_result_json_deterministic(self, tmp_path, triangles_file):
        args = ["fit", "--graph", str(triangles_file), "--k", "2",
                "--model", "ac-dc-sbm", "--runs", "3", "--seed", "4"]
        assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_one_based_input(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2\n2 3\n3 1\n4 5\n5 6\n6 4\n")
        out = tmp_path / "r.json"
        rc = main(["fit", "--graph", str(path), "--k", "2", "--one-based",
                   "--runs", "5", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["best"]["log_likelihood"] == \
            pytest.approx(6 * math.log(2) - 6, abs=1e-9)


class TestEval:
    def test_identical_labels_print_one(self, tmp_path, capsys):
        path = tmp_path / "labels.txt"
        path.write_text("0\n0\n1\n1\n")
        rc = main(["eval", "--pred", str(path), "--truth", str(path)])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) == 1.0

    def test_generate_fit_eval_round_trip(self, tmp_path, capsys):
        prefix = tmp_path / "inst"
        assert main(["generate-ppm", "--n", "60", "--k", "2", "--avg-degree",
                     "8", "--ratio", "0.05", "--seed", "5",
                     "--out", str(prefix)]) == 0
        result = tmp_path / "fit.json"
        assert main(["fit", "--graph", str(prefix.with_suffix(".edges")),
                     "--k", "2", "--model", "ac-dc-sbm", "--runs", "5",
                     "--seed", "2", "--out", str(result)]) == 0
        pred = tmp_path / "pred.labels"
        best = json.loads(result.read_text())["best"]
        pred.write_text("".join(f"{b}\n" for b in best["partition"]))
        capsys.readouterr()
        assert main(["eval", "--pred", str(pred),
                     "--truth", str(prefix.with_suffix(".labels"))]) == 0
        score = float(capsys.readouterr().out.strip())
        assert score == pytest.approx(1.0)  # ratio 0.05 is easily recovered


class TestBench:
    def test_ppm_bench_runs(self, tmp_path, capsys):
        plan = {"kind": "ppm-sweep", "models": ["dc-sbm"], "runs": 1,
                "n": 20, "k": 2, "avg_degree": 5.0, "ratios": [0.1]}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        rc = main(["bench", "ppm", "--plan", str(plan_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "ppm_sweep.csv").exists()

    def test_kind_mismatch_fails(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"kind": "sbm-ensemble"}))
        rc = main(["bench", "ppm", "--plan", str(plan_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_unknown_plan_key_fails_cleanly(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"kind": "ppm-sweep", "solver_tol": 1e-8}))
        rc = main(["bench", "ppm", "--plan", str(plan_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "solver_tol" in err

    @pytest.mark.parametrize("plan, named", [
        ([1, 2], "JSON object"),
        ({"kind": "ppm-sweep", "runs": "5"}, "'runs'"),
    ])
    def test_badly_typed_plan_fails_cleanly(self, tmp_path, capsys, plan, named):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        rc = main(["bench", "ppm", "--plan", str(plan_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_sbm_range_fails_cleanly(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"kind": "sbm-ensemble", "n": 10, "k": 2, "datasets": 1,
             "diag_range": [0.4, math.inf]}))
        rc = main(["bench", "sbm", "--plan", str(plan_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "finite" in err and "Traceback" not in err

    def test_real_bench(self, tmp_path, capsys, triangle_pair):
        graph_path = tmp_path / "net.edges"
        write_edge_list(triangle_pair, graph_path)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"kind": "real-network", "models": ["ac-dc-sbm"], "runs": 3}))
        rc = main(["bench", "real", "--plan", str(plan_path), "--graph",
                   str(graph_path), "--k", "2", "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "real_report.json").read_text())
        assert report["models"]["ac-dc-sbm"]["assortativity_level"] == "strong"

    def test_real_bench_zero_k_fails(self, tmp_path, capsys, triangle_pair):
        # --k 0 is a block count of 0, not "use the plan's k"
        graph_path = tmp_path / "net.edges"
        write_edge_list(triangle_pair, graph_path)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"kind": "real-network", "models": ["dc-sbm"], "runs": 1, "k": 2}))
        rc = main(["bench", "real", "--plan", str(plan_path), "--graph",
                   str(graph_path), "--k", "0", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "k must be >= 1" in err
        assert not (tmp_path / "out").exists()


class TestUsage:
    def test_unknown_flag_exits_with_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--nope"])
        assert exc.value.code == 2

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])
