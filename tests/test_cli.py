import json
import math
from pathlib import Path

import pytest

from acsbm import write_edge_list
from acsbm.cli import main
from acsbm.core import _json


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

    def test_dotted_prefix_kept_whole(self, tmp_path, capsys):
        # r0.25 and r0.30 would both have become r0.edges, .labels, .json
        for ratio in ("0.25", "0.30"):
            assert main(["generate-ppm", "--n", "40", "--k", "2", "--avg-degree",
                         "6", "--ratio", ratio, "--seed", "3",
                         "--out", str(tmp_path / "runs" / f"r{ratio}")]) == 0
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [
            f"r{ratio}.{ext}" for ratio in ("0.25", "0.30")
            for ext in ("edges", "json", "labels")]
        meta = json.loads((tmp_path / "runs" / "r0.30.json").read_text())
        assert meta["ratio"] == 0.3
        assert f"wrote {tmp_path / 'runs' / 'r0.30.edges'} " in capsys.readouterr().out

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
        ["generate-sbm", "--n", "10", "--k", "2", "--diag-range", "0,0",
         "--offdiag-range", "0,0"],
        ["generate-sbm", "--n", "10", "--k", "1", "--diag-range", "0,0"],
        ["generate-sbm", "--n", "1", "--k", "1"],
        ["generate-sbm", "--n", "2", "--k", "2", "--diag-range", "0,0",
         "--offdiag-range", "0,0.5"],
        ["generate-sbm", "--n", "10", "--k", "2", "--diag-range", "1"],
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
        assert "dc-sbm cannot take assortativity mode 'weak'" in capsys.readouterr().err

    def test_strong_mode_rejected_by_model_rule(self, capsys, triangles_file):
        # the CLI has no mode rule of its own: model_fit_config's is the one
        rc = main(["fit", "--graph", str(triangles_file), "--k", "2",
                   "--model", "dc-sbm", "--mode", "strong"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert err == "error: dc-sbm cannot take assortativity mode 'strong'\n"
        assert out == ""

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

    def test_workers_below_one_fails(self, capsys, triangles_file):
        rc = main(["fit", "--graph", str(triangles_file), "--k", "2",
                   "--runs", "2", "--workers", "0"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert err.startswith("error:") and "workers" in err
        assert "best" not in out

    def test_negative_seed_fails(self, capsys, triangles_file):
        # random.Random(-2) seeds like random.Random(2): runs from seed -2
        # would repeat those from seed 2
        rc = main(["fit", "--graph", str(triangles_file), "--k", "2",
                   "--runs", "5", "--seed", "-2"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert err == "error: seed must be >= 0, got -2\n" and not out

    def test_result_json_deterministic(self, tmp_path, triangles_file):
        args = ["fit", "--graph", str(triangles_file), "--k", "2",
                "--model", "ac-dc-sbm", "--runs", "3", "--seed", "4"]
        assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_graph_recorded_by_file_name(self, tmp_path, monkeypatch,
                                         triangle_pair):
        # the same graph and seeds give the same bytes however the path is
        # spelled, from any directory
        (tmp_path / "data").mkdir()
        write_edge_list(triangle_pair, tmp_path / "data" / "net.edges")
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"kind": "real-network", "models": ["dc-sbm", "ac-dc-sbm"], "runs": 2}))
        monkeypatch.chdir(tmp_path)
        for tag, graph in (("rel", "data/net.edges"),
                           ("abs", str(tmp_path / "data" / "net.edges"))):
            assert main(["fit", "--graph", graph, "--k", "2", "--runs", "2",
                         "--out", f"fit_{tag}.json"]) == 0
            assert main(["bench", "--plan", "plan.json", "--graph", graph,
                         "--k", "2", "--out", f"real_{tag}"]) == 0
        for a, b in (("fit_rel.json", "fit_abs.json"),
                     ("real_rel/real_report.json", "real_abs/real_report.json")):
            assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()
        assert json.loads((tmp_path / "fit_rel.json").read_text())["graph"] == "net.edges"

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
    @pytest.mark.parametrize("kind, table", [("ppm-sweep", "ppm_sweep.csv"),
                                             ("sbm-ensemble", "sbm_ensemble.csv"),
                                             ("real-network", "real_runs.csv")])
    def test_ppm_bench_runs(self, tmp_path, capsys, triangles_file, kind, table):
        # the plan alone picks the runner and so the table written
        plan = {"kind": kind, "models": ["dc-sbm"], "runs": 1, "k": 2, **{
            "ppm-sweep": {"n": 20, "avg_degree": 5.0, "ratios": [0.1]},
            "sbm-ensemble": {"n": 20, "datasets": 1}, "real-network": {}}[kind]}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        graph = ["--graph", str(triangles_file)] if kind == "real-network" else []
        rc = main(["bench", "--plan", str(plan_path),
                   "--out", str(tmp_path / "out")] + graph)
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert {"ppm_sweep.csv", "sbm_ensemble.csv", "real_runs.csv"} \
            & set(manifest["artifacts"]) == {table}

    def test_workers_flag_overrides_plan(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"kind": "sbm-ensemble", "models": ["dc-sbm", "ac-dc-sbm"],
             "datasets": 2, "runs": 3, "n": 30, "k": 3, "workers": 1}))
        for workers in ("1", "2"):
            assert main(["bench", "--plan", str(plan_path), "--workers",
                         workers, "--out", str(tmp_path / workers)]) == 0
        for name in ("sbm_ensemble.csv", "sbm_summary.csv", "runs.jsonl"):
            assert (tmp_path / "1" / name).read_bytes() == \
                (tmp_path / "2" / name).read_bytes()
        manifest = json.loads((tmp_path / "2" / "manifest.json").read_text())
        assert manifest["plan"]["workers"] == 2

    def test_zero_workers_fail_like_a_plan_value(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"kind": "ppm-sweep", "models": ["dc-sbm"], "runs": 1, "n": 20,
             "k": 2, "ratios": [0.1]}))
        rc = main(["bench", "--plan", str(plan_path), "--workers", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: workers must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()

    def test_k_flag_recorded_in_manifest_and_report(self, tmp_path, triangles_file):
        # the shipped plan has k 4; the manifest records the k that ran
        plan = Path(__file__).resolve().parent.parent / "plans" / "real.json"
        assert json.loads(plan.read_text())["k"] == 4
        assert main(["bench", "--plan", str(plan), "--graph", str(triangles_file),
                     "--k", "2", "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        report = json.loads((tmp_path / "out" / "real_report.json").read_text())
        assert manifest["plan"]["k"] == report["k"] == 2

    def test_unknown_plan_key_fails_cleanly(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"kind": "ppm-sweep", "solver_tol": 1e-8}))
        rc = main(["bench", "--plan", str(plan_path),
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
        rc = main(["bench", "--plan", str(plan_path),
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
        rc = main(["bench", "--plan", str(plan_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("experiment, kind",
                             [("ppm", "ppm-sweep"), ("sbm", "sbm-ensemble")])
    @pytest.mark.parametrize("flags",
                             [["--k", "5"], ["--graph", "/nonexistent.edges"]])
    def test_real_only_flags_rejected(self, tmp_path, capsys, experiment,
                                      kind, flags):
        plan_path = tmp_path / f"{experiment}.json"  # named as in plans/
        plan_path.write_text(json.dumps(
            {"kind": kind, "models": ["dc-sbm"], "runs": 1, "n": 20, "k": 2,
             **({"datasets": 1} if kind == "sbm-ensemble" else {})}))
        rc = main(["bench", "--plan", str(plan_path),
                   "--out", str(tmp_path / "out")] + flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "real-network plans only" in err
        assert not (tmp_path / "out").exists()

    def test_real_bench(self, tmp_path, capsys, triangle_pair):
        graph_path = tmp_path / "net.edges"
        write_edge_list(triangle_pair, graph_path)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"kind": "real-network", "models": ["ac-dc-sbm"], "runs": 3}))
        rc = main(["bench", "--plan", str(plan_path), "--graph",
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
        rc = main(["bench", "--plan", str(plan_path), "--graph",
                   str(graph_path), "--k", "0", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "k must be >= 1" in err
        assert not (tmp_path / "out").exists()

    def test_real_bench_without_graph_fails(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"kind": "real-network", "models": ["dc-sbm"], "runs": 1}))
        rc = main(["bench", "--plan", str(plan_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--graph" in err
        assert not (tmp_path / "out").exists()


def test_artifact_layout(tmp_path, triangles_file):
    # every file acsbm writes is UTF-8 with \n line ends, and its JSON has
    # the one artifact layout
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(
        {"kind": "real-network", "models": ["dc-sbm", "ac-dc-sbm"], "runs": 2}))
    out = tmp_path / "out"
    for argv in (["fit", "--graph", str(triangles_file), "--k", "2",
                  "--out", str(out / "fit.json")],
                 ["generate-sbm", "--n", "20", "--k", "2", "--out",
                  str(out / "inst")],
                 ["bench", "--plan", str(plan_path), "--graph",
                  str(triangles_file), "--k", "2", "--out", str(out / "real")]):
        assert main(argv) == 0
    paths = sorted(p for p in out.rglob("*") if p.is_file())
    assert [p.relative_to(out).as_posix() for p in paths] == [
        "fit.json", "inst.edges", "inst.json", "inst.labels",
        "real/manifest.json", "real/real_report.json", "real/real_runs.csv"]
    for path in paths:
        text = path.read_bytes().decode("utf-8")
        assert "\r" not in text and text.endswith("\n"), path
        if path.suffix == ".json":
            assert text == _json(json.loads(text)), path


class TestUsage:
    def test_unknown_flag_exits_with_usage(self):
        # argparse exits before the graph file is read
        for argv in (["fit", "--nope"],
                     ["fit", "--graph", "/nonexistent.edges", "--k", "2",
                      "--max-sweeps", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])
