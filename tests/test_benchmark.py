import json
import re
from pathlib import Path

import pytest

from acsbm import (AssortativityMode, ExperimentPlan, Partition, PpmSpec,
                   SbmSpec, block_stats, generate_ppm, generate_sbm,
                   log_likelihood, run_ppm_sweep, run_real, run_sbm_ensemble,
                   write_instance)
from acsbm.benchmark import model_fit_config


def tiny_ppm_plan(**overrides):
    base = dict(kind="ppm-sweep", models=["dc-sbm", "ac-dc-sbm", "modularity"],
                runs=2, fit_seed=0, instance_seed=50, n=24, k=2,
                avg_degree=6.0, ratios=[0.1, 0.5])
    base.update(overrides)
    return ExperimentPlan(**base)


def tiny_sbm_plan(**overrides):
    base = dict(kind="sbm-ensemble", models=["dc-sbm", "ac-dc-sbm"],
                runs=3, fit_seed=0, instance_seed=60, n=24, k=2, datasets=2)
    base.update(overrides)
    return ExperimentPlan(**base)


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(kind="nope")
        with pytest.raises(ValueError):
            ExperimentPlan(kind="ppm-sweep", runs=0)
        with pytest.raises(ValueError):
            ExperimentPlan(kind="ppm-sweep", models=[])
        with pytest.raises(ValueError):
            ExperimentPlan(kind="ppm-sweep", models=["mystery"])
        with pytest.raises(ValueError, match="datasets"):
            ExperimentPlan(kind="sbm-ensemble", datasets=0)
        # counts are integers >= 1 at construction, not where first used
        for key, value in (("runs", 2.0), ("workers", 0), ("k", 0), ("n", 1.5)):
            with pytest.raises(ValueError, match=f"^{key} must be "):
                ExperimentPlan(kind="ppm-sweep", **{key: value})
        with pytest.raises(ValueError, match="ratio"):
            ExperimentPlan(kind="ppm-sweep", ratios=[])
        # a repeat would fit the same jobs again under the same CSV keys
        with pytest.raises(ValueError, match="models"):
            ExperimentPlan(kind="ppm-sweep", models=["dc-sbm", "dc-sbm"])
        with pytest.raises(ValueError, match="ratios"):
            ExperimentPlan(kind="ppm-sweep", ratios=[0.1, 0.25, 0.1])

    def test_json_round_trip(self, tmp_path):
        plan = tiny_ppm_plan()
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        loaded = ExperimentPlan.from_json(path)
        assert loaded == plan

    def test_every_field_type_checked(self, tmp_path):
        # every field holds a value of its own type (none is left None) and
        # loads; a JSON object is the wrong type for each of them
        plan = tiny_ppm_plan(workers=2)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert ExperimentPlan.from_json(path) == plan
        for key in plan.to_dict():
            path.write_text(json.dumps({**plan.to_dict(), key: {}}))
            with pytest.raises(ValueError, match=re.escape(repr(key))):
                ExperimentPlan.from_json(path)

    def test_shipped_plans_parse(self):
        plans_dir = Path(__file__).resolve().parent.parent / "plans"
        kinds = {ExperimentPlan.from_json(p).kind
                 for p in sorted(plans_dir.glob("*.json"))}
        assert kinds == {"ppm-sweep", "sbm-ensemble", "real-network"}

    def test_model_config_mapping(self):
        cfg = model_fit_config("dc-sbm", 3, 1)
        assert cfg.mode.value == "none" and cfg.objective == "likelihood"
        cfg = model_fit_config("ac-dc-sbm", 3, 1)
        assert cfg.mode.value == "strong"
        cfg = model_fit_config("modularity", 3, 1)
        assert cfg.objective == "modularity"
        with pytest.raises(ValueError):
            model_fit_config("pagerank", 3, 1)

    @pytest.mark.parametrize("model, mode", [
        ("dc-sbm", "weak"), ("dc-sbm", "strong"), ("modularity", "weak"),
        ("ac-dc-sbm", "none")])
    def test_model_config_rejects_foreign_mode(self, model, mode):
        with pytest.raises(ValueError, match=f"{model} cannot take .*'{mode}'"):
            model_fit_config(model, 3, 1, mode=AssortativityMode(mode))
        assert model_fit_config("ac-dc-sbm", 3, 1, mode=AssortativityMode.WEAK) \
            .mode is AssortativityMode.WEAK


class TestPpmSweep:
    def test_row_schema_and_counts(self, tmp_path):
        plan = tiny_ppm_plan()
        rows = run_ppm_sweep(plan, out_dir=tmp_path)
        assert len(rows) == 2 * 3 * 2  # ratios x models x runs
        assert list(rows[0]) == ["ratio", "model", "run", "nmi", "loglik"]
        assert all(0.0 <= r["nmi"] <= 1.0 for r in rows)
        keys = [(r["ratio"], r["model"], r["run"]) for r in rows]
        assert keys == sorted(keys)

    def test_csv_reproducible_byte_identical(self, tmp_path):
        plan = tiny_ppm_plan()
        run_ppm_sweep(plan, out_dir=tmp_path / "a")
        run_ppm_sweep(plan, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "ppm_sweep.csv").read_bytes()
        b = (tmp_path / "b" / "ppm_sweep.csv").read_bytes()
        assert a == b
        assert (tmp_path / "a" / "manifest.json").exists()

    def test_workers_do_not_change_output(self, tmp_path):
        run_ppm_sweep(tiny_ppm_plan(workers=1), out_dir=tmp_path / "w1")
        run_ppm_sweep(tiny_ppm_plan(workers=2), out_dir=tmp_path / "w2")
        assert (tmp_path / "w1" / "ppm_sweep.csv").read_bytes() == \
            (tmp_path / "w2" / "ppm_sweep.csv").read_bytes()

    def test_logliks_reverify_from_persisted_runs(self, tmp_path):
        plan = tiny_ppm_plan()
        run_ppm_sweep(plan, out_dir=tmp_path)
        payloads = [json.loads(line) for line in
                    (tmp_path / "runs.jsonl").read_text().splitlines()]
        assert len(payloads) == 12
        assert {rec["experiment"] for rec in payloads} == {"ppm-sweep"}
        for rec in payloads:
            spec = PpmSpec(n=plan.n, k=plan.k, avg_degree=plan.avg_degree,
                           ratio=rec["ratio"], seed=rec["instance_seed"])
            graph, _ = generate_ppm(spec)
            stats = block_stats(graph, Partition(rec["k"], rec["partition"]))
            recomputed = log_likelihood(stats, rec["omega"])
            assert abs(recomputed - rec["log_likelihood"]) \
                <= 1e-9 * (1 + abs(recomputed))


class TestSbmEnsemble:
    def test_rows_and_summary(self, tmp_path):
        plan = tiny_sbm_plan()
        rows = run_sbm_ensemble(plan, out_dir=tmp_path)
        assert len(rows) == 2 * 2 * 3
        assert list(rows[0]) == ["dataset", "model", "run", "nmi", "loglik",
                                 "assortative_count"]
        assert all(0 <= r["assortative_count"] <= plan.k for r in rows)
        summary = (tmp_path / "sbm_summary.csv").read_text().splitlines()
        assert summary[0] == "dataset,model,median_nmi,mean_nmi,top_quantile_mean_nmi"
        assert len(summary) == 1 + 2 * 2

    def test_single_run_single_dataset(self, tmp_path):
        plan = tiny_sbm_plan(runs=1, datasets=1,
                             models=["dc-sbm", "ac-dc-sbm", "modularity"])
        rows = run_sbm_ensemble(plan)
        assert len(rows) == 3
        assert {r["model"] for r in rows} == {"dc-sbm", "ac-dc-sbm", "modularity"}

    def test_reproducible(self, tmp_path):
        plan = tiny_sbm_plan()
        run_sbm_ensemble(plan, out_dir=tmp_path / "a")
        run_sbm_ensemble(plan, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "sbm_ensemble.csv").read_bytes() == \
            (tmp_path / "b" / "sbm_ensemble.csv").read_bytes()

    def test_logliks_reverify_from_persisted_runs(self, tmp_path):
        plan = tiny_sbm_plan()
        run_sbm_ensemble(plan, out_dir=tmp_path)
        for line in (tmp_path / "runs.jsonl").read_text().splitlines():
            rec = json.loads(line)
            assert rec["experiment"] == "sbm-ensemble"
            spec = SbmSpec(n=plan.n, k=plan.k, diag_range=plan.diag_range,
                           offdiag_range=plan.offdiag_range,
                           seed=rec["instance_seed"])
            graph, _, _ = generate_sbm(spec)
            stats = block_stats(graph, Partition(rec["k"], rec["partition"]))
            recomputed = log_likelihood(stats, rec["omega"])
            assert abs(recomputed - rec["log_likelihood"]) \
                <= 1e-9 * (1 + abs(recomputed))


class TestReal:
    @pytest.fixture
    def instance_file(self, tmp_path):
        g, truth = generate_ppm(PpmSpec(n=30, k=3, avg_degree=6,
                                        ratio=0.15, seed=77))
        paths = write_instance(tmp_path / "net", g, truth, {"kind": "ppm"})
        return paths["edges"]

    def test_report_contents(self, tmp_path, instance_file):
        plan = ExperimentPlan(kind="real-network", runs=3, k=3,
                              models=["dc-sbm", "ac-dc-sbm", "modularity"])
        report = run_real(plan, graph_path=instance_file, out_dir=tmp_path)
        assert report["n"] == 30
        for model in plan.models:
            info = report["models"][model]
            assert sum(info["block_sizes"]) == 30
            assert info["omega_diag_min"] <= max(max(row) for row in info["omega"])
            assert info["assortativity_level"] in ("strong", "weak", "none")
            assert len(info["partition"]) == 30
        best_ac = report["models"]["ac-dc-sbm"]
        assert best_ac["assortativity_level"] == "strong"
        assert (tmp_path / "real_report.json").exists()
        assert (tmp_path / "real_runs.csv").read_text().startswith(
            "model,run,loglik,modularity,sweeps")


@pytest.mark.parametrize("kind", ["ppm", "sbm", "real"])
def test_manifest_lists_exactly_the_directory(tmp_path, kind):
    out = tmp_path / "out"
    if kind == "ppm":
        run_ppm_sweep(tiny_ppm_plan(runs=1, ratios=[0.3]), out_dir=out)
    elif kind == "sbm":
        run_sbm_ensemble(tiny_sbm_plan(runs=1, datasets=1), out_dir=out)
    else:
        g, truth = generate_ppm(PpmSpec(n=24, k=2, avg_degree=6, ratio=0.2,
                                        seed=5))
        edges = write_instance(tmp_path / "net", g, truth, {})["edges"]
        run_real(ExperimentPlan(kind="real-network", runs=1, k=2),
                 graph_path=edges, out_dir=out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == sorted(p.name for p in out.iterdir())
