import csv
import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import acsbm.benchmark
from acsbm import (AssortativityMode, ExperimentPlan, Partition, PpmSpec,
                   SbmSpec, block_stats, count_assortative_communities,
                   generate_ppm, generate_sbm, log_likelihood, run_ppm_sweep,
                   run_real, run_sbm_ensemble, write_instance)
from acsbm.benchmark import KIND_FIELDS, model_fit_config


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


def tiny_plans(**overrides) -> list[ExperimentPlan]:
    """One small plan of each kind."""
    return [tiny_ppm_plan(**overrides), tiny_sbm_plan(**overrides),
            ExperimentPlan(kind="real-network", runs=2, k=2, **overrides)]


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
        # in a plan of each kind, every field holds a value of its own type
        # (none is left None) and loads; a JSON object is the wrong type for
        # each of them
        path = tmp_path / "plan.json"
        for plan in tiny_plans(workers=2):
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
        rows = run_sbm_ensemble(plan, out_dir=tmp_path)
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
            # the runners count on the solver's row ends; the metric validates
            assert rec["assortative_count"] == \
                count_assortative_communities(rec["omega"], 1e-6)


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


ROOT = Path(__file__).resolve().parent.parent
KARATE = ROOT / "benchmarks" / "data" / "karate.edges"

RUNNERS = {
    "ppm-sweep": lambda plan, out: run_ppm_sweep(plan, out_dir=out),
    "sbm-ensemble": lambda plan, out: run_sbm_ensemble(plan, out_dir=out),
    "real-network": lambda plan, out: run_real(plan, KARATE, k=2, out_dir=out),
}


def record_fits(monkeypatch, note=lambda args: args) -> list:
    """Patch the runners' multi_start so that each call first appends
    ``note(args)`` to the returned list."""
    notes = []
    original = acsbm.benchmark.multi_start
    monkeypatch.setattr(acsbm.benchmark, "multi_start",
                        lambda *a, **kw: notes.append(note(a)) or original(*a, **kw))
    return notes


@pytest.mark.parametrize("runner, kind", [(r, k) for r in RUNNERS for k in RUNNERS
                                          if k != r])
def test_runner_rejects_a_plan_of_another_kind(tmp_path, monkeypatch, runner, kind):
    fits = record_fits(monkeypatch)
    plan = ExperimentPlan(kind=kind, runs=1, k=2, **{
        "ppm-sweep": dict(n=24, avg_degree=6.0, ratios=[0.3]),
        "sbm-ensemble": dict(n=24, datasets=1), "real-network": {}}[kind])
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(f"{kind!r} plan cannot run "
                                                   f"as a {runner!r}")):
        RUNNERS[runner](plan, out)
    assert fits == [] and not out.exists()


@pytest.mark.parametrize("kind", ["ppm", "sbm"])
def test_every_instance_spec_checked_before_the_first_fit(tmp_path, monkeypatch,
                                                          kind):
    fits = record_fits(monkeypatch)
    out = tmp_path / "out"
    if kind == "ppm":  # the last ratio is out of range
        with pytest.raises(ValueError, match="ratio must lie in"):
            run_ppm_sweep(tiny_ppm_plan(ratios=[0.1, 0.2, 1.5]), out_dir=out)
    else:
        with pytest.raises(ValueError, match="invalid rate range"):
            run_sbm_ensemble(tiny_sbm_plan(diag_range=(0.5, 0.4)), out_dir=out)
    assert fits == [] and not out.exists()


def test_instances_generated_one_at_a_time(tmp_path, monkeypatch):
    # each graph is drawn just before its models are fitted, so no more
    # than one instance is held at a time
    made = []
    original = acsbm.benchmark.generate_ppm
    monkeypatch.setattr(acsbm.benchmark, "generate_ppm",
                        lambda spec: made.append(spec) or original(spec))
    drawn_at_fit = record_fits(monkeypatch, lambda args: len(made))
    run_ppm_sweep(tiny_ppm_plan(runs=1), out_dir=tmp_path)
    assert drawn_at_fit == [1, 1, 1, 2, 2, 2]  # 2 ratios x 3 models


def test_integral_numbers_write_the_bytes_of_floats(tmp_path):
    # a plan stores avg_degree, ratios and both ranges as floats, and -0.0
    # as 0.0, so 0, -0.0 and 0.0 give the same CSV keys and the same manifest
    base = tiny_ppm_plan(runs=1).to_dict()
    for name, ratios, degree in (("int", [0, 1], 6), ("float", [0.0, 1.0], 6.0),
                                 ("negative-zero", [-0.0, 1.0], 6.0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**base, "ratios": ratios, "avg_degree": degree}))
        run_ppm_sweep(ExperimentPlan.from_json(path), out_dir=tmp_path / name)
    names = sorted(p.name for p in (tmp_path / "float").iterdir())
    for other in ("int", "negative-zero"):
        assert names == sorted(p.name for p in (tmp_path / other).iterdir())
        for name in names:
            assert (tmp_path / other / name).read_bytes() == \
                (tmp_path / "float" / name).read_bytes(), (other, name)
    plan = tiny_sbm_plan(diag_range=[1, 1], offdiag_range=(-0.0, 1))
    assert (plan.diag_range, plan.offdiag_range) == ((1.0, 1.0), (0.0, 1.0))
    assert {type(x) for x in plan.diag_range + plan.offdiag_range} == {float}
    assert repr(plan.offdiag_range) == "(0.0, 1.0)"


@pytest.mark.parametrize("key, value", [
    ("diag_range", [0.4, 0.5, 0.6]), ("offdiag_range", (0.1,)),
    ("diag_range", 0.5), ("offdiag_range", "01"), ("diag_range", ["0.4", "0.5"]),
    ("avg_degree", "8"), ("avg_degree", True), ("avg_degree", None),
    ("ratios", ["0.5"]), ("ratios", [0.5, False]), ("ratios", 0.5),
    ("models", "dc-sbm"),
])
def test_plan_built_in_code_gets_the_json_checks(key, value):
    # unchecked, a 3-entry range fails only at unpacking inside the runner,
    # and "8" or ["0.5"] are silently turned into floats
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        tiny_sbm_plan(**{key: value})


def test_plan_takes_numpy_scalars_as_numbers():
    # numpy's numeric scalars are accepted and stored as Python floats
    plan = tiny_ppm_plan(avg_degree=np.int64(6), ratios=[np.float32(0.5)])
    assert plan == tiny_ppm_plan(avg_degree=6.0, ratios=[0.5])
    sbm = tiny_sbm_plan(diag_range=(np.float64(0.4), 1), offdiag_range=[0, 0.2])
    assert sbm == tiny_sbm_plan(diag_range=(0.4, 1.0), offdiag_range=(0.0, 0.2))
    assert {type(x) for x in [plan.avg_degree, *plan.ratios, *sbm.diag_range]} \
        == {float}
    with pytest.raises(ValueError, match="'avg_degree'"):
        tiny_ppm_plan(avg_degree=np.bool_(True))


def test_plan_is_frozen():
    # an assignment would skip every check, and its value would reach the
    # manifest unnormalised (avg_degree 6 for 6.0)
    plan = tiny_sbm_plan()
    for f in dataclasses.fields(plan):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(plan, f.name, getattr(plan, f.name))
    assert plan == tiny_sbm_plan() and hash(plan) == hash(tiny_sbm_plan())


def test_replace_checks_and_normalises_again():
    plan = tiny_ppm_plan()
    with pytest.raises(ValueError, match="^workers must be >= 1, got 0$"):
        dataclasses.replace(plan, workers=0)
    with pytest.raises(ValueError, match="'ratios'"):
        dataclasses.replace(plan, ratios=["0.5"])
    varied = dataclasses.replace(plan, avg_degree=6, ratios=[0, 1], k=np.int64(3))
    assert (varied.avg_degree, varied.ratios, varied.k) == (6.0, (0.0, 1.0), 3)
    assert {type(x) for x in (varied.avg_degree, *varied.ratios)} == {float}
    assert type(varied.k) is int and type(varied.models) is tuple
    assert plan.to_dict() == tiny_ppm_plan().to_dict()


def test_json_errors_name_the_key_and_the_file(tmp_path):
    path = tmp_path / "plan.json"
    for plan in tiny_plans(workers=2):
        for key in plan.to_dict():
            path.write_text(json.dumps({**plan.to_dict(), key: {}}))
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{key!r}"):
                ExperimentPlan.from_json(path)
    plan = tiny_ppm_plan(workers=2).to_dict()
    # checks of values, a missing kind, and a file that is not JSON or not
    # UTF-8 name the file as well
    for text, error in ((json.dumps({**plan, "runs": 0}), "runs must be >= 1, got 0"),
                        (json.dumps({**plan, "models": []}), "at least one model"),
                        (json.dumps({"runs": 2}), "kind"),
                        ('{"kind": "ppm-sweep",}', "Expecting property name"),
                        (b"\xff\xfe", "'utf-8' codec can't decode")):
        path.write_bytes(text.encode() if isinstance(text, str) else text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{error}"):
            ExperimentPlan.from_json(path)


def test_real_manifest_records_the_k_fitted(tmp_path):
    # the shipped plan has k 4; a k argument of 2 must reach the manifest
    plan = dataclasses.replace(ExperimentPlan.from_json(ROOT / "plans" / "real.json"),
                               runs=2)
    assert plan.k == 4
    for k in (None, 2, 4):
        out = tmp_path / str(k)
        report = run_real(plan, KARATE, k=k, out_dir=out)
        manifest = json.loads((out / "manifest.json").read_text())
        expected = plan.k if k is None else k
        assert report["k"] == manifest["plan"]["k"] == expected
        assert all(len(info["omega"]) == expected for info in report["models"].values())
    for name in ("real_runs.csv", "real_report.json", "manifest.json"):
        assert (tmp_path / "None" / name).read_bytes() == (tmp_path / "4" / name).read_bytes()


# values away from the default for each field that some kind does not read:
# the first valid, the others invalid, so an unread field is rejected as
# unread before its value is checked
AWAY = dict(instance_seed=(7, -1), n=(24, 0), avg_degree=(6.0,),
            ratios=([0.3], [], [0.1, 0.1]), datasets=(2, 0),
            diag_range=([0.4, 0.6],), offdiag_range=([0.0, 0.3],))
DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentPlan)}


@pytest.mark.parametrize("kind", KIND_FIELDS)
def test_a_plan_sets_only_the_fields_its_kind_reads(tmp_path, kind):
    # built in code, read from JSON or derived by replace, a plan that sets
    # a field its kind ignores fails, naming the kind and the field
    reads = set(KIND_FIELDS[kind])
    assert set(AWAY) | reads == set(DEFAULTS)
    plan = ExperimentPlan(kind=kind, runs=2, k=2,
                          **{name: AWAY[name][0] for name in reads & set(AWAY)})
    assert set(plan.to_dict()) == reads
    path = tmp_path / "plan.json"
    for name, value in [(name, v) for name in sorted(set(AWAY) - reads)
                        for v in AWAY[name]]:
        error = re.escape(f"a {kind!r} plan does not read {name!r}")
        with pytest.raises(ValueError, match=f"^{error}$"):
            ExperimentPlan(kind=kind, runs=2, k=2, **{name: value})
        with pytest.raises(ValueError, match=f"^{error}$"):
            dataclasses.replace(plan, **{name: value})
        path.write_text(json.dumps({**plan.to_dict(), name: value}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {error}$"):
            ExperimentPlan.from_json(path)
        # left at its default, the field is no setting: the plan is the same
        assert dataclasses.replace(plan, **{name: DEFAULTS[name]}) == plan


def test_real_manifest_records_only_the_common_fields(tmp_path):
    # a real network has no n, instances, ratios or rate ranges to record
    plan = dataclasses.replace(ExperimentPlan.from_json(ROOT / "plans" / "real.json"),
                               runs=1)
    run_real(plan, KARATE, k=2, out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["plan"] == {"kind": "real-network", "runs": 1, "fit_seed": 0,
                                "k": 2, "workers": 1,
                                "models": ["dc-sbm", "ac-dc-sbm", "modularity"]}


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


ROOT = Path(__file__).resolve().parent.parent
KARATE = ROOT / "benchmarks" / "data" / "karate.edges"

RUNNERS = {
    "ppm-sweep": lambda plan, out: run_ppm_sweep(plan, out_dir=out),
    "sbm-ensemble": lambda plan, out: run_sbm_ensemble(plan, out_dir=out),
    "real-network": lambda plan, out: run_real(plan, KARATE, k=2, out_dir=out),
}


def record_fits(monkeypatch, note=lambda args: args) -> list:
    """Patch the runners' multi_start so that each call first appends
    ``note(args)`` to the returned list."""
    notes = []
    original = acsbm.benchmark.multi_start
    monkeypatch.setattr(acsbm.benchmark, "multi_start",
                        lambda *a, **kw: notes.append(note(a)) or original(*a, **kw))
    return notes


@pytest.mark.parametrize("runner, kind", [(r, k) for r in RUNNERS for k in RUNNERS
                                          if k != r])
def test_runner_rejects_a_plan_of_another_kind(tmp_path, monkeypatch, runner, kind):
    fits = record_fits(monkeypatch)
    plan = ExperimentPlan(kind=kind, runs=1, k=2, **{
        "ppm-sweep": dict(n=24, avg_degree=6.0, ratios=[0.3]),
        "sbm-ensemble": dict(n=24, datasets=1), "real-network": {}}[kind])
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(f"{kind!r} plan cannot run "
                                                   f"as a {runner!r}")):
        RUNNERS[runner](plan, out)
    assert fits == [] and not out.exists()


@pytest.mark.parametrize("kind", ["ppm", "sbm"])
def test_every_instance_spec_checked_before_the_first_fit(tmp_path, monkeypatch,
                                                          kind):
    fits = record_fits(monkeypatch)
    out = tmp_path / "out"
    if kind == "ppm":  # the last ratio is out of range
        with pytest.raises(ValueError, match="ratio must lie in"):
            run_ppm_sweep(tiny_ppm_plan(ratios=[0.1, 0.2, 1.5]), out_dir=out)
    else:
        with pytest.raises(ValueError, match="invalid rate range"):
            run_sbm_ensemble(tiny_sbm_plan(diag_range=(0.5, 0.4)), out_dir=out)
    assert fits == [] and not out.exists()


def test_instances_generated_one_at_a_time(tmp_path, monkeypatch):
    # each graph is drawn just before its models are fitted, so no more
    # than one instance is held at a time
    made = []
    original = acsbm.benchmark.generate_ppm
    monkeypatch.setattr(acsbm.benchmark, "generate_ppm",
                        lambda spec: made.append(spec) or original(spec))
    drawn_at_fit = record_fits(monkeypatch, lambda args: len(made))
    run_ppm_sweep(tiny_ppm_plan(runs=1), out_dir=tmp_path)
    assert drawn_at_fit == [1, 1, 1, 2, 2, 2]  # 2 ratios x 3 models


def test_integral_numbers_write_the_bytes_of_floats(tmp_path):
    # a plan stores avg_degree, ratios and both ranges as floats, and -0.0
    # as 0.0, so 0, -0.0 and 0.0 give the same CSV keys and the same manifest
    base = tiny_ppm_plan(runs=1).to_dict()
    for name, ratios, degree in (("int", [0, 1], 6), ("float", [0.0, 1.0], 6.0),
                                 ("negative-zero", [-0.0, 1.0], 6.0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**base, "ratios": ratios, "avg_degree": degree}))
        run_ppm_sweep(ExperimentPlan.from_json(path), out_dir=tmp_path / name)
    names = sorted(p.name for p in (tmp_path / "float").iterdir())
    for other in ("int", "negative-zero"):
        assert names == sorted(p.name for p in (tmp_path / other).iterdir())
        for name in names:
            assert (tmp_path / other / name).read_bytes() == \
                (tmp_path / "float" / name).read_bytes(), (other, name)
    plan = tiny_sbm_plan(diag_range=[1, 1], offdiag_range=(-0.0, 1))
    assert (plan.diag_range, plan.offdiag_range) == ((1.0, 1.0), (0.0, 1.0))
    assert {type(x) for x in plan.diag_range + plan.offdiag_range} == {float}
    assert repr(plan.offdiag_range) == "(0.0, 1.0)"


@pytest.mark.parametrize("key, value", [
    ("diag_range", [0.4, 0.5, 0.6]), ("offdiag_range", (0.1,)),
    ("diag_range", 0.5), ("offdiag_range", "01"), ("diag_range", ["0.4", "0.5"]),
    ("avg_degree", "8"), ("avg_degree", True), ("avg_degree", None),
    ("ratios", ["0.5"]), ("ratios", [0.5, False]), ("ratios", 0.5),
    ("models", "dc-sbm"),
])
def test_plan_built_in_code_gets_the_json_checks(key, value):
    # unchecked, a 3-entry range fails only at unpacking inside the runner,
    # and "8" or ["0.5"] are silently turned into floats
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        tiny_sbm_plan(**{key: value})


def test_plan_takes_numpy_scalars_as_numbers():
    # numpy's numeric scalars are accepted and stored as Python floats
    plan = tiny_ppm_plan(avg_degree=np.int64(6), ratios=[np.float32(0.5)])
    assert plan == tiny_ppm_plan(avg_degree=6.0, ratios=[0.5])
    sbm = tiny_sbm_plan(diag_range=(np.float64(0.4), 1), offdiag_range=[0, 0.2])
    assert sbm == tiny_sbm_plan(diag_range=(0.4, 1.0), offdiag_range=(0.0, 0.2))
    assert {type(x) for x in [plan.avg_degree, *plan.ratios, *sbm.diag_range]} \
        == {float}
    with pytest.raises(ValueError, match="'avg_degree'"):
        tiny_ppm_plan(avg_degree=np.bool_(True))


def test_plan_is_frozen():
    # an assignment would skip every check, and its value would reach the
    # manifest unnormalised (avg_degree 6 for 6.0)
    plan = tiny_sbm_plan()
    for f in dataclasses.fields(plan):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(plan, f.name, getattr(plan, f.name))
    assert plan == tiny_sbm_plan() and hash(plan) == hash(tiny_sbm_plan())


def test_replace_checks_and_normalises_again():
    plan = tiny_ppm_plan()
    with pytest.raises(ValueError, match="^workers must be >= 1, got 0$"):
        dataclasses.replace(plan, workers=0)
    with pytest.raises(ValueError, match="'ratios'"):
        dataclasses.replace(plan, ratios=["0.5"])
    varied = dataclasses.replace(plan, avg_degree=6, ratios=[0, 1], k=np.int64(3))
    assert (varied.avg_degree, varied.ratios, varied.k) == (6.0, (0.0, 1.0), 3)
    assert {type(x) for x in (varied.avg_degree, *varied.ratios)} == {float}
    assert type(varied.k) is int and type(varied.models) is tuple
    assert plan.to_dict() == tiny_ppm_plan().to_dict()


def test_json_errors_name_the_key_and_the_file(tmp_path):
    path = tmp_path / "plan.json"
    for plan in tiny_plans(workers=2):
        for key in plan.to_dict():
            path.write_text(json.dumps({**plan.to_dict(), key: {}}))
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{key!r}"):
                ExperimentPlan.from_json(path)
    plan = tiny_ppm_plan(workers=2).to_dict()
    # checks of values, a missing kind, and a file that is not JSON or not
    # UTF-8 name the file as well
    for text, error in ((json.dumps({**plan, "runs": 0}), "runs must be >= 1, got 0"),
                        (json.dumps({**plan, "models": []}), "at least one model"),
                        (json.dumps({"runs": 2}), "kind"),
                        ('{"kind": "ppm-sweep",}', "Expecting property name"),
                        (b"\xff\xfe", "'utf-8' codec can't decode")):
        path.write_bytes(text.encode() if isinstance(text, str) else text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{error}"):
            ExperimentPlan.from_json(path)


def test_real_manifest_records_the_k_fitted(tmp_path):
    # the shipped plan has k 4; a k argument of 2 must reach the manifest
    plan = dataclasses.replace(ExperimentPlan.from_json(ROOT / "plans" / "real.json"),
                               runs=2)
    assert plan.k == 4
    for k in (None, 2, 4):
        out = tmp_path / str(k)
        report = run_real(plan, KARATE, k=k, out_dir=out)
        manifest = json.loads((out / "manifest.json").read_text())
        expected = plan.k if k is None else k
        assert report["k"] == manifest["plan"]["k"] == expected
        assert all(len(info["omega"]) == expected for info in report["models"].values())
    for name in ("real_runs.csv", "real_report.json", "manifest.json"):
        assert (tmp_path / "None" / name).read_bytes() == (tmp_path / "4" / name).read_bytes()


# values away from the default for each field that some kind does not read:
# the first valid, the others invalid, so an unread field is rejected as
# unread before its value is checked
AWAY = dict(instance_seed=(7, -1), n=(24, 0), avg_degree=(6.0,),
            ratios=([0.3], [], [0.1, 0.1]), datasets=(2, 0),
            diag_range=([0.4, 0.6],), offdiag_range=([0.0, 0.3],))
DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentPlan)}


@pytest.mark.parametrize("kind", KIND_FIELDS)
def test_a_plan_sets_only_the_fields_its_kind_reads(tmp_path, kind):
    # built in code, read from JSON or derived by replace, a plan that sets
    # a field its kind ignores fails, naming the kind and the field
    reads = set(KIND_FIELDS[kind])
    assert set(AWAY) | reads == set(DEFAULTS)
    plan = ExperimentPlan(kind=kind, runs=2, k=2,
                          **{name: AWAY[name][0] for name in reads & set(AWAY)})
    assert set(plan.to_dict()) == reads
    path = tmp_path / "plan.json"
    for name, value in [(name, v) for name in sorted(set(AWAY) - reads)
                        for v in AWAY[name]]:
        error = re.escape(f"a {kind!r} plan does not read {name!r}")
        with pytest.raises(ValueError, match=f"^{error}$"):
            ExperimentPlan(kind=kind, runs=2, k=2, **{name: value})
        with pytest.raises(ValueError, match=f"^{error}$"):
            dataclasses.replace(plan, **{name: value})
        path.write_text(json.dumps({**plan.to_dict(), name: value}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {error}$"):
            ExperimentPlan.from_json(path)
        # left at its default, the field is no setting: the plan is the same
        assert dataclasses.replace(plan, **{name: DEFAULTS[name]}) == plan


def test_real_manifest_records_only_the_common_fields(tmp_path):
    # a real network has no n, instances, ratios or rate ranges to record
    plan = dataclasses.replace(ExperimentPlan.from_json(ROOT / "plans" / "real.json"),
                               runs=1)
    run_real(plan, KARATE, k=2, out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["plan"] == {"kind": "real-network", "runs": 1, "fit_seed": 0,
                                "k": 2, "workers": 1,
                                "models": ["dc-sbm", "ac-dc-sbm", "modularity"]}


def check_real_report(out: Path, fit_seed: int) -> None:
    """Each model entry of ``real_report.json``: its best run, recomputed
    from ``real_runs.csv``, and its block summaries from its own fit."""
    report = json.loads((out / "real_report.json").read_text())
    with open(out / "real_runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for model, entry in report["models"].items():
        score = "modularity" if model == "modularity" else "loglik"
        best = min((r for r in rows if r["model"] == model),
                   key=lambda r: (-float(r[score]), int(r["run"])))
        assert entry["seed"] == fit_seed + int(best["run"])
        assert entry["log_likelihood"] == float(best["loglik"])
        assert entry["modularity"] == float(best["modularity"])
        omega = np.array(entry["omega"])
        sizes = np.bincount(entry["partition"], minlength=report["k"])
        assert entry["block_sizes"] == sizes.tolist()
        assert entry["nonempty_blocks"] == np.count_nonzero(sizes)
        assert entry["omega_diag_min"] == np.diag(omega).min()
        assert entry["omega_offdiag_max"] == omega[~np.eye(report["k"], dtype=bool)].max()


@pytest.mark.parametrize("kind", ["ppm", "sbm", "real"])
def test_summary_recomputed_from_runs(tmp_path, kind):
    if kind == "real":
        plan = dataclasses.replace(ExperimentPlan.from_json(ROOT / "plans" / "real.json"),
                                   runs=12)
        report = run_real(plan, KARATE, k=3, out_dir=tmp_path)
        assert json.loads((tmp_path / "real_report.json").read_text()) == report
        with open(tmp_path / "real_runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for model, entry in report["models"].items():
            # the best run by the model's own objective, the lower run on a tie
            score = "modularity" if model == "modularity" else "loglik"
            best = min((r for r in rows if r["model"] == model),
                       key=lambda r: (-float(r[score]), int(r["run"])))
            assert entry["seed"] == plan.fit_seed + int(best["run"])
            assert entry["log_likelihood"] == float(best["loglik"])
            assert entry["modularity"] == float(best["modularity"])
            omega = np.array(entry["omega"])
            sizes = np.bincount(entry["partition"], minlength=3)
            assert entry["block_sizes"] == sizes.tolist()
            assert entry["nonempty_blocks"] == np.count_nonzero(sizes)
            assert entry["omega_diag_min"] == np.diag(omega).min()
            assert entry["omega_offdiag_max"] == omega[~np.eye(3, dtype=bool)].max()
        return
    if kind == "ppm":
        run_ppm_sweep(tiny_ppm_plan(runs=12), out_dir=tmp_path)
        key = "ratio"
    else:
        run_sbm_ensemble(tiny_sbm_plan(runs=12, models=["dc-sbm", "ac-dc-sbm",
                                                        "modularity"]),
                         out_dir=tmp_path)
        key = "dataset"
    cells: dict = {}
    for line in (tmp_path / "runs.jsonl").read_text().splitlines():
        rec = json.loads(line)
        cells.setdefault((rec[key], rec["model"]), []).append(rec)
    with open(tmp_path / f"{kind}_summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert [(json.loads(row[key]), row["model"]) for row in summary] == sorted(cells)
    assert len(cells) == 2 * 3
    for row in summary:
        recs = cells[json.loads(row[key]), row["model"]]
        recs.sort(key=lambda r: (-r["modularity" if r["objective"] == "modularity"
                                   else "log_likelihood"], r["seed"]))
        scores = [r["nmi"] for r in recs]
        top = scores[:math.ceil(0.1 * len(scores))]  # 12 runs: the best 2
        expected = {"median_nmi": float(np.median(scores)),
                    "mean_nmi": sum(scores) / len(scores),
                    "top_quantile_mean_nmi": sum(top) / len(top)}
        for column, value in expected.items():
            assert abs(float(row[column]) - value) <= 1e-12, (row, column)


SMALL = dict(models=["dc-sbm", "ac-dc-sbm", "modularity"], runs=4, n=60, k=3)

# SHA-256 of every artifact of four small plans at workers=1: the small
# ppm and sbm plans of the CI workflow and plans/real.json on karate at K=2
# and at K=3, where dc-sbm's best fit is not assortative.
PINNED = {
    "ppm": {
        "manifest.json": "bc58b9f147fc0ad46cee6aa85596158db4433a98751f80d58b4efca9b0027be4",
        "ppm_summary.csv": "9dbdbeb2841ae4d4ae2fd6db9d0ee396c8664069a4bef4de7fde0f7b3c7e149c",
        "ppm_sweep.csv": "b3d4d7f5794d4472467643949151f32f63ae413961d28d4214cb3140a75a1799",
        "runs.jsonl": "6de362bd57d6e77406d5b859d923428afb0f66b050ed7f33dcb308dd12cd7480",
    },
    "sbm": {
        "manifest.json": "f7896502f9ff046fb42be59113d9085646434c6ed91dc90501446fa0ffd25133",
        "runs.jsonl": "c3a273537a7ffed2f27cb8e950c9f1f1ca206ac034057399d7b90bf10954532f",
        "sbm_ensemble.csv": "0102c2ffcc954c384e0cf8e716ac9f6057f692e235b75c31670604e0fc55dc7a",
        "sbm_summary.csv": "8127ee20eef4e7bc2e771e5f2cc89711561018ea5641a3e42cb66b722607109b",
    },
    "real": {
        "manifest.json": "78011af3c5ec395e0b5df06f784a9b46968e4a0e9d9034333e9f02c69ac0b35e",
        "real_report.json": "c06740103ee5d4033906ff7815de5d6a67901b9b320cfe6ae3b68a9b2f41d75d",
        "real_runs.csv": "4e349974a3c1cca825bcf6dd2b00d006600e33b7594f8f162fda6534eed0f6bb",
    },
    "real-k3": {
        "manifest.json": "28520181a3157374b08a3ceb197ee44c8ae66a27c699178aafea010efa529c1e",
        "real_report.json": "04a9ce8b24981864c1aeb3759fbf3a7feeb34db3de740aad4a387705301f7a0d",
        "real_runs.csv": "eb6af94728b32ce16577bfdd0348e3953eeddfafcb585707b2b62e8324a9a1ec",
    },
}


@pytest.mark.parametrize("kind", PINNED)
def test_artifacts_pinned(tmp_path, kind):
    if kind == "ppm":
        run_ppm_sweep(ExperimentPlan(kind="ppm-sweep", ratios=[0.1, 0.5], **SMALL),
                      out_dir=tmp_path)
    elif kind == "sbm":
        run_sbm_ensemble(ExperimentPlan(kind="sbm-ensemble", datasets=2, **SMALL),
                         out_dir=tmp_path)
    else:
        plan = ExperimentPlan.from_json(ROOT / "plans" / "real.json")
        run_real(plan, KARATE, k=3 if kind == "real-k3" else 2, out_dir=tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == PINNED[kind]
