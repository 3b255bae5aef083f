"""Command-line interface: generate, fit, eval, bench."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .benchmark import (ExperimentPlan, MODEL_NAMES, model_fit_config,
                        run_ppm_sweep, run_real, run_sbm_ensemble)
from .core import _json, _write_text, load_edge_list, read_labels
from .generators import (PpmSpec, SbmSpec, generate_ppm, generate_sbm,
                         ppm_rates, write_instance)
from .metrics import nmi
from .search import multi_start

__all__ = ["main"]


def _cmd_generate_ppm(args) -> int:
    spec = PpmSpec(n=args.n, k=args.k, avg_degree=args.avg_degree,
                   ratio=args.ratio, seed=args.seed)
    graph, truth = generate_ppm(spec)
    p_in, p_out = ppm_rates(spec.n, spec.k, spec.avg_degree, spec.ratio)
    meta = {"kind": "ppm", **asdict(spec), "p_in": p_in, "p_out": p_out}
    paths = write_instance(args.out, graph, truth, meta)
    print(f"wrote {paths['edges']} ({graph.n} nodes, m={graph.total_weight})")
    return 0


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'lo,hi', got {text!r}")
    return float(parts[0]), float(parts[1])


def _cmd_generate_sbm(args) -> int:
    spec = SbmSpec(n=args.n, k=args.k, seed=args.seed,
                   diag_range=_parse_range(args.diag_range),
                   offdiag_range=_parse_range(args.offdiag_range))
    graph, truth, planted = generate_sbm(spec)
    meta = {"kind": "sbm", **asdict(spec), "planted_omega": planted.tolist()}
    paths = write_instance(args.out, graph, truth, meta)
    print(f"wrote {paths['edges']} ({graph.n} nodes, m={graph.total_weight})")
    return 0


def _cmd_fit(args) -> int:
    cfg = model_fit_config(args.model, args.k, args.seed, mode=args.mode)
    graph = load_edge_list(args.graph, index_base=1 if args.one_based else 0)
    results = multi_start(graph, cfg, args.runs, workers=args.workers)
    best = results[0]
    payload = {
        "graph": Path(args.graph).name,
        "model": args.model,
        "k": args.k,
        "runs": args.runs,
        "base_seed": args.seed,
        "best": best.to_dict(),
        "runs_summary": [
            {"seed": r.seed, "log_likelihood": r.log_likelihood,
             "modularity": r.modularity, "sweeps": r.sweeps,
             "constrained_solves": r.constrained_solves}
            for r in results
        ],
    }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        _write_text(args.out, _json(payload))
    sizes = best.partition.block_sizes()
    print(f"best loglik={best.log_likelihood:.6f} modularity={best.modularity:.6f} "
          f"block_sizes={sizes}")
    return 0


def _cmd_eval(args) -> int:
    pred = read_labels(args.pred)
    truth = read_labels(args.truth)
    print(nmi(pred, truth))
    return 0


def _cmd_bench(args) -> int:
    plan = ExperimentPlan.from_json(args.plan)
    if plan.kind != "real-network" and (args.graph, args.k) != (None, None):
        raise ValueError("--graph and --k apply to real-network plans only")
    if args.workers is not None:
        plan = replace(plan, workers=args.workers)
    out = Path(args.out)
    if plan.kind == "ppm-sweep":
        rows = run_ppm_sweep(plan, out_dir=out)
        print(f"wrote {out / 'ppm_sweep.csv'} ({len(rows)} rows)")
    elif plan.kind == "sbm-ensemble":
        rows = run_sbm_ensemble(plan, out_dir=out)
        print(f"wrote {out / 'sbm_ensemble.csv'} ({len(rows)} rows)")
    elif args.graph is None:
        raise ValueError("a real-network plan needs --graph")
    else:
        report = run_real(plan, args.graph, k=args.k, out_dir=out)
        for model, info in report["models"].items():
            print(f"{model}: loglik={info['log_likelihood']:.4f} "
                  f"level={info['assortativity_level']} "
                  f"block_sizes={info['block_sizes']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acsbm",
        description="Fit (assortativity-constrained) degree-corrected "
                    "stochastic block models and run benchmark experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-ppm", help="sample a planted-partition network")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--avg-degree", type=float, required=True)
    g.add_argument("--ratio", type=float, required=True,
                   help="omega_out / omega_in in [0, 1]")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output path prefix")
    g.set_defaults(func=_cmd_generate_ppm)

    g = sub.add_parser("generate-sbm", help="sample a general SBM network")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--diag-range", default="%s,%s" % SbmSpec.diag_range, metavar="LO,HI")
    g.add_argument("--offdiag-range", default="%s,%s" % SbmSpec.offdiag_range, metavar="LO,HI")
    g.add_argument("--out", required=True, help="output path prefix")
    g.set_defaults(func=_cmd_generate_sbm)

    g = sub.add_parser("fit", help="fit a block model to an edge list")
    g.add_argument("--graph", required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--model", choices=MODEL_NAMES, default="ac-dc-sbm")
    g.add_argument("--mode", choices=["strong", "weak"], default=None,
                   help="assortativity constraints (ac-dc-sbm only)")
    g.add_argument("--runs", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--workers", type=int, default=1,
                   help="processes to spread the runs over (default 1)")
    g.add_argument("--one-based", action="store_true",
                   help="input file uses 1-based node ids")
    g.add_argument("--out", default=None, help="result JSON path")
    g.set_defaults(func=_cmd_fit)

    g = sub.add_parser("eval", help="print the NMI of two label files")
    g.add_argument("--pred", required=True)
    g.add_argument("--truth", required=True)
    g.set_defaults(func=_cmd_eval)

    g = sub.add_parser("bench", help="run the experiment a plan describes")
    g.add_argument("--plan", required=True, help="plan JSON path")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--graph", default=None, help="edge list (real-network only)")
    g.add_argument("--k", type=int, default=None, help="block count (real-network only)")
    g.add_argument("--workers", type=int, default=None)
    g.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
