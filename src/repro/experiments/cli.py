"""Command-line driver: ``repro-experiments`` / ``python -m repro.experiments``.

Regenerates any paper table or figure::

    repro-experiments list
    repro-experiments run fig10 --scale 0.3 --seed 7
    repro-experiments run all --scale 0.2

``--scale`` shrinks the instance-size parameters (resources, profiles,
chronons); ``--scale 1.0`` reproduces paper-size instances.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.experiments import (
    ablations,
    churn,
    competitive,
    failure_sweep,
    fig09_preemption,
    fig10_vs_offline,
    fig11_scalability,
    fig12_workload,
    fig13_budget,
    fig14_skew,
    fig15_noise,
    learned_reliability,
    model_quality,
    overload_sweep,
    panorama,
    reliability_sweep,
    scalability,
    summary,
    workload_grid,
    runtime_table,
    table1_config,
)
from repro.experiments.common import ExperimentResult

Runner = Callable[..., ExperimentResult]

EXPERIMENTS: dict[str, tuple[str, Runner]] = {
    "table1": ("Table I — controlled parameters", table1_config.run),
    "fig9": ("Figure 9 — preemption sensitivity", fig09_preemption.run),
    "fig10": ("Figure 10 — online vs offline approximation", fig10_vs_offline.run),
    "runtime": ("Section V-D — runtime per EI table", runtime_table.run),
    "fig11": ("Figure 11 — online runtime scalability", fig11_scalability.run),
    "fig12": ("Figure 12 — workload intensity", fig12_workload.run),
    "fig12m": ("Section V-E companion — profile-count sweep", fig12_workload.run_profiles),
    "fig13": ("Figure 13 — budget limitations", fig13_budget.run),
    "fig14": ("Figure 14 — resource-access skew", fig14_skew.run),
    "fig15": ("Figure 15 — update-model noise", fig15_noise.run),
    "fig15news": ("Figure 15 (news part) — Poisson model", fig15_noise.run_news),
    "ablations": ("Ablations A1-A4", ablations.run),
    "faults": ("Extension — probe failure-rate sweep", failure_sweep.run),
    "reliability": (
        "Extension — blind vs expected-gain under heterogeneous reliability",
        reliability_sweep.run,
    ),
    "learned-reliability": (
        "Extension — learned health estimates vs the reliability oracle",
        learned_reliability.run,
    ),
    "models": ("Extension — update-model quality vs completeness", model_quality.run),
    "overload": (
        "Extension — tiered load shedding vs blind expiry under overload",
        overload_sweep.run,
    ),
    "competitive": ("Extension — empirical competitive ratios", competitive.run),
    "churn": (
        "Extension — churn: ArenaPatch deltas vs recompilation",
        churn.run,
    ),
    "grid": ("Extension — λ × m workload surface", workload_grid.run),
    "summary": ("Reproduction self-check — verdict every claim", summary.run),
    "panorama": ("Extension — full policy panorama", panorama.run),
    "scalability": (
        "Extension — repetition-chunked suite runner (--engine/--workers)",
        scalability.run,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the Web "
        "Monitoring 2.0 paper (ICDE 2009).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runner = sub.add_parser("run", help="run one experiment (or 'all')")
    runner.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    runner.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="instance-size scale factor in (0, 1]; 1.0 = paper size",
    )
    runner.add_argument("--seed", type=int, default=0, help="master RNG seed")
    runner.add_argument(
        "--reps", type=int, default=0, help="override repetition count (0 = default)"
    )
    runner.add_argument(
        "--engine",
        choices=["reference", "vectorized"],
        default="",
        help="monitor engine, for experiments that take one (e.g. scalability)",
    )
    runner.add_argument(
        "--workers",
        type=int,
        default=0,
        help="process-pool size, for experiments that take one "
        "(0 = experiment default)",
    )
    runner.add_argument(
        "--format",
        choices=["table", "csv", "json"],
        default="table",
        help="output format for the reproduced rows",
    )
    runner.add_argument(
        "--chart",
        action="store_true",
        help="also render an ASCII line chart of the numeric series",
    )
    runner.add_argument(
        "--save",
        metavar="DIR",
        default="",
        help="also save each result as JSON into this directory",
    )
    return parser


def run_one(
    key: str,
    scale: float,
    seed: int,
    reps: int,
    engine: str = "",
    workers: int = 0,
) -> ExperimentResult:
    __, runner = EXPERIMENTS[key]
    kwargs: dict[str, object] = {"scale": scale, "seed": seed}
    if reps > 0:
        kwargs["repetitions"] = reps
    # Runner knobs are forwarded only to experiments that declare them —
    # `run all` must keep working for the figure modules that don't.
    import inspect

    accepted = inspect.signature(runner).parameters
    if engine and "engine" in accepted:
        kwargs["engine"] = engine
    if workers and "workers" in accepted:
        kwargs["workers"] = workers
    return runner(**kwargs)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for key, (description, __) in EXPERIMENTS.items():
            print(f"{key:10s} {description}")
        return 0

    keys = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for key in keys:
        result = run_one(
            key, args.scale, args.seed, args.reps,
            engine=args.engine, workers=args.workers,
        )
        if args.save:
            from pathlib import Path

            from repro.io import result_to_dict, save_json

            directory = Path(args.save)
            directory.mkdir(parents=True, exist_ok=True)
            save_json(result_to_dict(result), directory / f"{key}.json")
        print(render_result(result, args.format))
        if args.chart:
            chart = try_chart(result)
            if chart:
                print()
                print(chart)
        print()
    return 0


def render_result(result: ExperimentResult, fmt: str) -> str:
    """Render an experiment result as a table, CSV, or JSON."""
    if fmt == "csv":
        from repro.sim.reporting import to_csv

        return to_csv(result.headers, result.rows)
    if fmt == "json":
        import json

        from repro.io import result_to_dict

        return json.dumps(result_to_dict(result), indent=2)
    return result.to_text()


def try_chart(result: ExperimentResult) -> str:
    """Chart the numeric columns over the first column, if chartable."""
    from repro.sim.charts import chart_experiment

    if len(result.rows) < 2:
        return ""
    try:
        x_column = result.headers[0]
        float(result.rows[0][0])
        numeric = [
            header
            for index, header in enumerate(result.headers[1:], start=1)
            if isinstance(result.rows[0][index], (int, float))
        ]
        if not numeric:
            return ""
        return chart_experiment(result, x_column, numeric[:4])
    except (TypeError, ValueError):
        return ""


if __name__ == "__main__":
    sys.exit(main())
