"""The ``repro`` command line: one front door for every experiment.

::

    python -m repro list                          # what can I run?
    python -m repro show  --preset fig_4_2        # the spec as JSON
    python -m repro run   --preset chain_smoke    # one scenario, serially
    python -m repro sweep --preset fig_4_7 --workers 4
    python -m repro report                        # summarize cached results
    python -m repro figure --workers 4            # the paper's results and claims

``run`` and ``sweep`` accept either ``--preset NAME`` (see
:mod:`repro.scenarios.presets`) or ``--spec FILE`` (a ScenarioSpec as JSON,
e.g. from ``show``).  ``--set path=value`` applies one dotted-path override
(``run.batch_size=16``, ``workload.count=4``, ``channel.mean_bad_time=0.05``);
``--axis path=v1,v2,...`` adds or replaces a sweep axis (``channel.*`` /
``mobility.*`` axes sweep model parameters; ``run.refresh_period`` sweeps
link-state staleness).  ``--channel KIND`` swaps the channel model,
``--mobility KIND`` the dynamic-topology model and ``--faults KIND``
injects node failures (``--help`` lists the kinds of each); pair
``--faults`` with ``--set run.progress_timeout=SECONDS`` so a stalled flow
ends as a structured abort that carries its diagnosis (see
``docs/faults.md``).  Results land in the
content-addressed store under ``results/store/<scenario>/`` keyed by
``(spec-hash, seed, code-version)``, so repeated invocations only simulate
what changed — including after a kill: re-running the same sweep command
resumes with only the missing cells (``--force`` recomputes everything).
``sweep`` streams progress (cells/s, ETA, running partial aggregate) to
stderr with ``--progress`` and tolerates crashed or wedged workers via
``--retries`` / ``--cell-timeout``.  ``figure [NAME ...]`` (default: all)
runs rows of :data:`repro.experiments.figures.FIGURES` through the same
store and pool and prints each report, then one line per claim (statistic,
value, band, the paper's value, ok / out-of-band); ``--paper-scale`` runs the
paper's sample sizes and 5 MB transfers (about an hour; resumable).

Also installable as a console script (``repro = repro.cli:main``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.experiments.orchestrator.engine import (
    DEFAULT_RESULTS_DIR,
    DEFAULT_RETRIES,
    run_scenario,
    run_sweep,
)
from repro.experiments.orchestrator.store import ResultStore
from repro.experiments.stats import summarize
from repro.scenarios import ScenarioSpec, get_preset, list_presets
from repro.scenarios.spec import MODEL_SECTIONS


def _parse_value(text: str) -> Any:
    """Interpret an override value: JSON when it parses, bare string otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_assignment(text: str) -> tuple[str, str]:
    path, separator, value = text.partition("=")
    if not separator or not path:
        raise argparse.ArgumentTypeError(f"expected path=value, got {text!r}")
    return path, value


def _load_spec(args: argparse.Namespace) -> ScenarioSpec:
    if args.spec:
        spec = ScenarioSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    elif args.preset:
        try:
            spec = get_preset(args.preset)
        except KeyError as error:
            raise SystemExit(f"repro: error: {error.args[0]}") from None
    else:
        raise SystemExit("error: provide --preset NAME or --spec FILE "
                         "(see `python -m repro list`)")
    # The section flags first: switching kind resets the model params, so
    # the user's --set channel.<param> / mobility.<param> / faults.<param>
    # overrides must land on the new model.
    for name in MODEL_SECTIONS:
        if getattr(args, name, None):
            spec = spec.with_overrides({f"{name}.kind": getattr(args, name)})
    for assignment in args.set or []:
        path, value = _parse_assignment(assignment)
        spec = spec.with_overrides({path: _parse_value(value)})
    for assignment in getattr(args, "axis", None) or []:
        path, values = _parse_assignment(assignment)
        spec.sweep[path] = tuple(_parse_value(item) for item in values.split(","))
    if getattr(args, "seeds", None):
        spec.seeds = tuple(int(seed) for seed in args.seeds.split(","))
    if getattr(args, "vector_only", False):
        spec = spec.with_overrides({"run.vector_only": True})
    return spec


def _add_section_flags(parser: argparse.ArgumentParser) -> None:
    """``--channel`` / ``--mobility`` / ``--faults KIND``: one flag per model section."""
    for name, (_, kinds) in MODEL_SECTIONS.items():
        parser.add_argument(
            f"--{name}", metavar="KIND",
            help=f"{name} model: {', '.join(kinds)} (tune with --set "
                 f"{name}.<param>=value; see docs/scenarios.md)")


def _add_store_arguments(parser: argparse.ArgumentParser, workers: int) -> None:
    parser.add_argument("--workers", type=int, default=workers,
                        help="worker processes for uncached cells")
    parser.add_argument("--results-dir", default=str(DEFAULT_RESULTS_DIR),
                        help="cache root (default: results/)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the results cache")


def _add_spec_arguments(parser: argparse.ArgumentParser, sweep: bool) -> None:
    parser.add_argument("--preset", help="name of a registered scenario preset")
    parser.add_argument("--spec", help="path to a ScenarioSpec JSON file")
    parser.add_argument("--set", action="append", metavar="PATH=VALUE",
                        help="dotted-path override, e.g. run.batch_size=16")
    _add_store_arguments(parser, workers=4 if sweep else 1)
    parser.add_argument("--force", action="store_true",
                        help="recompute cells even when cached")
    parser.add_argument("--vector-only", action="store_true", dest="vector_only",
                        help="payload-free fast path (run.vector_only=true): "
                             "identical throughput/rank results, less arithmetic")
    _add_section_flags(parser)
    parser.add_argument("--json", action="store_true",
                        help="print the full result as JSON instead of a report")
    if sweep:
        parser.add_argument("--axis", action="append", metavar="PATH=V1,V2,...",
                            help="add or replace a sweep axis")
        parser.add_argument("--seeds", help="comma-separated replication seeds")
        parser.add_argument("--progress", action="store_true",
                            help="stream cells/s, ETA and a running partial "
                                 "aggregate to stderr while cells run")
        parser.add_argument("--retries", type=int, default=DEFAULT_RETRIES,
                            help="extra attempts per cell after a worker "
                                 "crash, hang or exception (default: "
                                 f"{DEFAULT_RETRIES})")
        parser.add_argument("--cell-timeout", type=float, default=None,
                            metavar="SECONDS", dest="cell_timeout",
                            help="kill and replace a worker silent for this "
                                 "long; its cells are retried elsewhere "
                                 "(default: no timeout)")


def _emit(result, as_json: bool) -> None:
    if as_json:
        json.dump(result.to_dict(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(result.report())


def _command_list(_args: argparse.Namespace) -> int:
    from repro.experiments.figures import FIGURES

    rows = []
    for spec in list_presets():
        cells = len(spec.expand())
        # The claims a preset is held to: those of every figure row run on it.
        claims = sum(len(row.claims) for row in FIGURES.values() if row.preset == spec.name)
        rows.append((spec.name, spec.mode, cells, claims or "-", spec.description))
    width = max(len(row[0]) for row in rows)
    print(f"{'name':<{width}}  {'mode':<10} {'cells':>5} {'claims':>6}  description")
    for name, mode, cells, claims, description in rows:
        print(f"{name:<{width}}  {mode:<10} {cells:>5} {claims:>6}  {description}")
    return 0


def _command_show(args: argparse.Namespace) -> int:
    print(_load_spec(args).to_json())
    return 0


def _command_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    result = run_scenario(
        spec, seed=args.seed, workers=args.workers,
        results_dir=None if args.no_cache else args.results_dir,
        cache=not args.no_cache, force=args.force,
    )
    _emit(result, args.json)
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    result = run_sweep(
        spec, workers=args.workers,
        results_dir=None if args.no_cache else args.results_dir,
        cache=not args.no_cache, force=args.force,
        retries=args.retries, cell_timeout=args.cell_timeout,
        progress=args.progress,
    )
    _emit(result, args.json)
    return 0


def _command_report(args: argparse.Namespace) -> int:
    grouped = ResultStore(args.results_dir, code="").iter_results(args.scenarios or None)
    if not grouped:
        print(f"no cached results under {args.results_dir}/ "
              "(run `python -m repro sweep --preset ...` first)")
        return 1
    for scenario, cells in grouped.items():
        print(f"=== {scenario}: {len(cells)} cached cell(s) ===")
        # Cache files come back in hash order; sort by axis values then seed
        # so sweeps read in their natural order (the type name guards against
        # comparing mixed-type values across unrelated cached runs).
        cells = sorted(cells, key=lambda cell: (sorted(
            (path, type(value).__name__, value)
            for path, value in cell.axes.items()), cell.seed))
        for cell in cells:
            label = " ".join(f"{path}={value}" for path, value in cell.axes.items())
            # The short key distinguishes cells produced with different --set
            # overrides, which are otherwise identical in this summary.
            pieces = [f"[{cell.key[:8]}]", f"seed={cell.seed}"] + ([label] if label else [])
            for name, values in cell.series.items():
                stats = summarize(values)
                pieces.append(f"{name} median={stats.median:.2f} mean={stats.mean:.2f}")
            print("  " + "  ".join(pieces))
        print()
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import FIGURES, run_figure

    in_band = True
    for name in args.names or FIGURES:
        result = run_figure(name, paper_scale=args.paper_scale, workers=args.workers,
                            results_dir=None if args.no_cache else args.results_dir)
        print(result.report)
        for claim in FIGURES[name].claims:
            print("  " + claim.line(result.summary))
            in_band = in_band and claim.holds(result.summary)
        print()
        print(f"{name}: {result.computed_cells} cell(s) simulated", file=sys.stderr)
    return 0 if in_band else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MORE reproduction: declarative scenarios, parallel sweeps, "
                    "cached results.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list registered scenario presets") \
        .set_defaults(func=_command_list)

    show = commands.add_parser("show", help="print a scenario spec as JSON")
    show.add_argument("--preset")
    show.add_argument("--spec")
    show.add_argument("--set", action="append", metavar="PATH=VALUE")
    _add_section_flags(show)
    show.set_defaults(func=_command_show, axis=None, seeds=None)

    run = commands.add_parser("run", help="run one scenario (serial by default)")
    _add_spec_arguments(run, sweep=False)
    run.add_argument("--seed", type=int, help="pin a single replication seed")
    run.set_defaults(func=_command_run)

    sweep = commands.add_parser("sweep", help="run a full sweep across worker processes")
    _add_spec_arguments(sweep, sweep=True)
    sweep.set_defaults(func=_command_sweep)

    report = commands.add_parser("report", help="summarize cached sweep results")
    report.add_argument("scenarios", nargs="*", help="limit to these scenario names")
    report.add_argument("--results-dir", default=str(DEFAULT_RESULTS_DIR))
    report.set_defaults(func=_command_report)

    figure = commands.add_parser(
        "figure", help="run paper figures and check their claims against the bands")
    figure.add_argument("names", nargs="*", metavar="NAME",
                        help="rows of repro.experiments.figures.FIGURES (default: all)")
    figure.add_argument("--paper-scale", action="store_true", dest="paper_scale",
                        help="the paper's sample sizes and 3495-packet transfers")
    _add_store_arguments(figure, workers=1)
    figure.set_defaults(func=_command_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, argparse.ArgumentTypeError,
            json.JSONDecodeError) as error:
        # User-input errors (bad override path, unreadable spec file, corrupt
        # JSON) become one-line messages; genuine bugs keep their traceback.
        print(f"repro: error: {error}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
