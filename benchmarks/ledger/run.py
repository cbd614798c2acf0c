"""The performance ledger: four replayed dispatch workloads, end to end and per layer.

    python benchmarks/ledger/run.py [--workload NAME] [--seed N] [--repeats 3]
                                    [--seconds S] [--trace 0|1] [--smoke] [--out DIR]

Each workload runs in its own sequential child process (fresh ``ru_maxrss``,
``PYTHONHASHSEED=0``, one thread); the parent never imports the program.
Without ``--trace`` a child runs the whole pass order (timed replays, then
the traced and checked one); ``--trace 0`` stops after the timed replays and
``--trace 1`` runs only what the traced replay needs.  Every metric is
printed by name with its unit, and any failed check makes the exit code 1.

With a single ``--workload`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from metrics import PER_LAYER
from workloads import WORKLOADS_BY_NAME

ROOT = Path(__file__).resolve().parents[2]
SOURCES = ROOT / "src"
#: Set-ups per timed run: at least this many and for at least this long;
#: ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
#: Share of each workload's requests the smoke mode generates.
SMOKE_FRACTION = 0.05


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS_BY_NAME),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to the generators' preset seeds")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed replays per workload, at least")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep replaying until this much was measured")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed replays only; 1: traced replay only")
    parser.add_argument("--smoke", action="store_true",
                        help="5%% of each workload's requests, one repeat")
    parser.add_argument("--out", type=Path,
                        help="directory for ledger.json and the span files")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def plan_for(args: argparse.Namespace, workload: str) -> dict:
    """The child's plan (see ``passes.Plan``) for one workload."""
    timed = args.trace != 1
    quick = args.smoke or not timed
    return {
        "workload": workload,
        "seed": args.seed,
        "repeats": 1 if quick else args.repeats,
        "seconds": 0.0 if quick else args.seconds,
        "setups": 1 if quick else SETUP_REPEATS,
        "setup_seconds": 0.0 if quick else SETUP_SECONDS,
        "timed": timed,
        "traced": args.trace != 0,
        "fraction": SMOKE_FRACTION if args.smoke else 1.0,
        "spans_path": (
            str(args.out / f"{workload}.spans.jsonl") if args.out else None
        ),
    }


def run_child(plan: dict) -> dict:
    """Run one workload's passes in a child process; return its document."""
    environment = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(SOURCES), os.environ.get("PYTHONPATH")])
        ),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    finished = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(plan)],
        env=environment, stdout=subprocess.PIPE, text=True, check=False,
    )
    if finished.returncode != 0:
        raise SystemExit(
            f"ledger: child for {plan['workload']} exited {finished.returncode}"
        )
    return json.loads(finished.stdout.splitlines()[-1])


def child_main(plan_json: str) -> int:
    """Entry point inside the child: time the import, then run the passes."""
    import calibrate  # standard library only

    kernel = calibrate.Kernel()
    with calibrate.BackgroundGauge(kernel) as gauge:
        begin = time.perf_counter()
        import passes  # imports repro and the rest of the ledger

        import_s = time.perf_counter() - begin
    plan = passes.Plan(**json.loads(plan_json))
    document = passes.run(plan, kernel, gauge.scale(import_s))
    print(json.dumps(document))
    return 0


def report(document: dict) -> None:
    """Print every metric of one workload by name, with its unit."""
    print(f"\n== {document['workload']} (seed {document['seed']}, "
          f"{document['requests']} requests) ==")
    for name, metric in document.get("end_to_end", {}).items():
        spread = ""
        if "raw" in metric:
            spread = (f"   [q1 {metric['q1']:.4g}, q3 {metric['q3']:.4g}, "
                      f"n={len(metric['raw'])}]")
        print(f"  {name:<42}{metric['value']:>14.6g} {metric['unit']}{spread}")
    if "end_to_end" in document:
        print(f"  {'ops_attempted':<42}{document['ops_attempted']:>14} count")
        print(f"  {'ops_unserved':<42}{document['ops_unserved']:>14} count")
        print(f"  {'ops_failed':<42}{document['ops_failed']:>14} count")
        print(f"  {'tick samples per replay':<42}{document['ticks']:>14} count")
    layers = document.get("per_layer", {})
    for name, metric in layers.items():
        print(f"  {name:<42}{metric['value']:>14.6g} {metric['unit']}")
    for layer, share in layer_shares(document).items():
        print(f"  layer {layer:<36}{share:>14.1%} of traced wall (self time)")
    for stage, share in stage_shares(document).items():
        print(f"  stage {stage:<36}{share:>14.1%} of traced wall (callees included)")
    print(f"  digest {document['digest']}  "
          f"{'correct' if document['correct'] else 'INCORRECT'}")
    for failure in document["failures"]:
        print(f"  FAILED {failure}")


def layer_shares(document: dict) -> dict[str, float]:
    """Each layer's share of the traced wall time: its partition rows summed."""
    shares: dict[str, float] = {}
    for metric in PER_LAYER:
        if metric.partition and "per_layer" in document:
            layer = metric.name.rsplit(".", 1)[0]
            seconds = document["per_layer"][metric.name]["value"]
            shares[layer] = shares.get(layer, 0.0) + seconds / document["traced_s"]
    return dict(sorted(shares.items(), key=lambda item: -item[1]))


def stage_shares(document: dict) -> dict[str, float]:
    """The caller's view: share of the traced wall spent under each stage.

    Stages include their callees, so ``routing`` (backend searches plus
    prefetch, wherever they were called from) overlaps the stages above it;
    ``engine`` is the tick outside dispatch and scenario work: advancing the
    fleet, refreshing the vehicle index, expiring requests.
    """
    if "per_layer" not in document:
        return {}
    wall = document["traced_s"]

    def seconds(*names: str) -> float:
        return sum(document["per_layer"][name]["value"] for name in names)

    scenarios = seconds("scenarios.rebuild_s", "scenarios.step_self_s")
    stages = {
        "insertion": seconds("insertion.best_insertion_total_s"),
        "shareability": seconds(
            "shareability.update_total_s", "shareability.remove_s"
        ),
        "grouping": seconds("grouping.build_groups_total_s"),
        "engine": seconds("service.tick_total_s")
        - seconds("dispatch.dispatch_total_s") - scenarios,
        "routing": seconds(
            "network.routing.search_s", "network.oracle.prefetch_s"
        ),
        "scenarios": scenarios,
    }
    return {stage: value / wall for stage, value in stages.items()}


def driver_line(document: dict, traced: bool) -> str:
    """The one-line JSON result the benchmark contract asks for."""
    source = document["per_layer" if traced else "end_to_end"]
    return json.dumps({
        "correct": document["correct"],
        "attempted": document["ops_attempted"],
        "failed": document["ops_failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in source.items()
        },
    })


def main(argv: list[str] | None = None) -> int:
    if argv is None and sys.argv[1:2] == ["--child"]:
        return child_main(sys.argv[2])
    args = parse(argv)
    if not (SOURCES / "repro").is_dir():
        print(f"ledger: the program's sources are missing ({SOURCES}/repro)",
              file=sys.stderr)
        return 2
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    names = (args.workload,) if args.workload else tuple(WORKLOADS_BY_NAME)
    documents = {}
    for name in names:
        documents[name] = run_child(plan_for(args, name))
        report(documents[name])
    if args.out:
        ledger = {
            "meta": {
                "python": platform.python_version(),
                "cpus": os.cpu_count(),
                "seed": args.seed,
                "smoke": args.smoke,
            },
            "workloads": documents,
        }
        (args.out / "ledger.json").write_text(json.dumps(ledger, indent=1))
    correct = all(document["correct"] for document in documents.values())
    print(f"\nledger: {'every check passed' if correct else 'CHECKS FAILED'}")
    if args.workload and args.trace is not None:
        print(driver_line(documents[args.workload], traced=bool(args.trace)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
