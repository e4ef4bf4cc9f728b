"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed.
``--trace 1`` runs the workload twice for half the time each, untraced and
then with every probe of ``spans.PROBES`` installed, and reports the
per-layer metrics, the parts table (each layer's self time, the
unattributed remainder and their shares) and the tracing overhead.  Both
modes check the program's outputs; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything else the run writes goes to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys

from common import OUT_ROOT, ROOT, SRC, HostMeter

WORKLOADS = ("service", "stream", "solve", "matrix")
#: The load generator and the program's matrix pool use at most this many
#: CPUs, whatever the machine has, so runs compare across machines.
MAX_CPUS = 2
#: Environment variables that change how the program computes; they are
#: recorded with every result.
KERNEL_ENV = ("REPRO_KERNEL", "REPRO_KERNEL_DTYPE")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def prepare() -> dict:
    """Check the environment, pin CPUs, import the program; returns its facts."""
    if os.environ.get("REPRO_FAULTS"):
        refuse("REPRO_FAULTS is set; the benchmark measures the program without injected faults")
    if not (SRC / "repro").is_dir():
        refuse(f"no program source at {SRC / 'repro'}")
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) > MAX_CPUS:
        os.sched_setaffinity(0, allowed[:MAX_CPUS])
    sys.path.insert(0, str(SRC))
    from repro import kernels

    if kernels.get_kernel_tier() != "numpy" or str(kernels.get_kernel_dtype()) != "float64":
        refuse("the benchmark runs the program at its default numpy/float64 kernel tier")
    facts = kernels.environment_metadata()
    facts["cpu_affinity_set"] = sorted(os.sched_getaffinity(0))
    facts["kernel_env"] = {name: os.environ[name] for name in KERNEL_ENV if name in os.environ}
    return facts


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in declared["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in declared["per_layer"]},
    }


def print_metrics(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    args = parse_args(argv)
    facts = prepare()
    declared = declared_metrics()
    module = importlib.import_module(f"bench_{args.workload}")
    out = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    report = {"args": vars(args), "environment": facts}
    host = HostMeter()
    if args.trace == 0:
        phase = module.run_phase(args.seed, args.seconds, out, None)
        phases = [phase]
        metrics, units = phase.e2e, declared["end_to_end"]
        print_metrics("end-to-end metrics (untraced)", metrics, units)
        print_metrics("the same measurements by workload name", phase.named, {})
    else:
        from spans import SpanRecorder, install

        untraced = module.run_phase(args.seed, args.seconds / 2, out, None, full=False)
        recorder = SpanRecorder(worker_dir=out / "workers")
        (out / "workers").mkdir()
        uninstall = None if args.workload == "service" else install(recorder)
        try:
            traced = module.run_phase(args.seed, args.seconds / 2, out, recorder, full=False)
        finally:
            if uninstall is not None:
                uninstall()
        phases = [untraced, traced]
        cross_check = getattr(module, "cross_check", None)
        if cross_check is not None:
            traced.failures.extend(cross_check(untraced, traced))
        metrics, units = traced.layers, declared["per_layer"]
        print("tracing overhead (traced minus untraced, each over half the run)")
        for name, unit in declared["end_to_end"].items():
            base, probed = untraced.e2e[name], traced.e2e[name]
            print(f"  {name:<40} {probed - base:>+14.6g} {unit}  ({(probed - base) / base:+.1%})")
        total = traced.parts_total_s
        print(f"parts of {total:.6g} s traced op time (self time per layer)")
        for name, seconds in sorted(traced.parts.items(), key=lambda item: -item[1]):
            print(f"  {name:<40} {seconds:>14.6g} s  {seconds / max(total, 1e-12):7.1%}")
        print_metrics("per-layer metrics (traced, per op unless the name says otherwise)", metrics, units)
        report["traced_parts_s"] = traced.parts
        (out / "spans.json").write_text(json.dumps(recorder.payload()))

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(f"fail_ratio {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    print(f"environment {json.dumps(facts, sort_keys=True)}")
    report["host"] = host.finish()
    print(f"host {json.dumps(report['host'], sort_keys=True)}")

    missing = sorted(set(units) - set(metrics))
    unknown = sorted(set(metrics) - set(units))
    if missing or unknown:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: missing {missing}, unknown {unknown}")
    report.update(
        phases=[{"e2e": p.e2e, "named": p.named, "layers": p.layers, "failures": p.failures} for p in phases]
    )
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
