"""Benchmark entry point for the two-stage microgrid dispatch.

    python3 perfbench/run.py --workload compare-reset --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout. Everything the program prints while
the workload runs (HiGHS writes to file descriptor 1 from native code) goes
to a log under `.perfbench-out/`, next to a JSON file with the run's full
detail. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.

Exit codes: 0 when every check passed, 1 when a check failed (the result is
still printed), 2 when the program could not be loaded or the run broke
off (nothing is printed).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"


def _percentile(values, q: int) -> float:
    """The q-th percentile of `values` by the inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(run) -> dict:
    """Times are the best the rounds gave: the fastest round for the rate,
    each operation's fastest run for the latencies. The rounds repeat the
    same work, so what differs between them is the host."""
    hours_per_round = run.sim_hours / len(run.round_seconds)
    op_seconds = [t for times in run.op_seconds().values() for t in times]
    return {
        "setup_s": {"value": statistics.median(run.setup_seconds), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "sim_hours_per_s": {"value": hours_per_round / min(run.round_seconds), "unit": "1/s"},
        "op_ms_mean": {"value": 1e3 * statistics.fmean(op_seconds), "unit": "ms"},
        "op_ms_p90": {"value": 1e3 * _percentile(op_seconds, 90), "unit": "ms"},
    }


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "microdispatch").glob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _compare_with_earlier_runs(run, key: str, fingerprint: dict) -> None:
    """Realized costs and counts must repeat across runs of one seed and
    the same sources."""
    path = OUT_DIR / f"fingerprints-{_source_digest()}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    current = json.loads(json.dumps(fingerprint))
    if key in known:
        run.check(f"{key} repeats the earlier run",
                  [] if known[key] == current else ["realized costs or counts differ"])
    else:
        known[key] = current
        tmp = path.with_suffix(".part")
        tmp.write_text(json.dumps(known))
        os.replace(tmp, path)


def _run(args):
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    run = workloads.run_workload(args.workload, args.seed, args.seconds, tracer)
    _compare_with_earlier_runs(run, f"{args.workload}/seed{args.seed}/costs", run.fingerprint)
    if tracer is None:
        metrics = end_to_end_metrics(run)
    else:
        layer = tracing.layer_metrics(tracer, len(run.setup_seconds), len(run.round_seconds),
                                      sum(run.round_seconds), run.cache_lookups)
        counts = {k: v for k, v in layer.items()
                  if tracing.unit_of(k) == "count" and not k.startswith("trace.")}
        _compare_with_earlier_runs(run, f"{args.workload}/seed{args.seed}/counts", counts)
        metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
                   for name, value in layer.items()}
        _write_spans(tracer, args)
    return run, metrics


def _write_spans(tracer, args) -> None:
    path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.csv"
    with open(path, "w") as fh:
        fh.write("name,start,end,parent,phase\n")
        for name, start, end, parent, phase, _ in tracer.spans:
            fh.write(f"{name},{start!r},{end!r},{parent},{phase}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compare-reset", "train-drl"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "microdispatch" / "__init__.py").is_file():
        print(f"error: no microdispatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # native solver output and stray prints go to a log, never to our stdout
    sys.stdout.flush()
    saved_stdout = os.dup(1)
    with open(OUT_DIR / f"{tag}.log", "wb") as log:
        os.dup2(log.fileno(), 1)
        try:
            run, metrics = _run(args)
        except Exception as exc:  # the run broke off: report, print no result
            import traceback
            traceback.print_exc()
            print(f"error: {args.workload} broke off: {exc}", file=sys.stderr)
            return 2
        finally:
            sys.stdout.flush()
            ctypes.CDLL(None).fflush(None)
            os.dup2(saved_stdout, 1)
            os.close(saved_stdout)

    attempted = run.work_ops + run.check_ops
    result = {"correct": not run.problems, "attempted": attempted,
              "failed": run.failed_checks,
              "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_seconds": run.setup_seconds, "round_seconds": run.round_seconds,
              "problems": run.problems[:200], "reports": run.fingerprint, **run.details,
              "op_ms": {group: {"mean": 1e3 * statistics.fmean(s),
                                "p50": 1e3 * statistics.median(s),
                                "p90": 1e3 * _percentile(s, 90), "n": len(s)}
                        for group, s in run.op_seconds().items()},
              "result": result}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(detail, indent=1))
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
