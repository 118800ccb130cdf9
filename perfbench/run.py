"""Run one workload of the logcavity benchmark and print its metrics.

    python3 perfbench/run.py --workload gorenstein --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its `src`.
The workload's batch is built from the seed, sized so that its estimated
cost is `--seconds` reference seconds (see `REFERENCE_PROBE_S` below), and
run in this interpreter, one operation at a time: a closed loop with one
client. Each operation is one `logcavity.cli.main` call with `--out`.

With `--trace 0` the run times the batch and then runs the cheapest
operation of each command again. With `--trace 1` it times the batch, then
runs it again under the span tracer. Either way every report must equal,
byte for byte, the one its first run wrote, and every first run's answer is
checked (see `checks.py`). The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`, whose names and
units come from `BENCHMARK.json` (end_to_end with `--trace 0`, per_layer
with `--trace 1`).
"""

import argparse
import inspect
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
TRACES = HERE / "_traces"
SETUP_REPS = 9

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import logcavity from this checkout's src, and nowhere else."""
    if not (SRC / "logcavity" / "cli.py").is_file():
        raise SystemExit(f"error: no logcavity sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import logcavity.cli

    if not Path(logcavity.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: logcavity imported from {logcavity.__file__}")
    return logcavity.cli


# Speed reference. On a 2-core Intel Xeon virtual machine that shares its
# host with other tenants, the same single-threaded work took up to twice
# as long in one five-second window as in the next, and whole runs of this
# benchmark differed by up to a factor of 1.9 in wall time, so plain wall
# times do not repeat between runs. `probe` times a fixed piece of exact
# arithmetic. It runs only between operations, when the program has no
# work in flight (its thread pool ends with the call that made it), so
# the program cannot slow it down. Each operation's time is also given in
# reference seconds: its wall time times REFERENCE_PROBE_S over the mean of
# the probes taken right before and right after it, weighted as speeds.
# REFERENCE_PROBE_S is the probe's time on that machine under Python 3.11
# when it was quiet. A program that left work running between operations
# would slow the probe and so shrink its own reference seconds.
REFERENCE_PROBE_S = 0.00075


def probe():
    """Seconds of the reference arithmetic: the median of three timings."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 400):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            table[i & 63] = (acc, i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def to_reference(seconds, before, after):
    return seconds * REFERENCE_PROBE_S / statistics.harmonic_mean([before, after])


def run_pass(cli, ops, directory, tracer=None):
    """Run each operation once. Returns one dict per operation: `rc` (None
    when the call raised), `seconds` of wall time, `ref_seconds` (the same
    in reference seconds) and the report `data` (None when none was
    written)."""
    directory.mkdir(parents=True)
    results = []
    before = probe()
    for op in ops:
        out = directory / f"{op['id']}.json"
        argv = op["argv"] + ["--out", str(out)]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.run_op(lambda: cli.main(argv))
        except Exception:
            traceback.print_exc()
            rc = None
        seconds = time.perf_counter() - t0
        after = probe()
        results.append(
            {"rc": rc, "seconds": seconds, "ref_seconds": to_reference(seconds, before, after)}
        )
        before = after
    for result, op in zip(results, ops):
        out = directory / f"{op['id']}.json"
        result["data"] = out.read_bytes() if out.exists() else None
    return results


def total(results, key="seconds"):
    return sum(r[key] for r in results)


def import_seconds():
    """Seconds of `import logcavity.cli` in a fresh interpreter, and of the
    probe that interpreter runs right after the import. The child may run
    on another core than this process, at another speed, so it takes its
    own probe."""
    code = "\n".join(
        [
            "import statistics, sys, time",
            f"sys.path.insert(0, {str(SRC)!r})",
            "t = time.perf_counter()",
            "import logcavity.cli",
            "imported = time.perf_counter() - t",
            "from fractions import Fraction",
            inspect.getsource(probe),
            "print(imported, probe())",
        ]
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    imported, probe_s = map(float, done.stdout.split())
    return imported, probe_s


def setup(args, directory):
    """Build the batch, then SETUP_REPS times import the program in a fresh
    interpreter and write the batch's input files. Returns the batch and
    the medians of import plus input writing in reference seconds
    (`ref_seconds`) and in seconds (`seconds`), and of the import alone
    (`import_seconds`). Building the batch (pool loading, oracles, cost
    model) is the benchmark's own work and is not timed."""
    pools = workloads.load_pools() if args.workload != "posets" else None
    ops = workloads.build(args.workload, args.seed, args.seconds, pools)
    del pools
    reps = {"ref_seconds": [], "seconds": [], "import_seconds": []}
    for _ in range(SETUP_REPS):
        imported, probe_s = import_seconds()
        shutil.rmtree(directory, ignore_errors=True)
        before = probe()
        t0 = time.perf_counter()
        workloads.write_inputs(ops, directory)
        written = time.perf_counter() - t0
        reps["ref_seconds"].append(
            imported * REFERENCE_PROBE_S / probe_s + to_reference(written, before, probe())
        )
        reps["seconds"].append(imported + written)
        reps["import_seconds"].append(imported)
    return ops, {key: statistics.median(values) for key, values in reps.items()}


def first_run_errors(op, result):
    rc, data = result["rc"], result["data"]
    if rc is None:
        return ["raised"]
    if data is None:
        return ["wrote no report"]
    return checks.answer_errors(op, rc, json.loads(data))


def per_command(ops, results):
    totals = Counter()
    for op, result in zip(ops, results):
        totals[op["cmd"]] += result["ref_seconds"]
    return totals


def layer_metrics(spec, tracer, totals, wall_s, overhead):
    """Values of the per-layer metrics named in BENCHMARK.json."""
    short = {}
    for module, _, attr, _, key in tracer.targets():
        short.setdefault((module, attr), []).append(key)
    counts, inclusive, self_times = tracer.counts, tracer.inclusive(), tracer.self_times()
    values = {}
    for metric in spec:
        name = metric["name"]
        parts = name.split(".")
        if parts[0] == "cmd":
            value = totals[parts[1][: -len("_ref_s")]]
        elif name == "wall_s":
            value = wall_s
        elif name == "trace.overhead":
            value = overhead
        elif parts[1] == "self_s":
            value = self_times[parts[0]]
        elif name == "linalg.entries_in":
            value = counts[name]
        else:
            (key,) = short[(parts[0], parts[1])]  # a metric names one function
            value = inclusive[key] if parts[2] == "s" else counts[f"{key}.{parts[2]}"]
        values[name] = {"value": value, "unit": metric["unit"]}
    return values


def peak_rss():
    """This process's peak resident set size so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None):
    args = parse_args(argv)
    cli = import_program()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    directory = WORK / args.workload
    try:
        return measure(args, cli, spec, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def measure(args, cli, spec, directory):
    ops, setup_times = setup(args, directory)
    setup_rss_mb = peak_rss()
    first = run_pass(cli, ops, directory / "first")
    peak_rss_mb = peak_rss()

    if args.trace:
        again = ops
        tracer = Tracer()
        tracer.install()
        try:
            second = run_pass(cli, again, directory / "traced", tracer)
        finally:
            tracer.restore()
        TRACES.mkdir(exist_ok=True)
        tracer.write(TRACES / f"{args.workload}.spans.jsonl")
    else:
        cheapest = {}
        for op in ops:
            if op["cmd"] not in cheapest or op["cost"] < cheapest[op["cmd"]]["cost"]:
                cheapest[op["cmd"]] = op
        again = list(cheapest.values())
        second = run_pass(cli, again, directory / "repeat")

    failures = []
    for op, result in zip(ops, first):
        errors = first_run_errors(op, result)
        if errors:
            failures.append((op["id"], errors))
    first_bytes = {op["id"]: result["data"] for op, result in zip(ops, first)}
    for op, result in zip(again, second):
        if result["rc"] is None or result["data"] != first_bytes[op["id"]]:
            failures.append((op["id"], ["report bytes differ between runs"]))

    attempted = len(first) + len(second)
    failed = len(failures)
    totals = per_command(ops, first)
    print(
        f"workload {args.workload} seed {args.seed}: {len(ops)} operations, "
        f"failed_frac {failed / attempted} ({failed} of {attempted} invocations), "
        f"wall {total(first):.4f} s, {total(first, 'ref_seconds'):.4f} reference s"
    )
    print(
        f"  setup {setup_times['seconds']:.4f} s, of which import "
        f"{setup_times['import_seconds']:.4f} s, {setup_times['ref_seconds']:.4f} reference s "
        f"(medians); peak rss {setup_rss_mb:.1f} MB after setup, {peak_rss_mb:.1f} MB after "
        "the batch"
    )
    for cmd, seconds in sorted(totals.items()):
        print(f"  {cmd}_ref_s {seconds:.4f}")
    for op_id, errors in failures:
        print(f"  FAILED {op_id}: {'; '.join(errors)[:500]}")

    if args.trace:
        overhead = total(second, "ref_seconds") / total(first, "ref_seconds") - 1
        metrics = layer_metrics(spec["per_layer"], tracer, totals, total(first), overhead)
    else:
        measured = {
            "setup_s": setup_times["ref_seconds"],
            "wall_ref_s": total(first, "ref_seconds"),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
