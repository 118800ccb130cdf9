#!/usr/bin/env python3
"""Digest every report of the benchmark workloads, to compare two checkouts.

    python3 scripts/report_digests.py > out.json

The program and the workloads are imported from the checkout this script
sits in. For each workload of `perfbench/workloads.py`, at seeds 1 and
52817, it builds the batch for the run length of BENCHMARK.json, writes the
input files into a temporary directory, and runs each operation once
through `logcavity.cli.main`, in this interpreter and in batch order, as
`perfbench/run.py` does. It prints one JSON object,
{"<workload>/<seed>/<op id>": [exit code, sha256 of the report]}, where
the digest is null for an operation that wrote no report. Two checkouts
give the same answers on the batch iff they print the same object.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # no __pycache__ beside the checkout's files
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from logcavity.cli import main as cli_main  # noqa: E402

SEEDS = (1, 52817)


def digests(workload, seed, seconds, pools, directory):
    """{"<workload>/<seed>/<op id>": [exit code, report sha256 or None]}."""
    ops = workloads.build(workload, seed, seconds, pools)
    workloads.write_inputs(ops, directory)
    out = {}
    for op in ops:
        report = directory / f"{op['id']}.report"
        rc = cli_main(op["argv"] + ["--out", str(report)])
        digest = None
        if report.exists():
            digest = hashlib.sha256(report.read_bytes()).hexdigest()
        out[f"{workload}/{seed}/{op['id']}"] = [rc, digest]
    return out


def main():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    pools = workloads.load_pools()
    out = {}
    with tempfile.TemporaryDirectory(prefix="report_digests_") as tmp:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                directory = Path(tmp) / f"{workload}-{seed}"
                out.update(digests(workload, seed, seconds, pools, directory))
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
