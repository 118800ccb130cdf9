#!/usr/bin/env python3
"""Measure a change against its parent with alternating pairs of benchmark
runs, and write the result as BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent SHA --pr 6 --workload certificates

Run from the root of a checkout. The parent is the committed tree of SHA
and the change is the working tree of this checkout (tracked files, and
untracked files that are not ignored). Each side is copied into its own
temporary directory (under $TMPDIR), and every run there is one
`python3 perfbench/run.py --trace 0` in a fresh interpreter, with the
benchmark files of that side and the run length of BENCHMARK.json. Pair i
runs seed seeds[i % len(seeds)] on both sides, the parent first in even
pairs and the change first in odd ones, so that a drift in machine speed
hits both sides alike.

The file records the machine, the Python version, the parent's SHA and the
SHA the working tree is on, a digest of the files each side ran, every
run's metrics and its `<command>_ref_s` lines (the reference seconds per
command that run.py prints before its JSON line), and per side the median,
quartiles and IQR of each end-to-end metric, with the number of pairs the
change won (by the metric's `better` direction in BENCHMARK.json), and of
each command's reference seconds.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND_LINE = re.compile(r"^\s+(\w+_ref_s) (\S+)$")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the parent")
    parser.add_argument("--pr", required=True, help="the output file is BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=12)
    parser.add_argument("--seeds", default="1,2,3,52817", help="52817 is held out")
    return parser.parse_args(argv)


def git(*args, data=False):
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True)
    return done.stdout if data else done.stdout.decode().strip()


def materialize(rev, directory):
    """Write the files of rev (None: the working tree) into directory and
    return a digest of their paths and contents."""
    if rev is None:
        names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                    data=True)
        files = {
            name: (ROOT / name).read_bytes()
            for name in names.decode().split("\0")
            if name and (ROOT / name).is_file()
        }
    else:
        archive = tarfile.open(fileobj=io.BytesIO(git("archive", rev, data=True)))
        files = {
            member.name: archive.extractfile(member).read()
            for member in archive.getmembers()
            if member.isfile()
        }
    digest = hashlib.sha256()
    for name in sorted(files):
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(files[name])
        digest.update(name.encode() + b"\0" + hashlib.sha256(files[name]).digest())
    return digest.hexdigest()


def run_once(directory, workload, seed, seconds):
    """One benchmark run; returns its last line, parsed, and its
    {<command>_ref_s: seconds}."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=directory, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    commands = {}
    for line in lines[:-1]:
        match = COMMAND_LINE.match(line)
        if match:
            commands[match[1]] = float(match[2])
    return json.loads(lines[-1]), commands


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def measure(workload, sides, args, spec):
    seeds = [int(s) for s in args.seeds.split(",")]
    pairs = []
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        runs = {}
        for side in order:
            out, commands = run_once(sides[side], workload, seed, spec["run_seconds"])
            runs[side] = {
                "commands": commands,
                "correct": out["correct"],
                "failed": out["failed"],
                "attempted": out["attempted"],
                "metrics": {name: m["value"] for name, m in out["metrics"].items()},
            }
        pairs.append({"seed": seed, "first": order[0], **runs})
        wall = {side: runs[side]["metrics"]["wall_ref_s"] for side in order}
        print(f"{workload} pair {i} seed {seed}: wall_ref_s {wall}", file=sys.stderr)
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in sides}
        lower = metric["better"] == "lower"
        wins = sum(
            (c < p) if lower else (c > p)
            for p, c in zip(values["parent"], values["change"])
        )
        stats = {side: summary(v) for side, v in values.items()}
        gap = stats["parent"]["median"] - stats["change"]["median"]
        metrics[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **stats,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_gap": gap if lower else -gap,
            "gap_exceeds_parent_iqr": (gap if lower else -gap) > stats["parent"]["iqr"],
        }
    commands = {}
    for name in sorted({c for p in pairs for s in sides for c in p[s]["commands"]}):
        commands[name] = {
            side: summary([p[side]["commands"][name] for p in pairs]) for side in sides
        }
    return {
        "all_correct": all(
            p[s]["correct"] and not p[s]["failed"] for p in pairs for s in sides
        ),
        "metrics": metrics,
        "commands": commands,
        "pairs": pairs,
    }


def machine():
    model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": model,
        "cpus": os.cpu_count(),
    }


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_sha = git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        digests = {
            "parent": materialize(parent_sha, sides["parent"]),
            "change": materialize(None, sides["change"]),
        }
        workloads = {w: measure(w, sides, args, spec) for w in args.workload}
    result = {
        "machine": machine(),
        "python": sys.version.split()[0],
        "parent": {"sha": parent_sha, "files_sha256": digests["parent"]},
        "change": {
            "working_tree_of": git("rev-parse", "HEAD"),
            "files_sha256": digests["change"],
        },
        "command": f"python3 perfbench/run.py --trace 0 --seconds {spec['run_seconds']}",
        "seeds": [int(s) for s in args.seeds.split(",")],
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
