"""Batch command-line surface: parse inputs, take each command's verdicts
from the report function of the module that owns its math, and emit
deterministic machine-readable reports.

Exit codes: 0 success, 1 input/usage error, 2 a theorem-level invariant
failed on the given instance (the signal worth grepping for).

The matroid of a --matroid or --graph input is kept until another is built,
keyed by (flag, exact file bytes, --cap-elements), so back-to-back commands on
one input share its flats, evaluations and row bases in one matroid's memory; no
report changes, as a Matroid is immutable and its tables follow from its bases.
Its echo in a report's inputs, `to_json` rendered by `_text`, is kept with it.
"""

import argparse
import functools
import io
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .errors import LogcavityError, TooLarge
from .linalg import Graph, QMatrix, Record, _is_label, _rational, _shown
from .matroids import DEFAULT_ELEMENT_CAP, Matroid
from .polynomials import MPoly, basis_generating_poly, lorentzian_check
from .polynomials import lorentzian_report
from .posets import (
    DEFAULT_EXTENSION_CAP,
    MarkedPoset,
    Poset,
    kahn_saks_extremal_classify,
    kahn_saks_report,
    kahn_saks_sequence,
    poset_report,
)
from .discriminants import discriminant_report, mixed_discriminant
from .discriminants import mixed_discriminant_gram, mixed_discriminant_perm
from .hodge import check_degree, graded_dims, hodge_report, in_annihilator
from .hodge import mobius_pairing, probe_report
from .stanley import stanley_report
from . import zoo


class RunReport:
    def __init__(self, command, inputs, results, findings=None, violations=None):
        self.command = command
        self.inputs = inputs
        self.results = results
        self.findings = [] if findings is None else findings
        self.violations = [] if violations is None else violations
        self.version = __version__


_quote = json.encoder.encode_basestring_ascii
_LITERALS = {True: "true", False: "false", None: "null"}


class _Echo:
    """A matroid's echo in a report's inputs: its `to_json` as `_text`
    renders it, made once per indentation and kept as text, so that every
    command on a kept matroid reports the one rendering."""

    def __init__(self, m: Matroid):
        self.m, self.texts = m, {}

    def text(self, pad):
        if pad not in self.texts:
            self.texts[pad] = _text(self.m.to_json(), pad)
        return self.texts[pad]


def _text(value, pad=""):
    """json.dumps(_tree(value), sort_keys=True, indent=2), its lines after the
    first indented by pad, with no tree built for dicts and lists."""
    if not isinstance(value, (dict, list)):
        value = _tree(value)
    if isinstance(value, dict):
        value = sorted({str(k): v for k, v in value.items()}.items())
        value, ends = [(_quote(k) + ": ", v) for k, v in value], "{}"
    elif isinstance(value, list):
        value, ends = [("", v) for v in value], "[]"
    else:
        return json.dumps(value)
    inner = pad + "  "
    parts = []
    for head, v in value:
        kind = type(v)
        if kind is str:
            v = _quote(v)
        elif kind is int:
            v = int.__repr__(v)
        elif kind is bool or v is None:
            v = _LITERALS[v]
        elif kind is _Echo:
            v = v.text(inner)
        else:
            v = _text(v, inner)
        parts.append(head + v)
    body = f",\n{inner}".join(parts)
    return f"{ends[0]}\n{inner}{body}\n{pad}{ends[1]}" if parts else ends


def _tree(v):
    """The JSON tree a report value stands for: a Fraction is an int or a
    string, a Record the dict of its fields, dict keys go through str (the
    last wins), a tuple is a list and a set its members' trees sorted by str."""
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else int(v)
    if isinstance(v, Record):
        v = {name: getattr(v, name) for name in v._fields}
    if isinstance(v, dict):
        return {str(k): _tree(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, set, frozenset)):
        items = [_tree(x) for x in v]
        return items if isinstance(v, (list, tuple)) else sorted(items, key=str)
    return v


def _emit(report: RunReport, args) -> int:
    text = _text(vars(report)) + "\n"  # its fields; _tree would copy them
    if getattr(args, "format", "json") == "csv":
        import csv  # here, not at the top: only a CSV report needs it
        from types import SimpleNamespace

        flat = _flatten(json.loads(text), "", {})  # read back from the JSON text
        # rows are written ending in "\r\n", one write each, so that a field
        # holding "\r" is quoted, and end in "\n" in the report
        rows = []
        writer = csv.writer(SimpleNamespace(write=rows.append))
        writer.writerow(("key", "value"))
        writer.writerows((k, flat[k]) for k in sorted(flat))
        text = "".join(row[:-2] + "\n" for row in rows)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise LogcavityError(f"cannot write the report: {e}")
    else:
        sys.stdout.write(text)
    return 2 if report.violations else 0


def _flatten(obj, prefix, out):
    """Add each leaf of a JSON tree to out, as its JSON text, under its path:
    the keys and indices from the root, each followed by "." in prefix, with
    "\\" and "." inside a key escaped by "\\", so distinct leaves keep
    distinct paths."""
    if isinstance(obj, (dict, list)):
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            key = str(k).replace("\\", "\\\\").replace(".", "\\.")
            _flatten(v, f"{prefix}{key}.", out)
    else:
        out[prefix[:-1]] = json.dumps(obj)
    return out


class _InputObject(dict):
    """A JSON object read from an input file. Looking up a key it lacks is
    an input error that names the key, wherever a reader looks it up."""

    def __init__(self, what, pairs):
        super().__init__(pairs)
        self.what = what

    def __missing__(self, key):
        raise LogcavityError(f"{self.what} JSON has no key {key!r}")


def _read(path, what):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:  # missing, a directory
        raise LogcavityError(f"{what} file cannot be read: {e}")


def _load_json(path, what, data=None):
    """The JSON object of the file at path, or of its bytes data, read as a
    text file: UTF-8, newlines translated, as error positions count them."""
    data = _read(path, what) if data is None else data
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        obj = json.loads(text, object_hook=lambda d: _InputObject(what, d))
    except UnicodeDecodeError as e:  # not UTF-8
        raise LogcavityError(f"{what} file cannot be read: {e}")
    except json.JSONDecodeError as e:
        raise LogcavityError(f"{what} file is not valid JSON: {e}")
    except RecursionError:  # arrays or objects nested past the decoder's depth
        raise LogcavityError(f"{what} file nests its JSON too deeply to read")
    except ValueError:  # int() refused a JSON integer past Python's digit limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        raise LogcavityError(f"{what} file has an integer of over {limit} digits")
    if not isinstance(obj, dict):
        kind = type(obj).__name__
        raise LogcavityError(f"{what} file holds a {kind}, not a JSON object")
    return obj


def _load_matroid(args, graph=None):
    """(matroid, its `_Echo`): the --matroid, else the cycle matroid of graph
    or the --graph, built under --cap-elements, which the constructor checks
    before any work."""
    if graph is None and args.matroid and args.graph:  # else the caller checks the pair
        raise LogcavityError("give --matroid or --graph, not both")
    if args.matroid or (graph is None and args.graph):
        flag = "matroid" if args.matroid else "graph"
        return _built(flag, _read(getattr(args, flag), flag), args.cap_elements)
    if graph is not None:  # stanley's, read by the caller
        m = Matroid.graphic(graph, args.cap_elements)
        return m, _Echo(m)
    raise LogcavityError("a --matroid or --graph file is required")


@functools.lru_cache(maxsize=1)
def _built(flag, data, cap):
    """(the matroid of a --matroid or --graph file's bytes, under the cap,
    its `_Echo`)."""
    if flag == "matroid":
        m = Matroid.from_json(_load_json(None, flag, data), cap)
    else:
        m = Matroid.graphic(Graph.from_json(_load_json(None, flag, data)), cap)
    return m, _Echo(m)


def _load_marked_poset(args) -> MarkedPoset:
    obj = _load_json(args.poset, "poset")
    p = Poset.from_json(obj)
    x, y = _mark(args, obj, p, "x"), _mark(args, obj, p, "y")
    if x is None or y is None:
        raise LogcavityError("marks x and y are required (flags or poset JSON)")
    return MarkedPoset(p, x, y)


def _mark(args, obj, p, key):
    """The label of the element the mark names, from its flag, else from the
    poset JSON, where it must be an element label if it is there; None if
    neither gives it."""
    value = getattr(args, key, None)
    if value is None:
        value = obj.get(key)
        if key in obj and not _is_label(value):
            raise LogcavityError(
                f"poset mark '{key}' must be an element label, got {_shown(value)}"
            )
    return None if value is None else p.labels[p.index(value)]


def _parse_labels(m: Matroid, csv):
    if csv is None:
        raise LogcavityError("an element list like --R '1,4,5' is required")
    raw = [s.strip() for s in csv.split(",") if s.strip()]
    out = []
    for item in raw:
        if item not in m._index:  # a string: the index finds it by printed form
            raise LogcavityError(f"element {_shown(item)} is not in the ground set")
        if (label := m.ground[m._index[item]]) in out:
            raise LogcavityError(f"element {_shown(item)} is given twice")
        out.append(label)
    return out


def _parse_point(csv, n):
    if csv is None:
        return tuple(Fraction(1) for _ in range(n))
    parts = [s.strip() for s in csv.split(",")] if csv else []  # "": no coordinates
    if len(parts) != n:
        raise LogcavityError(f"point needs {n} coordinates, got {len(parts)}")
    expected = "point coordinates must be rationals like 0, 1, 3/2"
    return tuple(_rational(p, "a point coordinate", expected) for p in parts)


def cmd_poset(args):
    obj = _load_json(args.poset, "poset")
    p = Poset.from_json(obj)
    report = poset_report(p, _mark(args, obj, p, "x"), args.cap_extensions)
    return RunReport("poset", {"poset": obj}, *report)


def cmd_kahnsaks(args):
    mp = _load_marked_poset(args)
    report = kahn_saks_report(mp, args.cap_extensions)
    return RunReport("kahnsaks", {"poset": mp.to_json()}, *report)


def cmd_matroid(args):
    m, echo = _load_matroid(args)
    data = m.parallel_data()
    results = {
        "ground": list(m.ground),
        "rank": m.rank,
        "bases": len(m.bases),
        "loops": data.loops,
        "coloops": m.coloops(),
        "parallel_classes": [sorted(map(str, c)) for c in data.classes],
        "flats_per_rank": m.flats().rank_counts(),
        "graded_dims": graded_dims(m),
    }
    return RunReport("matroid", {"matroid": echo}, results)


def cmd_stanley(args):
    graph = None
    if getattr(args, "graph", None):
        graph = Graph.from_json(_load_json(args.graph, "graph"))
    m, echo = _load_matroid(args, graph)
    # edge j is element j, as the volume route of stanley_report takes it
    if getattr(args, "matroid", None) and graph and (
        len(graph.edges) != m.n
        or Matroid.graphic(graph, args.cap_elements).bases != m.bases
    ):
        raise LogcavityError(
            f"--graph needs the matroid's {m.n} edges and bases, edge j as element j"
        )
    r_labels = _parse_labels(m, args.R)
    inputs = {"matroid": echo, "R": [str(e) for e in r_labels]}
    return RunReport("stanley", inputs, *stanley_report(m, r_labels, graph))


def cmd_lorentzian(args):
    if getattr(args, "poly", None):
        for flag in ("matroid", "graph"):
            if getattr(args, flag):
                raise LogcavityError(f"give --poly or --{flag}, not both")
        source = MPoly.from_json(_load_json(args.poly, "polynomial"))
        inputs = {"poly": source.to_json()}
    else:
        source, echo = _load_matroid(args)
        inputs = {"matroid": echo}
    return RunReport("lorentzian", inputs, *lorentzian_report(source))


def cmd_discriminant(args):
    obj = _load_json(args.tuple, "matrix tuple")
    entries = obj["mats"]
    if not isinstance(entries, list) or not entries:
        raise LogcavityError("matrix tuple 'mats' must be a nonempty list")
    given = []  # (matrix, mult), checked before a list of them is built
    for entry in entries:
        if not isinstance(entry, dict):
            raise LogcavityError("each entry of 'mats' must be a JSON object")
        mult = entry.get("mult", 1)
        if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
            raise LogcavityError(f"'mult' must be an integer >= 1, got {_shown(mult)}")
        given.append((QMatrix.from_json(entry["matrix"]), mult))
    return RunReport("discriminant", {"tuple": obj}, *discriminant_report(given))


def cmd_hodge(args):
    m, echo = _load_matroid(args)
    check_degree(m, args.k)  # before the point: with both faults, k is named
    point = _parse_point(getattr(args, "point", None), m.n)
    inputs = {"matroid": echo, "k": args.k, "point": [str(x) for x in point]}
    return RunReport("hodge", inputs, *hodge_report(m, args.k, point))


def cmd_probe(args):
    m, echo = _load_matroid(args)
    elements = list(m.ground) if args.e is None else _parse_labels(m, args.e)
    return RunReport("probe", {"matroid": echo}, *probe_report(m, elements))


def cmd_selftest(args):
    """Pinned acceptance fixtures, kept fast; exit 0 means all green."""
    checks = {}
    violations = []

    def record(name, ok):
        checks[name] = bool(ok)
        if not ok:
            violations.append(f"selftest: {name} failed")

    mk23 = Matroid.graphic(zoo.k23_graph())
    count, iner = mobius_pairing(mk23, 2)
    record("k23_pairing", count == 15 and iner._values() == (6, 6, 3))

    mA = zoo.linear_3x5_matroid()
    record(
        "explicit_annihilator",
        in_annihilator(
            mA,
            {
                frozenset({1, 3}): 1,
                frozenset({4, 5}): 1,
                frozenset({1, 5}): -1,
                frozenset({3, 4}): -1,
            },
        ),
    )

    u23 = Matroid.uniform(2, 3)
    record("u23_dims", graded_dims(u23) == [1, 3, 1])

    witness = zoo.ratio_two_witness_poset()
    seq = kahn_saks_sequence(witness)
    verdict = kahn_saks_extremal_classify(witness, 2)
    record(
        "ratio_two_witness",
        seq[:3] == [1, 2, 4]
        and verdict.ratio == 2
        and all(verdict.ratio_two_conditions),
    )

    rng = random.Random(1)
    ok = True
    for _ in range(5):
        a1, x1 = zoo.random_psd_with_factor(rng, 3)
        a2, x2 = zoo.random_psd_with_factor(rng, 3)
        a3, x3 = zoo.random_psd_with_factor(rng, 3)
        perm = mixed_discriminant_perm([a1, a2, a3])
        ok &= perm == mixed_discriminant([a1, a2, a3])
        ok &= perm == mixed_discriminant_gram([x1, x2, x3])
    record("mixed_discriminant_routes", ok)

    record(
        "lorentzian_u23",
        lorentzian_check(basis_generating_poly(u23)).passed,
    )
    return RunReport("selftest", {}, {"checks": checks}, violations=violations)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="logcavity",
        description="Exact log-concavity workbench: matroids, posets, mixed "
        "discriminants, Lorentzian polynomials, Hodge-Riemann certification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    listed = "comma-separated {}; a list that starts with - needs --{}=-1,...".format

    def common(p, matroid=False, poset=False):
        p.add_argument("--out", help="write the report here")
        fmt = "report format (default: %(default)s)"
        p.add_argument("--format", choices=["json", "csv"], default="json", help=fmt)
        if matroid:
            cap = "most elements a matroid may have (default: %(default)s)"
            p.add_argument(
                "--cap-elements", type=int, default=DEFAULT_ELEMENT_CAP, help=cap
            )
            p.add_argument("--matroid", help="matroid JSON file")
            p.add_argument("--graph", help="graph JSON file (graphic matroid)")
        if poset:
            cap = "most linear extensions to count (default: %(default)s)"
            p.add_argument(
                "--cap-extensions", type=int, default=DEFAULT_EXTENSION_CAP, help=cap
            )
            p.add_argument("--poset", required=True, help="poset JSON file")

    p = sub.add_parser("poset", help="linear extension statistics")
    common(p, poset=True)
    p.add_argument("--x", help="distinguished element")

    p = sub.add_parser("kahnsaks", help="Kahn-Saks sequence and extremals")
    common(p, poset=True)
    p.add_argument("--x", help="marked element x (default: the poset JSON's 'x')")
    p.add_argument("--y", help="marked element y (default: the poset JSON's 'y')")

    p = sub.add_parser("matroid", help="matroid structure summary")
    common(p, matroid=True)

    p = sub.add_parser("stanley", help="basis counting sequence for a split")
    common(p, matroid=True)
    p.add_argument("--R", help=listed("elements of the R side", "R"))
    p.add_argument("--report", dest="out", help="alias of --out")

    p = sub.add_parser("lorentzian", help="Lorentzian certificate")
    common(p, matroid=True)
    p.add_argument("--poly", help="polynomial JSON file")

    p = sub.add_parser("discriminant", help="mixed discriminants")
    common(p)
    p.add_argument("--tuple", required=True, help="matrix tuple JSON file")

    p = sub.add_parser("hodge", help="Gorenstein quotient certification")
    common(p, matroid=True)
    p.add_argument("--k", type=int, default=1, help="degree, 2k <= rank (default: 1)")
    p.add_argument("--point", help=listed("rationals (default: all 1)", "point"))

    p = sub.add_parser("probe", help="open-question probes (report only)")
    common(p, matroid=True)
    p.add_argument("--e", help=listed("elements to probe (default: all)", "e"))

    p = sub.add_parser("selftest", help="run the pinned fixtures")
    common(p)
    for name, p in sub.choices.items():
        p.set_defaults(command=name)
    return parser


@functools.cache
def _parser():
    """(the parser, {command name: its subparser})."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a command's flags are parsed by its subparser alone, in one pass;
        # it sets the command, as the whole parser's dispatch would
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:])
        else:  # --help, --version, no command or an unknown one
            args = parser.parse_args(argv)
    except SystemExit as e:
        # --help and --version exit 0; argparse reports usage errors as 2,
        # which is the theorem-failure code here
        return 0 if e.code in (0, None) else 1
    try:
        for flag in ("cap_elements", "cap_extensions"):
            if getattr(args, flag, 0) < 0:
                raise LogcavityError(f"--{flag.replace('_', '-')} must be 0 or more")
        # by name at call time: the cached parser pins no cmd_* function
        return _emit(globals()["cmd_" + args.command](args), args)
    except LogcavityError as e:
        # only a cap is named: every other message says what was wrong
        name = "TooLarge: " if isinstance(e, TooLarge) else ""
        sys.stderr.write(f"error: {name}{e}\n")
        return 1
    except ValueError as e:  # only str() of a result past int's digit limit
        if "for integer string conversion;" not in str(e):
            raise
        limit = sys.get_int_max_str_digits()
        sys.stderr.write(f"error: a report number exceeds the {limit}-digit limit\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
