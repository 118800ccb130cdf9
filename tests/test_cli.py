import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import report_oracle as oracle
from logcavity import __version__, cli, discriminants, hodge, linalg, matroids
from logcavity.cli import RunReport, _InputObject, _emit, _text, main
from logcavity.errors import LogcavityError
from logcavity.linalg import Graph, QMatrix, Record
from logcavity.matroids import Matroid
from logcavity.polynomials import MPoly
from logcavity.posets import Poset
from logcavity.stanley import parallel_replicate
from logcavity.zoo import (
    k23_graph,
    k3_graph,
    k4_graph,
    matroid_zoo,
    random_psd_with_factor,
    ratio_two_witness_poset,
    tripled_u23,
)
from discriminant_oracle import random_positive_definite
from linalg_oracle import add, scale
from matroid_oracle import small_matroids


@pytest.fixture
def k23_file(tmp_path):
    path = tmp_path / "k23.json"
    path.write_text(
        json.dumps({"type": "graphic", "graph": k23_graph().to_json()})
    )
    return str(path)


@pytest.fixture
def witness_file(tmp_path):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(ratio_two_witness_poset().to_json()))
    return str(path)


GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


I2 = {"rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]}


def poly(term):
    """A one-variable polynomial JSON with the single given term."""
    return {"nvars": 1, "terms": [term]}


def golden_json(name):
    """A pinned JSON report, whose version reads "VERSION" in the file."""
    return (GOLDEN / name).read_text().replace('"VERSION"', json.dumps(__version__))


def golden_csv(name):
    """A pinned CSV report, whose last row, the version (its JSON text in a
    quoted field), is left out of the file."""
    version = json.dumps(__version__).replace('"', '""')
    return (GOLDEN / name).read_text() + f'version,"{version}"\n'


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestSelftest:
    def test_exit_zero(self, capsys):
        code, report = run_json(capsys, ["selftest"])
        assert code == 0
        assert all(report["results"]["checks"].values())


class TestDiscriminantCommand:
    def test_repeated_matrix(self, capsys, tmp_path):
        # D(A, A, B) for A = diag(1, 1, 2), B = diag(3, 1, 1):
        # (1/3)(a1 a2 b3 + a1 b2 a3 + b1 a2 a3) = (1 + 2 + 6) / 3
        path = tmp_path / "tuple.json"
        a = {"rows": 3, "cols": 3, "entries": ["1", "0", "0", "0", "1", "0", "0", "0", "2"]}
        b = {"rows": 3, "cols": 3, "entries": ["3", "0", "0", "0", "1", "0", "0", "0", "1"]}
        path.write_text(json.dumps({"mats": [{"matrix": a, "mult": 2}, {"matrix": b}]}))
        code, report = run_json(capsys, ["discriminant", "--tuple", str(path)])
        assert code == 0
        assert report["results"]["value"] == "3"
        assert report["results"]["count"] == 3 and report["results"]["psd_inputs"]

    def test_each_value_computed_once(self, capsys, tmp_path, monkeypatch):
        # A given twice as separate entries: two distinct matrices, one
        # inertia each, and one determinant per distinct subset sum
        # j_A A + j_B B across D(A, B, A), D(A, A, A) and D(B, B, A): j_A
        # runs to 2 with j_B to 1, to 3 alone, and to 1 with j_B to 2, which
        # is 9 sums (16 when each polarization computes its own); the zero
        # sum, of det 0, is not eliminated, so 8 are, each once, as members
        # of `integer_dets` batches (a member that meets a zero pivot goes on
        # to `integer_det`)
        real_inertia = discriminants.integer_inertia
        real_dets, real_det = discriminants.integer_dets, linalg.integer_det
        calls = {"integer_inertia": 0, "fallbacks": 0}
        members = []

        def inertia(*args):
            calls["integer_inertia"] += 1
            return real_inertia(*args)

        def batch(flats, n):
            members.extend(tuple(f) for f in flats)
            return real_dets(flats, n)

        def fallback(rows):
            calls["fallbacks"] += 1
            return real_det(rows)

        monkeypatch.setattr(discriminants, "integer_inertia", inertia)
        monkeypatch.setattr(discriminants, "integer_dets", batch)
        monkeypatch.setattr(linalg, "integer_det", fallback)
        path = tmp_path / "tuple.json"
        a = {"rows": 3, "cols": 3, "entries": ["2", "1", "0", "1", "2", "0", "0", "0", "1"]}
        b = {"rows": 3, "cols": 3, "entries": ["3", "0", "0", "0", "1", "0", "0", "0", "1"]}
        path.write_text(json.dumps({"mats": [{"matrix": a}, {"matrix": b}, {"matrix": a}]}))
        code, report = run_json(capsys, ["discriminant", "--tuple", str(path)])
        assert code == 0 and report["results"]["psd_inputs"]
        assert "alexandrov" in report["results"]
        sums = {(j_a, j_b) for j_a in range(3) for j_b in range(2)}
        sums |= {(j_a, 0) for j_a in range(4)}
        sums |= {(j_a, j_b) for j_a in range(2) for j_b in range(3)}
        assert len(sums) == 9
        # every sum but zero is positive definite, so no pivot is zero
        assert calls == {"integer_inertia": 2, "fallbacks": 0}
        a_flat, b_flat = (list(map(int, m["entries"])) for m in (a, b))
        eliminated = {
            tuple(j_a * x + j_b * y for x, y in zip(a_flat, b_flat))
            for j_a, j_b in sums - {(0, 0)}
        }
        assert len(members) == len(set(members)) == 8
        assert set(members) == eliminated

    def test_a_failing_alexandrov_check_is_not_swallowed(
        self, capsys, tmp_path, monkeypatch
    ):
        # on a PSD tuple the check's hypotheses hold, so an error it raises
        # is a fault to report, not a reason to leave the check out
        def failing(*args):
            raise LogcavityError("the check failed")

        monkeypatch.setattr(discriminants, "alexandrov_check", failing)
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"mats": [{"matrix": I2}, {"matrix": I2}]}))
        assert main(["discriminant", "--tuple", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: the check failed\n" and captured.out == ""

    def test_alexandrov_needs_psd_fixed_and_symmetric_pair(self, capsys, tmp_path):
        # a non-PSD fixed matrix or a non-symmetric X leaves the check out
        psd = ["1", "0", "0", "0", "1", "0", "0", "0", "1"]
        indefinite = ["1", "0", "0", "0", "-1", "0", "0", "0", "1"]
        skew = ["1", "1", "0", "0", "1", "0", "0", "0", "1"]
        for x, fixed, checked in (
            (psd, psd, True),
            (psd, indefinite, False),
            (skew, psd, False),
        ):
            entries = [x, psd, fixed]
            mats = [{"matrix": {"rows": 3, "cols": 3, "entries": e}} for e in entries]
            path = tmp_path / "tuple.json"
            path.write_text(json.dumps({"mats": mats}))
            code, report = run_json(capsys, ["discriminant", "--tuple", str(path)])
            assert code == 0 and ("alexandrov" in report["results"]) == checked


class TestHodgeCommand:
    def test_k23_pairing(self, capsys, k23_file):
        code, report = run_json(
            capsys, ["hodge", "--matroid", k23_file, "--k", "2"]
        )
        assert code == 0
        assert report["results"]["mobius_pairing"] == {
            "flats": 15,
            "inertia": [6, 6, 3],
        }

    def test_point_with_a_negative_first_coordinate(self, capsys, k23_file):
        # "--point -1,..." reads as an option; the "=" form does not
        argv = ["hodge", "--matroid", k23_file, "--k", "1"]
        assert main(argv + ["--point", "-1,1,1,1,1,1"]) == 1
        assert "expected one argument" in capsys.readouterr().err
        code, report = run_json(capsys, argv + ["--point=-1,1,1,1,1,1"])
        assert code == 0 and report["inputs"]["point"][0] == "-1"

    def test_point_flag(self, capsys, k23_file):
        code, report = run_json(
            capsys,
            ["hodge", "--matroid", k23_file, "--k", "1", "--point", "0,1,1,1,1,1"],
        )
        assert code == 0
        assert report["results"]["hrr"] is True  # edge 0 is not a bridge

    def test_an_empty_point_is_read_as_written(self, capsys, tmp_path, k23_file):
        # "" is the point with no coordinates, as "--R ''" is R empty
        path = tmp_path / "empty.json"
        path.write_text('{"type": "bases", "ground": [], "bases": [[]]}')
        argv = ["hodge", "--matroid", str(path), "--k", "0", "--point", ""]
        code, report = run_json(capsys, argv)
        assert code == 0 and report["inputs"]["point"] == []
        assert main(["hodge", "--matroid", k23_file, "--point", ""]) == 1
        assert capsys.readouterr().err == "error: point needs 6 coordinates, got 0\n"

    @pytest.mark.parametrize(
        "flags", [["--point", "1/0,1,1,1,1,1"], ["--k", "-1"]], ids=["zero-den", "k<0"]
    )
    def test_bad_point_or_degree_is_an_input_error(self, capsys, k23_file, flags):
        assert main(["hodge", "--matroid", k23_file] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_one_elimination_per_hr_degree(self, capsys, k23_file, monkeypatch, k):
        # Q^(k-1) is non-degenerate at this point, so In(Q^k), HL_k and HRR_k
        # take one elimination of Q^(k-1) and one of Q^k, each square with
        # no border rows. In the middle degree (here k = 2, rank 4) In(Q^k)
        # is read off the Moebius pairing, so its one elimination, of the
        # rank-k flats, stands for Q^k; below it (k = 1) the pairing is zero
        # by rank. The memo is cleared, so that no kept matroid holds the
        # pairing or an inertia.
        shapes = []
        original = hodge.integer_inertia

        def counted(rows):
            shapes.append(len(rows))
            return original(rows)

        monkeypatch.setattr(hodge, "integer_inertia", counted)
        cli._built.cache_clear()
        point = "1,1/2,2,3/4,1,5/3"
        code, report = run_json(
            capsys, ["hodge", "--matroid", k23_file, "--k", str(k), "--point", point]
        )
        assert code == 0 and "hrr" in report["results"]
        flats = report["results"]["mobius_pairing"]["flats"]
        dims = report["results"]["graded_dims"]
        middle = 2 * k == len(dims) - 1
        assert shapes == ([flats, dims[k - 1]] if middle else [dims[k - 1], dims[k]])

    @pytest.mark.parametrize(
        "name, matroid",
        [
            ("empty", {"type": "bases", "ground": [], "bases": [[]]}),
            ("u03", {"type": "uniform", "k": 0, "n": 3}),
        ],
    )
    def test_degree_zero_of_rank_zero(self, capsys, tmp_path, name, matroid):
        # the one flat pairs with itself in the middle degree 0 = rank
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(matroid))
        assert main(["hodge", "--matroid", str(path), "--k", "0"]) == 0
        assert capsys.readouterr().out == golden_json(f"hodge_k0_{name}.json")

    def test_verdicts_read_off_one_inertia_pair(
        self, capsys, tmp_path, rng, monkeypatch
    ):
        # In(Q^k), HL and HRR equal what the library's checks give, on the
        # zoo in every degree at seeded points, some with f <= 0 (no HL or
        # HRR then), and each report runs `hr_inertia` once
        runs, hr_inertia = [], hodge.hr_inertia

        def counted(m, k, point):
            runs.append(k)
            return hr_inertia(m, k, point)

        monkeypatch.setattr(hodge, "hr_inertia", counted)
        path, nonpositive = tmp_path / "m.json", 0
        for name, m in sorted(matroid_zoo().items()):
            path.write_text(json.dumps(m.to_json()))
            for k, _ in itertools.product(range(m.rank // 2 + 1), range(4)):
                point = [Fraction(rng.randint(-2, 3), rng.randint(1, 3)) for _ in m.ground]
                text = ",".join(map(str, point))
                argv = ["hodge", "--matroid", str(path), "--k", str(k), "--point=" + text]
                runs.clear()
                code, report = run_json(capsys, argv)
                assert runs == [k], (name, k, point)
                assert code == (2 if report["violations"] else 0)
                results = report["results"]
                at = hodge._point(m, point)
                block = hodge.hr_inertia(m, k, at)[0]
                assert results["hr_form_inertia"] == list(block._values())
                if hodge.value(m, at) <= 0:
                    nonpositive += 1
                    assert "hl" not in results and "hrr" not in results
                    continue
                assert results["hl"] == hodge.hl_check(m, k, point), (name, k, point)
                assert results["hrr"] == hodge.hrr_check(m, k, point), (name, k, point)
        assert nonpositive


class TestKahnSaksCommand:
    def test_witness(self, capsys, witness_file):
        code, report = run_json(capsys, ["kahnsaks", "--poset", witness_file])
        assert code == 0
        assert report["results"]["N"][:3] == [1, 2, 4]
        assert report["results"]["per_k"]["2"]["ratio"] == 2

    def test_fresh_bounds_beside_bot_and_top_labels(self, capsys, tmp_path):
        # "bot" and "top" bound nothing here, so the adjoined bounds take the
        # fresh labels bot0 and top0; the sequence does not see the names
        reports = []
        for low, high in (("bot", "top"), ("b", "t")):
            path = tmp_path / f"{low}.json"
            obj = {
                "elements": ["x", "y", low, high],
                "relations": [["x", "y"], [low, high]],
                "x": "x",
                "y": "y",
            }
            path.write_text(json.dumps(obj))
            code, report = run_json(capsys, ["kahnsaks", "--poset", str(path)])
            assert code == 0
            reports.append(report["results"])
        relabelled = reports[1]["regions"]
        assert (relabelled["end_x"], relabelled["end_y"]) == (["bot"], ["top"])
        regions = reports[0]["regions"]
        assert (regions["end_x"], regions["end_y"]) == (["bot0"], ["top0"])
        assert reports[0]["N"] == reports[1]["N"]


class TestPosetMarks:
    """A mark given by flag is the element label whose string it is, so
    integer labels can be marked from the command line as from the JSON."""

    @pytest.fixture
    def marked_file(self, tmp_path):
        path = tmp_path / "marked.json"
        path.write_text(
            json.dumps(
                {"elements": [0, 1, 2, 3], "relations": [[0, 1], [2, 3]], "x": 0, "y": 3}
            )
        )
        return str(path)

    @pytest.mark.parametrize(
        "command, flags",
        [("kahnsaks", ["--x", "0", "--y", "3"]), ("poset", ["--x", "0"])],
    )
    def test_flag_marks_match_json_marks(self, capsys, marked_file, command, flags):
        assert main([command, "--poset", marked_file]) == 0
        from_json = capsys.readouterr().out
        assert main([command, "--poset", marked_file] + flags) == 0
        assert capsys.readouterr().out == from_json

    @pytest.mark.parametrize(
        "command, flags",
        [("kahnsaks", []), ("kahnsaks", ["--x", "1", "--y", "2"]), ("poset", [])],
        ids=["kahnsaks-json-marks", "kahnsaks-flag-marks", "poset"],
    )
    def test_labels_that_print_alike_are_rejected(
        self, capsys, tmp_path, command, flags
    ):
        # "1" and 1 print alike, so a flag, a report key or an echoed
        # relation could not tell them apart
        obj = {"elements": ["1", 1, 2], "relations": [["1", 2]], "x": 1, "y": 2}
        path = tmp_path / "alike.json"
        path.write_text(json.dumps(obj))
        assert main([command, "--poset", str(path)] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: poset element labels must be distinct; two print as '1'\n"
        )

    def test_a_relation_of_an_element_with_itself_is_accepted(
        self, capsys, tmp_path
    ):
        results = []
        for relations in ([[1, 1], [1, 2]], [[1, 2]]):
            path = tmp_path / f"relations{len(relations)}.json"
            path.write_text(json.dumps({"elements": [1, 2], "relations": relations}))
            code, report = run_json(capsys, ["poset", "--poset", str(path)])
            assert code == 0
            results.append(report["results"])
        assert results[0] == results[1]

    @pytest.mark.parametrize("command", ["kahnsaks", "poset"])
    def test_flag_naming_no_element(self, capsys, marked_file, command):
        assert main([command, "--poset", marked_file, "--x", "7"]) == 1
        err = capsys.readouterr().err
        assert err == "error: unknown poset element '7'\n"

    @pytest.mark.parametrize("command", ["kahnsaks", "poset"])
    def test_an_empty_flag_is_read_as_written(
        self, capsys, tmp_path, marked_file, command
    ):
        # --x "" names the element "", as the JSON mark "" does, not the
        # JSON's x; with no element "" it is an unknown element
        chain = [["", "a"], ["a", "b"]]  # "" < a < b, and c apart
        obj = {"elements": ["", "a", "b", "c"], "relations": chain, "x": "b"}
        flagged, marked = tmp_path / "flag_x.json", tmp_path / "json_x.json"
        flagged.write_text(json.dumps({**obj, "y": "c"}))
        marked.write_text(json.dumps({**obj, "x": "", "y": "c"}))
        code, report = run_json(capsys, [command, "--poset", str(flagged), "--x", ""])
        assert code == 0
        _, from_json = run_json(capsys, [command, "--poset", str(marked)])
        assert report["results"] == from_json["results"]
        assert main([command, "--poset", marked_file, "--x", ""]) == 1
        assert capsys.readouterr().err == "error: unknown poset element ''\n"


LABELS = [0, 1, 2, 3, 10, "a", "b", "7", "x1"]  # ints and strings; none print alike


def distinct_labels(size):
    labels = st.sampled_from(LABELS)
    return st.lists(labels, min_size=size, max_size=size, unique_by=str)


def either_name(draw, label):
    """label as written in a file: the label itself or its printed form."""
    return draw(st.sampled_from([label, str(label)]))


@st.composite
def named_posets(draw):
    """A marked poset JSON whose references are labels, and the same poset
    with each relation endpoint and mark written as label or printed form."""
    labels = draw(distinct_labels(draw(st.integers(min_value=2, max_value=5))))
    pairs = list(combinations(range(len(labels)), 2))  # i < j: no cycle
    relations = draw(st.lists(st.sampled_from(pairs), max_size=4))
    marks = draw(st.sampled_from(pairs))  # y is not below x
    plain, mixed = {"elements": labels}, {"elements": labels}
    plain["relations"] = [[labels[i] for i in r] for r in relations]
    mixed["relations"] = [[either_name(draw, labels[i]) for i in r] for r in relations]
    plain["x"], plain["y"] = (labels[i] for i in marks)
    mixed["x"], mixed["y"] = (either_name(draw, labels[i]) for i in marks)
    return plain, mixed


@st.composite
def named_matroids(draw):
    """A `bases` matroid JSON whose basis entries are labels, the same with
    each entry written as label or printed form, and a --R for it."""
    m = draw(small_matroids())
    labels = draw(distinct_labels(m.n))
    bases = [[labels[i] for i in range(m.n) if b >> i & 1] for b in m.bases]
    plain = {"ground": labels, "bases": bases}
    written = [[either_name(draw, e) for e in b] for b in bases]
    mixed = {"ground": labels, "bases": written}
    r_side = draw(st.lists(st.sampled_from(labels), unique=True)) if labels else []
    return plain, mixed, ",".join(map(str, r_side))


class TestOneNamingRule:
    """A basis entry, a relation endpoint, a mark or a flag names an element
    by its printed label: written as the label or as its printed form, every
    reference reads to the same instance and the same report."""

    @staticmethod
    def run(obj, command, flag, extra=()):
        """The exit code and stdout of command on obj, given by flag."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(obj))
            with redirect_stdout(io.StringIO()) as out:
                code = main([command, flag, str(path), *extra])
        return code, out.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(named_posets())
    @example(  # a relation and a mark that name the int 1 as "1"
        (
            {"elements": [1, 2, 3], "relations": [[1, 2]], "x": 1, "y": 2},
            {"elements": [1, 2, 3], "relations": [["1", 2]], "x": "1", "y": 2},
        )
    )
    def test_poset_references(self, posets):
        kahnsaks = [self.run(obj, "kahnsaks", "--poset") for obj in posets]
        assert kahnsaks[0][0] == 0 and kahnsaks[1] == kahnsaks[0]
        # poset echoes its file as written, so only the results must agree
        unmarked = [{k: obj[k] for k in ("elements", "relations")} for obj in posets]
        x_flag = ["--x", str(posets[0]["x"])]
        for variant, extra in ((posets, ()), (unmarked, ()), (unmarked, x_flag)):
            runs = [self.run(obj, "poset", "--poset", extra) for obj in variant]
            assert [code for code, _ in runs] == [0, 0]
            results = [json.loads(out)["results"] for _, out in runs]
            assert results[1] == results[0]

    @settings(max_examples=40, deadline=None)
    @given(named_matroids())
    @example(  # a basis entry that names the int 1 as "1"
        (
            {"ground": [1, 2, 3], "bases": [[1, 2]]},
            {"ground": [1, 2, 3], "bases": [["1", 2]]},
            "1,3",
        )
    )
    def test_matroid_references(self, matroids):
        plain, mixed, r_side = matroids
        for command, extra in (("matroid", ()), ("stanley", ("--R", r_side))):
            runs = [self.run(obj, command, "--matroid", extra) for obj in (plain, mixed)]
            assert runs[1] == runs[0]
            assert command == "stanley" or runs[0][0] == 0


class TestPosetCommand:
    def test_cap_fails_fast_and_names_flag(self, capsys, tmp_path, monkeypatch):
        # 11! extensions exceed the default cap of 10!; the prefix count of
        # the ideal lattice passes it at size 8, before any extension exists
        path = tmp_path / "antichain11.json"
        path.write_text(json.dumps(Poset.from_relations(range(11), []).to_json()))

        def listed(*args, **kwargs):
            raise AssertionError("linear extensions were listed")

        monkeypatch.setattr(Poset, "extensions", listed)
        assert main(["poset", "--poset", str(path)]) == 1
        err = capsys.readouterr().err
        assert "TooLarge" in err and "cap 3628800" in err
        assert "--cap-extensions" in err


class TestStanleyCommand:
    def test_report(self, capsys, k23_file):
        code, report = run_json(
            capsys, ["stanley", "--matroid", k23_file, "--R", "0,1,2"]
        )
        assert code == 0
        assert report["results"]["ultra_log_concave"] is True
        assert all(
            v == "0" for v in report["results"]["cross_check_deltas"].values()
        )

    def test_ratio_step_verified(self, capsys, tmp_path):
        # U(2, 3) with one R-clone and two Q-clones of each element: every
        # parallel class splits 1 : 2, so the normalized sequence steps by
        # one constant ratio
        m, r_side = parallel_replicate(Matroid.uniform(2, 3), 1, 2)
        path = tmp_path / "replicated.json"
        path.write_text(json.dumps(m.to_json()))
        argv = ["stanley", "--matroid", str(path), "--R", ",".join(sorted(r_side))]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["results"]["ratio_condition"]["holds"] is True
        assert report["results"]["ratio_step_verified"] is True
        assert report["violations"] == []
        # the fixed op `stanley --matroid zoo.tripled_u23() --R 0#0,1#0,2#0`
        # of scripts/report_digests.py: N_k steps down by the ratio 1/2
        assert m == tripled_u23() and argv[-1] == "0#0,1#0,2#0"
        assert report["results"] == {
            "N": [12, 12, 3],
            "cross_check_deltas": {"0": "0", "1": "0", "2": "0"},
            "equality_indices": [1],
            "normalized": ["12", "6", "3"],
            "ratio_condition": {"holds": True, "ratio": "1/2"},
            "ratio_step_verified": True,
            "ultra_log_concave": True,
        }

    @pytest.mark.parametrize(
        "graph, split, rank",
        [
            # a triangle and a separate edge: rank 5 - 2 components = 3
            ({"vertices": 5, "edges": [[0, 1], [1, 2], [0, 2], [3, 4]]}, "0,3", 3),
            # an isolated vertex 3 beside a triangle with a doubled edge
            ({"vertices": 4, "edges": [[0, 1], [0, 1], [1, 2], [0, 2]]}, "1,2", 2),
            # no edges: one basis, the empty set, and rank 0
            ({"vertices": 2, "edges": []}, "", 0),
        ],
    )
    def test_graph_with_components(self, capsys, tmp_path, graph, split, rank):
        # the volume route drops one vertex row per component, so its
        # vectors live in dimension rank
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        code, report = run_json(capsys, ["stanley", "--graph", str(path), "--R", split])
        assert code == 0
        deltas = report["results"]["cross_check_deltas"]
        assert len(deltas) == rank + 1 and set(deltas.values()) == {"0"}

    def test_graph_must_match_the_matroid(self, capsys, tmp_path, k23_file):
        # K(2,3) has 6 edges and rank 4; a triangle has 3 edges and rank 2,
        # and K4 has 6 edges but rank 3
        for graph in (k3_graph(), k4_graph()):
            path = tmp_path / "graph.json"
            path.write_text(json.dumps(graph.to_json()))
            argv = ["stanley", "--matroid", k23_file, "--graph", str(path), "--R", "0"]
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err == (
                "error: --graph needs the matroid's 6 edges and bases, "
                "edge j as element j\n"
            )

    def test_graph_must_have_the_matroids_bases(self, capsys, tmp_path):
        # a triangle has three edges and rank 2, as this matroid has, but its
        # bases are every pair; the sizes alone let the routes disagree (exit 2)
        m_path, g_path = tmp_path / "m.json", tmp_path / "g.json"
        m_path.write_text(json.dumps({"ground": [0, 1, 2], "bases": [[0, 1], [0, 2]]}))
        g_path.write_text(json.dumps(k3_graph().to_json()))
        argv = ["stanley", "--matroid", str(m_path), "--graph", str(g_path), "--R", "0"]
        assert main(argv) == 1
        assert "needs the matroid's 3 edges and bases" in capsys.readouterr().err


class TestLorentzianCommand:
    def poly_file(self, tmp_path):
        # x0^2 + x0 x1 + x1^2: M-convex support, Hessian [[2, 1], [1, 2]]
        path = tmp_path / "poly.json"
        path.write_text(
            json.dumps(MPoly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1}).to_json())
        )
        return str(path)

    def test_poly_fails_hessian_without_violation(self, capsys, tmp_path):
        code, report = run_json(
            capsys, ["lorentzian", "--poly", self.poly_file(tmp_path)]
        )
        assert code == 0  # a poly source has no violations
        assert report["results"] == {
            "passed": False,
            "homogeneous": True,
            "m_convex_support": True,
            "hessian_failures": 1,
            "coefficient_log_concavity": False,
        }
        assert report["violations"] == []

    def test_non_homogeneous_poly(self, capsys, tmp_path):
        # x0^2 + x1: no Lorentzian certificate, and no coefficient test
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(MPoly(2, {(2, 0): 1, (0, 1): 1}).to_json()))
        code, report = run_json(capsys, ["lorentzian", "--poly", str(path)])
        assert code == 0
        results = report["results"]
        assert results["passed"] is False and results["homogeneous"] is False
        assert results["coefficient_log_concavity"] is None
        assert report["violations"] == []

    def test_like_terms_add_up(self, capsys, tmp_path):
        # x^2 + y^2 + xy + xy, the xy terms written apart, is (x + y)^2,
        # which passes, as x^2 + 2xy + y^2 does
        x2, xy, y2 = ({"exp": e, "num": 1, "den": 1} for e in ([2, 0], [1, 1], [0, 2]))
        apart = {"nvars": 2, "terms": [x2, xy, y2, xy]}
        summed = MPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}).to_json()
        reports = []
        for name, obj in (("apart", apart), ("summed", summed)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(obj))
            code, report = run_json(capsys, ["lorentzian", "--poly", str(path)])
            assert code == 0 and report["results"]["passed"] is True
            reports.append(report)
        assert reports[0] == reports[1]
        # the echo is the polynomial that was read: read again, it gives
        # the same bytes
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(reports[0]["inputs"]["poly"]))
        assert main(["lorentzian", "--poly", str(tmp_path / "apart.json")]) == 0
        first = capsys.readouterr().out
        assert main(["lorentzian", "--poly", str(echo)]) == 0
        assert capsys.readouterr().out == first

    def test_zoo_matroid_passes(self, capsys, k23_file):
        code, report = run_json(capsys, ["lorentzian", "--matroid", k23_file])
        assert code == 0
        assert report["results"]["passed"] is True
        assert report["results"]["hessian_failures"] == 0

    def test_bases_input_capped_before_validation(self, capsys, tmp_path, monkeypatch):
        # U(3, 20) given as bases: the ground size alone is over the cap
        path = tmp_path / "u3_20.json"
        path.write_text(
            json.dumps(
                {
                    "ground": list(range(20)),
                    "bases": [list(b) for b in combinations(range(20), 3)],
                }
            )
        )

        def validated(*args, **kwargs):
            raise AssertionError("the basis list was validated")

        monkeypatch.setattr(matroids, "_is_basis_family", validated)
        monkeypatch.setattr(matroids, "_exchange_failure", validated)
        assert main(["lorentzian", "--matroid", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: TooLarge: ") and err.count("\n") == 1
        assert "20 elements, over the --cap-elements limit 16" in err

    @pytest.mark.parametrize(
        "flag, obj",
        [
            ("--graph", {"vertices": 2, "edges": [[0, 1]] * 17}),
            (
                "--matroid",
                {"type": "graphic", "graph": {"vertices": 2, "edges": [[0, 1]] * 17}},
            ),
            ("--matroid", {"type": "uniform", "k": 2, "n": 17}),
            (
                "--matroid",
                {"type": "linear", "matrix": {"rows": 1, "cols": 17, "entries": [1] * 17}},
            ),
        ],
        ids=["graph", "graphic", "uniform", "linear"],
    )
    def test_every_input_type_capped_before_construction(
        self, capsys, tmp_path, monkeypatch, flag, obj
    ):
        # 17 elements over the flag's limit of 3: the constructor names the
        # flag, and checks it before any exponential step: the subset scans,
        # the rank test and basis validation, or the forest growth, which
        # walks the graph's edges
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))

        def ran(*args, **kwargs):
            raise AssertionError("an exponential step ran before the cap check")

        class Unwalked(tuple):
            __iter__ = ran

        def unwalked(obj, read=Graph.from_json):
            graph = read(obj)
            object.__setattr__(graph, "edges", Unwalked(graph.edges))
            return graph

        steps = "_subsets", "rank_of_matrix", "_is_basis_family", "_exchange_failure"
        for name in steps:
            monkeypatch.setattr(matroids, name, ran)
        monkeypatch.setattr(Graph, "from_json", staticmethod(unwalked))
        assert main(["matroid", flag, str(path), "--cap-elements", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: TooLarge: ") and err.count("\n") == 1
        assert "17 elements, over the --cap-elements limit 3" in err

    @pytest.mark.parametrize(
        "flag, obj",
        [
            ("--graph", {"vertices": 2, "edges": [[0, 1]] * 17}),
            ("--matroid", {"type": "uniform", "k": 1, "n": 17}),
            (
                "--matroid",
                {"type": "linear", "matrix": {"rows": 1, "cols": 17, "entries": [1] * 17}},
            ),
            (
                "--matroid",
                {"ground": list(range(17)), "bases": [[e] for e in range(17)]},
            ),
        ],
        ids=["graph", "uniform", "linear", "bases"],
    )
    def test_the_flag_raises_the_cap(self, capsys, tmp_path, flag, obj):
        # U(1, 17) four ways: over the default cap of 16, admitted at 17
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        assert main(["matroid", flag, str(path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: TooLarge: matroid has 17 elements, "
            "over the --cap-elements limit 16\n"
        )
        argv = ["matroid", flag, str(path), "--cap-elements", "17"]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert (report["results"]["rank"], report["results"]["bases"]) == (1, 17)

    def test_graph_over_256_vertices(self, capsys, tmp_path):
        # each vertex gets its own component label: 257 loops on 257
        # vertices need 257 labels, and no loop enters a forest
        path = tmp_path / "loops.json"
        loops = {"vertices": 257, "edges": [[v, v] for v in range(257)]}
        path.write_text(json.dumps(loops))
        argv = ["matroid", "--graph", str(path), "--cap-elements", "257"]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert (report["results"]["rank"], report["results"]["bases"]) == (0, 1)

    def test_deterministic_bytes(self, capsys, tmp_path):
        argv = ["lorentzian", "--poly", self.poly_file(tmp_path)]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first


class TestErrors:
    @pytest.mark.parametrize("flag", ["--cap-elements", "--cap-extensions"])
    def test_a_negative_cap_is_an_input_error(self, capsys, k23_file, witness_file, flag):
        # a cap below 0 is not a limit a larger input could pass
        argv = ["matroid", "--matroid", k23_file]
        if flag == "--cap-extensions":
            argv = ["kahnsaks", "--poset", witness_file]
        assert main(argv + [flag, "-1"]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be 0 or more\n"

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(["matroid", "--matroid", str(bad)])
        assert code == 1
        assert "JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, payload, named",
        [
            ("matroid", "--matroid", {"type": "uniform", "n": 7, "r": 3}, "'k'"),
            ("matroid", "--matroid", {"type": "graphic"}, "'graph'"),
            ("matroid", "--matroid", {"type": "bases", "ground": [1]}, "'bases'"),
            ("matroid", "--matroid", {"type": "linear"}, "'matrix'"),
            ("matroid", "--graph", {"vertices": 3}, "'edges'"),
            ("poset", "--poset", {"relations": []}, "'elements'"),
            ("lorentzian", "--poly", {"nvars": 2}, "'terms'"),
            ("discriminant", "--tuple", {"mat": []}, "'mats'"),
            ("matroid", "--matroid", [1, 2], "JSON object"),
            ("poset", "--poset", ["a", "b"], "JSON object"),
            ("matroid", "--matroid", {"type": "uniform", "k": "3", "n": 7}, "'k'"),
            ("matroid", "--graph", {"vertices": 2, "edges": [[0]]}, "[0]"),
            ("matroid", "--matroid", {"ground": [1], "bases": 5}, "'bases'"),
            ("discriminant", "--tuple", {"mats": 5}, "'mats'"),
            ("discriminant", "--tuple", {"mats": []}, "'mats'"),
            ("discriminant", "--tuple", {"mats": [{"matrix": I2, "mult": "2"}]}, "'mult'"),
            ("discriminant", "--tuple", {"mats": [{"matrix": I2, "mult": -1}]}, "'mult'"),
            ("discriminant", "--tuple", {"mats": [{"matrix": I2, "mult": 0}]}, "'mult'"),
            ("poset", "--poset", {"elements": 5, "relations": []}, "'elements'"),
            ("poset", "--poset", {"elements": ["a", ["b"]]}, "'elements'"),
            ("poset", "--poset", {"elements": ["a"], "relations": [["a"]]}, "pair"),
            ("poset", "--poset", {"elements": ["a"], "relations": 5}, "'relations'"),
            ("kahnsaks", "--poset", {"elements": ["a", "b"], "x": ["a"], "y": "b"}, "'x'"),
            ("lorentzian", "--poly", {"nvars": 2, "terms": 5}, "'terms'"),
            ("lorentzian", "--poly", {"nvars": 1, "terms": [5]}, "term"),
            ("lorentzian", "--poly", poly({"exp": ["a"], "num": "1", "den": "1"}), "exponent"),
            ("lorentzian", "--poly", poly({"exp": [1], "num": "x", "den": "1"}), "'num'"),
            ("lorentzian", "--poly", poly({"exp": [1], "num": "1", "den": "0"}), "'den'"),
            ("lorentzian", "--poly", {"nvars": "1", "terms": []}, "'nvars'"),
            ("lorentzian", "--poly", {"nvars": -1, "terms": []}, "got -1"),
        ],
    )
    def test_malformed_input_is_an_input_error(
        self, capsys, tmp_path, command, flag, payload, named
    ):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert main([command, flag, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    def test_missing_file(self, capsys):
        assert main(["matroid", "--matroid", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize(
        "command, given, second",
        [
            ("matroid", "--matroid", "--graph"),
            ("hodge", "--matroid", "--graph"),
            ("probe", "--matroid", "--graph"),
            ("lorentzian", "--matroid", "--graph"),
            ("lorentzian", "--poly", "--matroid"),
            ("lorentzian", "--poly", "--graph"),
        ],
    )
    def test_two_input_sources_are_an_input_error(
        self, capsys, tmp_path, k23_file, command, given, second
    ):
        # the second source names a missing file: it would be dropped unread
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"nvars": 1, "terms": []}))
        source = str(poly) if given == "--poly" else k23_file
        argv = [command, given, source, second, str(tmp_path / "missing.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: give {given} or {second}, not both\n"

    @pytest.mark.parametrize("kind", ["directory", "utf-16"])
    def test_unreadable_file_is_an_input_error(self, capsys, tmp_path, kind):
        path = tmp_path / "m.json"
        if kind == "directory":
            path.mkdir()
        else:  # a byte-order mark and UTF-16 text: not UTF-8
            path.write_bytes(b"\xff\xfe" + '{"type": "uniform"}'.encode("utf-16-le"))
        assert main(["matroid", "--matroid", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: matroid file cannot be read: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, flag, what, text",
        [
            ("poset", "--poset", "poset", '{"elements": %s, "relations": []}'),
            ("kahnsaks", "--poset", "poset", '{"elements": %s, "x": 0, "y": 1}'),
            ("matroid", "--matroid", "matroid", '{"ground": [0], "bases": %s}'),
            ("matroid", "--graph", "graph", '{"vertices": 2, "edges": %s}'),
            ("discriminant", "--tuple", "matrix tuple", '{"mats": %s}'),
            ("lorentzian", "--poly", "polynomial", '{"nvars": 1, "terms": %s}'),
        ],
    )
    def test_deeply_nested_json_is_an_input_error(
        self, capsys, tmp_path, command, flag, what, text
    ):
        # nested past the recursion limit, the decoder raised RecursionError
        path = tmp_path / "input.json"
        path.write_text(text % ("[" * 100_000 + "]" * 100_000))
        assert main([command, flag, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {what} file nests its JSON too deeply to read\n"

    def test_unwritable_report_is_an_input_error(self, capsys, tmp_path, k23_file):
        out = tmp_path / "missing" / "report.json"
        assert main(["matroid", "--matroid", k23_file, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the report: ")
        assert err.count("\n") == 1 and not out.parent.exists()

    def test_unknown_element_in_flag(self, capsys, k23_file):
        assert main(["stanley", "--matroid", k23_file, "--R", "99"]) == 1

    @pytest.mark.parametrize("command, flag", [("stanley", "--R"), ("probe", "--e")])
    def test_repeated_element_in_flag(self, capsys, tmp_path, command, flag):
        # a repeated --R column would enter the R zonotope twice and make
        # the two basis counting routes disagree; --e would probe it twice
        edges = [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [0, 1]]
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": 4, "edges": edges}))
        assert main([command, "--graph", str(path), flag, "0,0"]) == 1
        assert capsys.readouterr().err == "error: element '0' is given twice\n"

    @pytest.mark.parametrize(
        "command, flag, part, key",
        [("stanley", "--R", "inputs", "R"), ("probe", "--e", "results", "elements_probed")],
    )
    def test_a_list_that_starts_with_a_minus_needs_the_equals_form(
        self, capsys, tmp_path, command, flag, part, key
    ):
        # argparse reads "-1,0" after a space as an option, not a value
        ground = [-1, 0, 1, 2]
        bases = [list(b) for b in combinations(ground, 2)]
        path = tmp_path / "u24.json"
        path.write_text(json.dumps({"type": "bases", "ground": ground, "bases": bases}))
        argv = [command, "--matroid", str(path)]
        assert main(argv + [flag, "-1,0"]) == 1
        assert "expected one argument" in capsys.readouterr().err
        code, report = run_json(capsys, argv + [f"{flag}=-1,0"])
        assert code == 0 and report[part][key] == ["-1", "0"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["selftest", "--bogus"],
            ["hodge", "--k", "x"],
            # a cap flag exists only where it bounds something
            ["discriminant", "--tuple", "t.json", "--cap-extensions", "5"],
            ["selftest", "--cap-elements", "5"],
            ["hodge", "--matroid", "m.json", "--cap-extensions", "5"],
            ["kahnsaks", "--poset", "p.json", "--cap-elements", "5"],
        ],
    )
    def test_usage_error_exits_one(self, capsys, argv):
        # 2 is reserved for theorem-level failures
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        assert main(argv) == 0


GOLDEN_INPUTS = {
    # a loop at vertex 2 and a parallel pair 0-1: the volume route is skipped
    "multigraph": {"vertices": 3, "edges": [[0, 1], [0, 1], [1, 2], [2, 0], [2, 2]]},
    # x0 (x1^2 + x2^2 + x1 x2 / 2): d/dx0 has a positive definite Hessian on
    # x1, x2, and no x0; d/dx1 and d/dx2 pass
    "poly": {
        "nvars": 3,
        "terms": [
            {"exp": [1, 2, 0], "num": "1", "den": "1"},
            {"exp": [1, 0, 2], "num": "1", "den": "1"},
            {"exp": [1, 1, 1], "num": "1", "den": "2"},
        ],
    },
    "k4": {"type": "graphic", "graph": k4_graph().to_json()},
}


class TestGoldenReports:
    """Byte-exact reports of the polynomial certificates: the substitution
    behind `stanley`, the Hessians behind `lorentzian` and the Gram route
    behind `selftest`."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("stanley_multigraph", ["stanley", "--graph", "multigraph", "--R", "0,2"]),
            ("lorentzian_poly_one_failure", ["lorentzian", "--poly", "poly"]),
            ("lorentzian_k4", ["lorentzian", "--matroid", "k4"]),
            ("selftest", ["selftest"]),
        ],
    )
    def test_report_bytes(self, capsys, tmp_path, name, argv):
        for key, payload in GOLDEN_INPUTS.items():
            (tmp_path / f"{key}.json").write_text(json.dumps(payload))
        argv = [str(tmp_path / f"{a}.json") if a in GOLDEN_INPUTS else a for a in argv]
        assert main(argv) == 0
        assert capsys.readouterr().out == golden_json(f"{name}.json")


class TestReportContract:
    def test_deterministic_output(self, capsys, k23_file):
        _, first = run_json(capsys, ["hodge", "--matroid", k23_file, "--k", "2"])
        _, second = run_json(capsys, ["hodge", "--matroid", k23_file, "--k", "2"])
        assert first == second

    def test_violation_exit_code(self, capsys):
        report = RunReport("demo", {}, {}, violations=["boom"])

        class Args:
            format = "json"
            out = None

        assert _emit(report, Args()) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == ["boom"]

    def test_out_file_and_csv(self, tmp_path, k23_file, capsys):
        out = tmp_path / "r.csv"
        code = main(
            [
                "matroid",
                "--matroid",
                k23_file,
                "--out",
                str(out),
                "--format",
                "csv",
            ]
        )
        assert code == 0
        assert out.read_text() == golden_csv("matroid_k23.csv")

    def test_kahnsaks_csv(self, witness_file, capsys):
        code = main(["kahnsaks", "--poset", witness_file, "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out == golden_csv("kahnsaks_witness.csv")

    def test_csv_ignores_key_insertion_order(self):
        # "a" → [5] and "a.0" keep apart, the dot inside a key escaped, in
        # the order of the sorted keys whatever order the input had
        rows = [
            emitted(RunReport("demo", {}, results), "csv")
            for results in ({"a": [5], "a.0": 7}, {"a.0": 7, "a": [5]})
        ]
        assert rows[0] == rows[1]
        assert "results.a.0,5\nresults.a\\.0,7\n" in rows[0]

    def test_csv_quotes_fields_and_escapes_keys(self, tmp_path, capsys):
        # a label with a comma is one quoted field, a string value is its
        # JSON text, quoted, and "\\" and "." in a key are escaped
        path = tmp_path / "poset.json"
        path.write_text(json.dumps({"elements": ["a,b", "c"], "relations": []}))
        assert main(["poset", "--poset", str(path), "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert all(len(row) == 2 for row in rows)
        assert ["results.position_counts.a,b.0", "1"] in rows
        assert ["inputs.poset.elements.0", '"a,b"'] in rows
        text = emitted(RunReport("demo", {}, {"x\\": 1, "y.z": "w"}), "csv")
        assert 'results.x\\\\,1\nresults.y\\.z,"""w"""\n' in text

    @pytest.mark.parametrize(
        "argv",
        [
            ["selftest", "--out", "r.json"],
            ["poset", "--poset", "witness.json", "--x", "x"],
        ],
    )
    def test_files_are_utf8_whatever_the_locale(self, tmp_path, witness_file, argv):
        # input and report files name their encoding, so no default is read;
        # witness_file is tmp_path / "witness.json"
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding"]
            + ["-W", "error::EncodingWarning", "-m", "logcavity.cli", *argv],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_probe_findings(self, capsys, tmp_path):
        from logcavity.zoo import k4_graph

        path = tmp_path / "k4.json"
        path.write_text(
            json.dumps({"type": "graphic", "graph": k4_graph().to_json()})
        )
        code, report = run_json(
            capsys, ["probe", "--matroid", str(path), "--e", "0"]
        )
        assert code == 0  # findings are not violations
        assert report["findings"]
        assert report["findings"][0]["kind"] == (
            "annihilator-containment-counterexample"
        )

    def test_an_empty_element_list_probes_nothing(self, capsys, k23_file):
        # as --e naming only coloops, or stanley --R "" taking R empty
        argv = ["probe", "--matroid", k23_file, "--e", ""]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["results"]["elements_probed"] == []
        assert report["findings"] == []


class Pair(Record):
    # fields out of name order, as a report's records may declare them
    _fields = ("right", "left")


class Box(Record):
    _fields = ("items", "label")


STRINGS = st.text() | st.text(st.characters(categories=["Cc", "Cs"]), max_size=4)
SCALARS = (
    STRINGS
    | st.integers()
    | st.integers(2**64, 2**300)
    | st.integers(-(2**300), -(2**64))
    | st.booleans()
    | st.none()
    | st.fractions()
    | st.floats()  # no case of the encoder's own: json.dumps writes it
)
HASHABLES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3).map(tuple)
    | st.frozensets(inner, max_size=3)
    | st.builds(Pair, inner, inner),
    max_leaves=6,
)
KEYS = (
    STRINGS
    | st.integers(-3, 3)
    | st.sampled_from(["1", "-1", "True", "None", "1/2"])
    | st.booleans()
    | st.none()
    | st.fractions(max_denominator=3)
)


def containers(inner):
    return (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=4)
        | st.tuples(inner, inner).map(lambda ab: {1: ab[0], "1": ab[1]})
        | st.sets(HASHABLES, max_size=4)
        | st.frozensets(HASHABLES, max_size=4)
        | st.builds(Box, inner, STRINGS)
        | st.builds(Pair, inner, inner)
        | st.sampled_from([[], {}, (), set(), frozenset(), Box([], "")])
    )


VALUES = st.recursive(SCALARS | HASHABLES, containers, max_leaves=20)


def emitted(report, fmt):
    """The report text `cli._emit` writes in the format fmt."""

    class Args:
        format = fmt
        out = None

    with redirect_stdout(io.StringIO()) as out:
        _emit(report, Args())
    return out.getvalue()


def path_segments(key):
    """The keys and indices of a CSV path: split at each "." that no "\\"
    escapes, each escape undone."""
    segments, current, chars = [], [], iter(key)
    for c in chars:
        if c == ".":
            segments.append("".join(current))
            current = []
        else:
            current.append(next(chars) if c == "\\" else c)
    return segments + ["".join(current)]


def count_leaves(tree):
    if isinstance(tree, (dict, list)):
        values = tree.values() if isinstance(tree, dict) else tree
        return sum(map(count_leaves, values))
    return 1


class TestReportEncoder:
    """`cli._text` and `cli._emit` against the old route of `report_oracle`."""

    @settings(max_examples=300, deadline=None)
    @given(VALUES)
    def test_text_matches_old_route(self, value):
        assert _text(value) == oracle.text(value)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(KEYS, VALUES, max_size=3), VALUES, st.lists(VALUES))
    def test_report_matches_old_route(self, inputs, results, findings):
        report = RunReport(
            "demo", {"file": _InputObject("demo", inputs)}, results, findings
        )
        assert emitted(report, "json") == oracle.report_bytes(report)

    @settings(max_examples=100, deadline=None)
    @given(VALUES)
    @example({"\r": None})  # quoted only if the line terminator holds "\r"
    @example({"a\r\nb": ["\n"], "\n": 1})
    def test_csv_round_trips_to_the_json_leaves(self, results):
        # csv.reader reads two fields per row and one row per leaf of the
        # JSON report, keyed by the leaf's escaped path, valued by its text
        report = RunReport("demo", {}, {"r": results})
        tree = json.loads(emitted(report, "json"))
        rows = list(csv.reader(io.StringIO(emitted(report, "csv"))))
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        keys = [key for key, _ in rows[1:]]
        assert keys == sorted(set(keys))
        assert len(keys) == count_leaves(tree)
        for key, value in rows[1:]:
            leaf = tree
            for segment in path_segments(key):
                leaf = leaf[int(segment) if isinstance(leaf, list) else segment]
            assert value == json.dumps(leaf)


class TestParserReuse:
    """`main` builds its parser once per process; no call may leak into the
    next one."""

    @pytest.fixture
    def poset_file(self, tmp_path):
        path = tmp_path / "poset.json"
        path.write_text(
            json.dumps({"elements": ["a", "b", "c"], "relations": [["a", "b"]]})
        )
        return str(path)

    @pytest.mark.parametrize(
        "before, code",
        [
            (["poset", "--poset", "POSET", "--x", "a"], 0),
            (["poset", "--poset", "POSET", "--bogus"], 1),
            (["--help"], 0),
        ],
        ids=["other-flags", "usage-error", "help"],
    )
    def test_later_report_matches_first_call(
        self, capsys, poset_file, before, code
    ):
        argv = ["poset", "--poset", poset_file]
        cli._parser.cache_clear()
        assert main(argv) == 0
        first = capsys.readouterr().out
        cli._parser.cache_clear()
        assert main([poset_file if a == "POSET" else a for a in before]) == code
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestOneParse:
    """A command's flags are parsed by its subparser alone, in one pass,
    into the namespace the whole parser gives; the whole parser keeps
    --help, --version and names that are no command."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["hodge", "--matroid", "m.json", "--po", "1,2,3", "--k=2"],
            ["hodge", "--graph=g.json", "--point=-1,0,1/2", "--format", "csv"],
            ["probe", "--matroid", "a.json", "--matroid", "b.json", "--e", "1"],
            ["stanley", "--graph", "g.json", "--R", "0,1", "--report", "r.json"],
            ["stanley", "--matroid", "m.json", "--R=", "--out", "o", "--rep", "r"],
            ["kahnsaks", "--poset", "p.json", "--x", "a", "--y=b", "--cap-ext", "9"],
            ["poset", "--poset", "p.json"],
            ["lorentzian", "--poly", "p.json", "--cap-elements", "3"],
            ["discriminant", "--tuple", "t.json", "--format=json"],
            ["matroid", "--matroid", "m.json", "--cap-elements", "0"],
            ["selftest"],
        ],
    )
    def test_args_are_the_whole_parsers(self, monkeypatch, argv):
        seen = []

        def command(args):
            seen.append(vars(args))
            return RunReport(argv[0], {}, {})

        monkeypatch.setattr(cli, f"cmd_{argv[0]}", command)
        monkeypatch.setattr(cli, "_emit", lambda report, args: 0)
        passes = mock.patch.object(
            cli.argparse.ArgumentParser,
            "parse_known_args",
            autospec=True,
            side_effect=cli.argparse.ArgumentParser.parse_known_args,
        )
        with passes as parsed:
            assert main(argv) == 0
        assert parsed.call_count == 1
        assert seen == [vars(cli.build_parser().parse_args(argv))]


class TestLinearInput:
    def argv(self, tmp_path, matrix, ground=None):
        obj = {"type": "linear", "matrix": matrix}
        if ground is not None:
            obj["ground"] = ground
        path = tmp_path / "linear.json"
        path.write_text(json.dumps(obj))
        return ["matroid", "--matroid", str(path)]

    @pytest.mark.parametrize("ground", [None, ["a", "b", "c"]])
    def test_zero_rows_keep_their_columns(self, capsys, tmp_path, ground):
        # a 0x3 matrix has three zero columns, as the 1x3 zero matrix has:
        # three loops and rank 0
        empty = {"rows": 0, "cols": 3, "entries": []}
        zero = {"rows": 1, "cols": 3, "entries": ["0", "0", "0"]}
        code, report = run_json(capsys, self.argv(tmp_path, empty, ground))
        assert code == 0
        results = report["results"]
        assert results["ground"] == results["loops"] == (ground or [0, 1, 2])
        assert results["rank"] == 0
        assert report == run_json(capsys, self.argv(tmp_path, zero, ground))[1]

    def test_negative_sizes_are_an_input_error(self, capsys, tmp_path):
        matrix = {"rows": -2, "cols": -3, "entries": ["1"] * 6}
        assert main(self.argv(tmp_path, matrix)) == 1
        err = capsys.readouterr().err
        assert err == "error: a matrix needs sizes of at least 0, got -2x-3\n"


class TestExitCodes:
    """Across the matroid-reading commands and `discriminant`: a run exits 2
    only when its written report lists violations, and every input error
    exits 1 with one `error:` line and no report. That line names no error
    class, except `TooLarge` on a cap failure, and only there."""

    def run(self, capsys, tmp_path, argv, capped=False):
        out = tmp_path / "report.json"
        out.unlink(missing_ok=True)
        code = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert not out.exists()
            if capped:
                assert err.startswith("error: TooLarge: "), (argv, err)
            else:
                assert not re.match(r"error: [A-Z]\w*: ", err), (argv, err)
        else:
            report = json.loads(out.read_text())
            assert code == (2 if report["violations"] else 0), argv
        return code

    def write(self, tmp_path, name, obj):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_seeded_zoo(self, capsys, tmp_path, rng):
        for name, m in matroid_zoo().items():
            path = self.write(tmp_path, name, m.to_json())
            point = ",".join(
                str(Fraction(rng.randint(0, 4), rng.randint(1, 3))) for _ in m.ground
            )
            split = ",".join(str(e) for e in m.ground if rng.random() < 0.5)
            for argv in (
                ["hodge", "--k", "1"],
                ["hodge", "--k", str(m.rank // 2), "--point", point],
                ["hodge", "--k", str(m.rank)],
                ["probe"],
                ["matroid"],
                ["lorentzian"],
                ["stanley", "--R", split or str(m.ground[0])],
            ):
                code = self.run(capsys, tmp_path, argv + ["--matroid", path])
                # no degree k with 2k > rank: an input error
                past = argv[0] == "hodge" and 2 * int(argv[2]) > m.rank
                assert (code == 1) == past, (name, argv)
        for n in (2, 3):
            mats = [random_positive_definite(rng, n), random_psd_with_factor(rng, n)[0]]
            mats.append(add(mats[0], scale(mats[1], -2)))  # often indefinite
            entries = [{"matrix": a.to_json()} for a in mats]
            path = self.write(tmp_path, f"tuple{n}", {"mats": entries[:n]})
            assert self.run(capsys, tmp_path, ["discriminant", "--tuple", path]) != 1

    def test_malformed_inputs(self, capsys, tmp_path):
        k23 = self.write(
            tmp_path, "k23", {"type": "graphic", "graph": k23_graph().to_json()}
        )
        no_k = self.write(tmp_path, "no_k", {"type": "uniform", "n": 4})
        bad_bases = self.write(tmp_path, "bad_bases", {"ground": [1, 2], "bases": 5})
        bad_edge = self.write(
            tmp_path, "bad_edge", {"vertices": 2, "edges": [[0, 1, 2]]}
        )
        ragged = {"rows": 2, "cols": 2, "entries": ["1", "0", "1"]}
        bad_tuple = self.write(tmp_path, "bad_tuple", {"mats": [{"matrix": ragged}]})
        cases = [
            ["hodge", "--matroid", k23, "--k", "-1"],
            ["hodge", "--matroid", k23, "--k", "-2", "--point", "1,1,1,1,1,1"],
            ["hodge", "--matroid", k23, "--point", "1/0,1,1,1,1,1"],
            ["hodge", "--matroid", k23, "--point", "1,1"],
            ["hodge", "--matroid", k23, "--point", "x,1,1,1,1,1"],
            ["stanley", "--matroid", k23, "--R", "99"],
            ["stanley", "--matroid", k23],
            ["probe", "--matroid", k23, "--e", "99"],
            ["discriminant", "--tuple", bad_tuple],
            ["hodge"],
        ]
        for command in ("hodge", "probe", "matroid", "stanley", "lorentzian"):
            split = ["--R", "1"] if command == "stanley" else []
            cases += [[command, "--matroid", p] + split for p in (no_k, bad_bases)]
            cases.append([command, "--graph", bad_edge] + split)
        for argv in cases:
            assert self.run(capsys, tmp_path, argv) == 1, argv

    def test_cap_failures(self, capsys, tmp_path):
        k23 = self.write(
            tmp_path, "k23", {"type": "graphic", "graph": k23_graph().to_json()}
        )
        edges = [[0, 1]] * 17
        wide_graph = self.write(tmp_path, "wide", {"vertices": 2, "edges": edges})
        u1_20 = self.write(
            tmp_path, "u1_20", {"ground": list(range(20)), "bases": [[0], [1]]}
        )
        uniform = self.write(tmp_path, "u2_17", {"type": "uniform", "k": 2, "n": 17})
        linear = {"rows": 1, "cols": 17, "entries": ["1"] * 17}
        wide_matrix = self.write(tmp_path, "linear", {"type": "linear", "matrix": linear})
        cases = [
            ["matroid", "--matroid", k23, "--cap-elements", "5"],
            ["hodge", "--graph", wide_graph],
            ["probe", "--matroid", u1_20],
            ["lorentzian", "--matroid", uniform],
            ["stanley", "--matroid", wide_matrix, "--R", "0"],
        ]
        for argv in cases:
            assert self.run(capsys, tmp_path, argv, capped=True) == 1, argv


class TestInputsReadAsWritten:
    @pytest.mark.parametrize(
        "matroid",
        [
            {"ground": [1, "1"], "bases": [[1]]},
            {
                "type": "linear",
                "ground": ["a", "1", 1],
                "matrix": {"rows": 1, "cols": 3, "entries": [1, 0, 2]},
            },
        ],
        ids=["bases", "linear"],
    )
    @pytest.mark.parametrize("command", ["matroid", "hodge", "probe", "lorentzian"])
    def test_matroid_labels_that_print_alike(self, capsys, tmp_path, matroid, command):
        # the int 1 and the string "1" would be one basis label, one
        # --R or --e entry and one echoed element
        path = tmp_path / "alike.json"
        path.write_text(json.dumps(matroid))
        assert main([command, "--matroid", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: matroid ground labels must be distinct; two print as '1'\n"
        )

    def test_decimal_matrix_entries_are_exact(self, capsys, tmp_path):
        # a JSON decimal is read as the rational it writes, never as a float
        path = tmp_path / "decimal.json"
        for entries, n, value in (
            ("0.1", 1, "1/10"),
            # D(A, A) = det [[1/10, -1/2], [3, 1/4]] = 1/40 + 3/2
            ('0.1, "-1/2", 3, 2.5e-1', 2, "61/40"),
        ):
            matrix = f'{{"rows": {n}, "cols": {n}, "entries": [{entries}]}}'
            path.write_text(f'{{"mats": [{{"matrix": {matrix}, "mult": {n}}}]}}')
            code, report = run_json(capsys, ["discriminant", "--tuple", str(path)])
            assert (code, report["results"]["value"]) == (0, value)

    @pytest.mark.parametrize(
        "entry",
        [
            *("0", "7", "-3", "123456789012345678901234567890", "-0.0", "0.1"),
            *("2.5e-1", "1E3", '"3/2"', '" -4 "', '"0.5"', "true", "false"),
            *("null", "NaN", "1e400", '"x"', '"1/0"', "[1]", "{}"),
        ],
    )
    def test_each_matrix_entry_reads_as_its_text(self, capsys, tmp_path, entry):
        # each entry is read as the rational its text writes; what no
        # rational writes, or a bool, is an input error
        x = json.loads(entry)
        try:
            expected = Fraction(str(x))
        except (ValueError, ZeroDivisionError):
            expected = None
        path = tmp_path / "entry.json"
        path.write_text(
            '{"mats": [{"matrix": {"rows": 1, "cols": 1, "entries": [%s]}}]}' % entry
        )
        code = main(["discriminant", "--tuple", str(path)])
        captured = capsys.readouterr()
        if expected is None:
            assert code == 1 and captured.out == ""
            message = "matrix entries must be rationals like 3 or -1/2"
            assert captured.err == f"error: {message}\n"
            return
        assert code == 0
        assert json.loads(captured.out)["results"]["value"] == str(expected)
        matrix = QMatrix.from_json({"rows": 1, "cols": 1, "entries": [x]})
        assert matrix.m == ((expected,),)

    @pytest.mark.parametrize("entry", ["1e400", "-1e400", "NaN", "Infinity"])
    def test_non_finite_matrix_entries_are_input_errors(self, capsys, tmp_path, entry):
        # Python's JSON reader turns these into inf and nan
        path = tmp_path / "bad.json"
        path.write_text(
            '{"mats": [{"matrix": {"rows": 1, "cols": 1, "entries": [%s]}}]}' % entry
        )
        assert main(["discriminant", "--tuple", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "matrix entries must be rationals like 3 or -1/2"
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            (
                "kahnsaks",  # True == 1, so x would be element 1
                {"elements": [0, 1, 2], "relations": [[0, 1]], "x": True, "y": 2},
                "poset mark 'x' must be an element label, got True",
            ),
            (
                "kahnsaks",
                {"elements": [0, 1, 2], "relations": [], "x": 0, "y": 2.0},
                "poset mark 'y' must be an element label, got 2.0",
            ),
            (
                "kahnsaks",  # a null mark is there, not missing
                {"elements": [0, 1], "x": None, "y": 1},
                "poset mark 'x' must be an element label, got None",
            ),
            (
                "matroid",  # 1.0 == True == 1, so these would be U(2,3)
                {"ground": [0, 1, 2], "bases": [[1.0, 2], [0, 2], [True, 0]]},
                "a basis must hold strings or integers as labels, got 1.0",
            ),
            (
                "poset",
                {"elements": [2, None, "a"], "relations": []},
                "poset 'elements' must hold strings or integers as labels, got None",
            ),
            (
                "poset",
                {"elements": [0, 1], "relations": [[0, 1.0]]},
                "a poset relation must hold strings or integers as labels, got 1.0",
            ),
            (
                "matroid",
                {
                    "type": "linear",
                    "ground": ["a", False],
                    "matrix": {"rows": 1, "cols": 2, "entries": [1, 1]},
                },
                "matroid 'ground' must hold strings or integers as labels, got False",
            ),
        ],
        ids=[
            *("mark-true", "mark-decimal", "mark-null"),
            *("basis", "element", "relation", "ground"),
        ],
    )
    def test_labels_are_strings_or_integers(
        self, capsys, tmp_path, command, payload, message
    ):
        # a JSON true, false, decimal or null is no label: Python takes True,
        # 1.0 and 1 for one dict key
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(payload))
        flag = "--poset" if "elements" in payload else "--matroid"
        assert main([command, flag, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


# Python's int-from-text digit limit, which Pythons before 3.10.7 lack (0)
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
PAST_LIMIT = "7" * (LIMIT + 700)
DIAGONAL = {"rows": 2, "cols": 2, "entries": ["7" * 4000, "0", "0", "7" * 4000]}
NINES = {"exp": [2], "num": "9" * LIMIT, "den": "1"}


@pytest.mark.skipif(not LIMIT, reason="this Python reads ints of any length")
class TestDigitLimit:
    """A JSON integer, or a number string, with more digits than Python's
    int reads from text is an input error in every input file: exit 1 and
    one `error:` line that names the limit and echoes at most 40 characters
    of the number, not a traceback."""

    @staticmethod
    def error_line(capsys, tmp_path, command, flag, text, *more):
        path = tmp_path / "input.json"
        path.write_text(text)
        code = main([command, flag, str(path), *more])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "7" * 41 not in captured.err
        return captured.err.rstrip("\n")

    @pytest.mark.parametrize(
        "command, flag, text",
        [
            (
                "discriminant",
                "--tuple",
                '{"mats": [{"matrix": {"rows": 1, "cols": 1, "entries": [%s]}}]}',
            ),
            ("matroid", "--graph", '{"vertices": %s, "edges": []}'),
            ("hodge", "--graph", '{"vertices": 2, "edges": [[0, %s]]}'),
            (
                "lorentzian",
                "--poly",
                '{"nvars": 1, "terms": [{"exp": [2], "num": %s, "den": 1}]}',
            ),
        ],
        ids=["tuple", "graph-vertices", "graph-edge", "poly"],
    )
    def test_json_integer(self, capsys, tmp_path, command, flag, text):
        what = {"--tuple": "matrix tuple", "--graph": "graph", "--poly": "polynomial"}
        line = self.error_line(capsys, tmp_path, command, flag, text % PAST_LIMIT)
        assert line == f"error: {what[flag]} file has an integer of over {LIMIT} digits"

    @pytest.mark.parametrize(
        "entry",
        [PAST_LIMIT, "-" + PAST_LIMIT, PAST_LIMIT + "/3", "1/" + PAST_LIMIT],
        ids=["digits", "negative", "numerator", "denominator"],
    )
    def test_matrix_entry_string(self, capsys, tmp_path, entry):
        matrix = {"rows": 1, "cols": 1, "entries": [entry]}
        text = json.dumps({"mats": [{"matrix": matrix}]})
        line = self.error_line(capsys, tmp_path, "discriminant", "--tuple", text)
        assert line == (
            f"error: a matrix entry {entry[:40]!r}... exceeds the {LIMIT}-digit limit"
        )

    def test_point_coordinate(self, capsys, tmp_path):
        # the coordinate is a rational, too long to read, not a malformed one
        k3 = '{"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}'
        point = f"1,1,{PAST_LIMIT}"
        line = self.error_line(capsys, tmp_path, "hodge", "--graph", k3, "--point", point)
        assert line == (
            f"error: a point coordinate {PAST_LIMIT[:40]!r}... exceeds the "
            f"{LIMIT}-digit limit"
        )

    @pytest.mark.parametrize(
        "coordinate",
        [f"1e{LIMIT}", f"1e-{2 * LIMIT}", "0e100000000", f".1e-{LIMIT - 1}"],
        ids=["exponent", "negative", "zero-mantissa", "leading-point"],
    )
    def test_a_written_exponent_counts_its_digits(self, capsys, tmp_path, coordinate):
        # N of e±N counts on top of the mantissa, so no 10^N is built: a
        # point coordinate and a matrix entry both fail fast, echoed whole
        # with no "..." as no text was cut
        k3 = '{"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}'
        point = f"1,1,{coordinate}"
        line = self.error_line(capsys, tmp_path, "hodge", "--graph", k3, "--point", point)
        limit = f"exceeds the {LIMIT}-digit limit"
        assert line == f"error: a point coordinate {coordinate!r} {limit}"
        matrix = {"rows": 1, "cols": 1, "entries": [coordinate]}
        text = json.dumps({"mats": [{"matrix": matrix}]})
        line = self.error_line(capsys, tmp_path, "discriminant", "--tuple", text)
        assert line == f"error: a matrix entry {coordinate!r} {limit}"

    @pytest.mark.parametrize(
        "entry, value",
        [
            (f"1e{LIMIT - 1}", str(10 ** (LIMIT - 1))),
            (f"1e-{LIMIT - 1}", f"1/{10 ** (LIMIT - 1)}"),
            (f"1_0e{LIMIT - 2}", str(10 ** (LIMIT - 1))),
            (f".5e-{LIMIT - 2}", f"1/{2 * 10 ** (LIMIT - 2)}"),
        ],
        ids=["exponent", "negative", "underscore", "leading-point"],
    )
    def test_an_exponent_within_the_limit_reads(self, capsys, tmp_path, entry, value):
        # at the bound, the value's numerator and denominator still print
        path = tmp_path / "tuple.json"
        matrix = {"rows": 1, "cols": 1, "entries": [entry]}
        path.write_text(json.dumps({"mats": [{"matrix": matrix}]}))
        code, report = run_json(capsys, ["discriminant", "--tuple", str(path)])
        assert code == 0 and report["results"]["value"] == value

    @pytest.mark.parametrize(
        "command, flag, payload",
        [
            # det of [[a, 0], [0, a]] has 8000 digits
            ("discriminant", "--tuple", {"mats": [{"matrix": DIAGONAL, "mult": 2}]}),
            # two like terms of LIMIT nines add up to LIMIT + 1 digits
            ("lorentzian", "--poly", {"nvars": 1, "terms": [NINES, NINES]}),
        ],
        ids=["discriminant", "lorentzian"],
    )
    def test_a_report_number_past_the_limit(
        self, capsys, tmp_path, command, flag, payload
    ):
        # each input number is within the limit, a result is not
        text = json.dumps(payload)
        line = self.error_line(capsys, tmp_path, command, flag, text)
        assert line == f"error: a report number exceeds the {LIMIT}-digit limit"

    def test_other_value_errors_propagate(self, tmp_path, monkeypatch):
        # only the int-to-string limit is an input error; any other
        # ValueError is a fault of the program, and shows as one
        def fail(args):
            raise ValueError("something else")

        monkeypatch.setattr(cli, "cmd_selftest", fail)
        with pytest.raises(ValueError, match="something else"):
            main(["selftest"])

    @pytest.mark.parametrize("key", ["num", "den"])
    def test_polynomial_coefficient_string(self, capsys, tmp_path, key):
        term = {"exp": [2], "num": "1", "den": "1", key: PAST_LIMIT}
        text = json.dumps({"nvars": 1, "terms": [term]})
        line = self.error_line(capsys, tmp_path, "lorentzian", "--poly", text)
        assert line == (
            f"error: a term's '{key}' {PAST_LIMIT[:40]!r}... exceeds the "
            f"{LIMIT}-digit limit"
        )

    @pytest.mark.parametrize(
        "entries",
        [
            # a valid fraction whose two numbers are each within the limit,
            # next to an invalid entry: the invalid one is the cause
            ["7" * (LIMIT // 2 + 100) + "/" + "3" * (LIMIT // 2 + 100), "x"],
            # a zero denominator: no number is past the limit
            ["7" * (LIMIT - 300) + "/" + "0" * 400],
            # the numbers of a long fraction count one by one
            ["1/2", "7" * (LIMIT - 1) + "/" + "7" * (LIMIT - 1) + "x"],
            # the first entry that fails is the one named
            ["x", PAST_LIMIT],
        ],
        ids=["long-neighbour", "zero-denominator", "invalid-long-fraction", "first"],
    )
    def test_only_the_failing_entry_is_blamed(self, capsys, tmp_path, entries):
        matrix = {"rows": 1, "cols": len(entries), "entries": entries}
        text = json.dumps({"mats": [{"matrix": matrix}]})
        line = self.error_line(capsys, tmp_path, "discriminant", "--tuple", text)
        assert line == "error: matrix entries must be rationals like 3 or -1/2"

    def test_underscores_do_not_split_a_number(self, capsys, tmp_path):
        # int counts the digits on both sides of a _ as one number
        half = "7" * (LIMIT // 2 + 100)
        entry = f"{half}_{half}"
        matrix = {"rows": 1, "cols": 1, "entries": [entry]}
        text = json.dumps({"mats": [{"matrix": matrix}]})
        line = self.error_line(capsys, tmp_path, "discriminant", "--tuple", text)
        assert line == (
            f"error: a matrix entry {entry[:40]!r}... exceeds the {LIMIT}-digit limit"
        )

    def test_strings_within_the_limit_still_read(self, capsys, tmp_path):
        # the limit is on digits: a string of exactly LIMIT digits is read
        within = "7" * LIMIT
        term = {"exp": [2], "num": within, "den": within}
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"nvars": 1, "terms": [term]}))
        code, report = run_json(capsys, ["lorentzian", "--poly", str(path)])
        assert code == 0 and report["inputs"]["poly"]["terms"][0]["num"] == "1"



class TestNoDigitLimit:
    def test_a_python_without_the_limit_reads_bad_entries_as_before(
        self, capsys, tmp_path, monkeypatch
    ):
        # where sys has no get_int_max_str_digits, no number is too long
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        for entry in ("x", "1/0", "7" * 50 + "x"):
            path = tmp_path / "tuple.json"
            matrix = {"rows": 1, "cols": 1, "entries": [entry]}
            path.write_text(json.dumps({"mats": [{"matrix": matrix}]}))
            assert main(["discriminant", "--tuple", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.err == (
                "error: matrix entries must be rationals like 3 or -1/2\n"
            )
        path.write_text('{"nvars": 1, "terms": [{"exp": [2], "num": "x", "den": 1}]}')
        assert main(["lorentzian", "--poly", str(path)]) == 1
        assert capsys.readouterr().err == "error: a term's 'num' must be an integer, got 'x'\n"

LONG = "w" * 5000  # a long input value, which an error echoes cut short
BIG = int("9" * 4000)  # a JSON integer within the digit limit
LONG_GROUND = {"type": "bases", "ground": [LONG, 1], "bases": [[LONG], [1]]}
BIG_SIZE = {"rows": BIG, "cols": 1, "entries": []}
NEGATIVE_SIZE = {"rows": 1, "cols": -BIG, "entries": []}
PATH3 = {"vertices": 3, "edges": [[0, 1], [1, 2]]}
MARKED3 = {"elements": [0, 1, 2], "relations": [], "x": 0, "y": 1}


class TestEchoBound:
    """A long input value is echoed cut after 40 characters: each message
    that names an offending value gives one short `error:` line."""

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["matroid", "--graph"], {"vertices": LONG, "edges": []}),
            (["matroid", "--graph"], {"vertices": 2, "edges": [[0, 1, LONG]]}),
            (["matroid", "--graph"], {"vertices": 2, "edges": [[0, BIG]]}),
            (["matroid", "--matroid"], {"type": LONG}),
            (["matroid", "--matroid"], {"type": "bases", "ground": [[LONG]]}),
            (
                ["matroid", "--matroid"],
                {"type": "bases", "ground": [LONG, LONG], "bases": [[LONG]]},
            ),
            (["matroid", "--matroid"], {**LONG_GROUND, "bases": [[LONG + "x"]]}),
            (["matroid", "--matroid"], {**LONG_GROUND, "bases": [[LONG, LONG]]}),
            (["probe", "--e", LONG + "x", "--matroid"], LONG_GROUND),
            (["stanley", "--R", f"{LONG},{LONG}", "--matroid"], LONG_GROUND),
            (["lorentzian", "--poly"], poly({"exp": [LONG], "num": "1", "den": "1"})),
            (["lorentzian", "--poly"], poly({"exp": [1] * 3000, "num": "1", "den": "1"})),
            (["poset", "--poset"], {"elements": ["a"], "relations": [["a", LONG]]}),
            (["poset", "--poset"], {"elements": ["a"], "relations": [[LONG, 0, 1]]}),
            (["poset", "--poset"], {"elements": [LONG, LONG]}),
            (
                ["poset", "--poset"],
                {"elements": [LONG, 1], "relations": [[LONG, 1], [1, LONG]]},
            ),
            (["poset", "--x", LONG, "--poset"], {"elements": ["a"]}),
            (["kahnsaks", "--poset"], {"elements": ["a"], "x": [LONG], "y": "a"}),
            (["discriminant", "--tuple"], {"mats": [{"matrix": I2, "mult": LONG}]}),
            (["discriminant", "--tuple"], {"mats": [{"matrix": {"rows": LONG}}]}),
            # integers: sizes, counts, degrees and caps
            (["matroid", "--matroid"], {"type": "linear", "matrix": BIG_SIZE}),
            (["matroid", "--matroid"], {"type": "linear", "matrix": NEGATIVE_SIZE}),
            (["matroid", "--graph"], {"vertices": -BIG, "edges": []}),
            (["matroid", "--matroid"], {"type": "uniform", "k": BIG, "n": 2}),
            (["matroid", "--matroid"], {"type": "uniform", "k": 1, "n": -BIG}),
            (["lorentzian", "--poly"], {"nvars": -BIG, "terms": []}),
            (["hodge", "--k", str(-BIG), "--graph"], PATH3),
            (["hodge", "--k", "5", "--graph"], PATH3),
            (["hodge", "--k", str(BIG), "--graph"], PATH3),
            (["matroid", "--cap-elements", str(-BIG), "--graph"], PATH3),
            (["kahnsaks", "--cap-extensions", str(-BIG), "--poset"], MARKED3),
            (["matroid", "--matroid"], {"type": "uniform", "k": 1, "n": BIG}),
        ],
    )
    def test_one_short_error_line(self, capsys, tmp_path, argv, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert main(argv + [str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and len(captured.err) < 200

    def test_a_degree_outside_the_rank(self):
        # `graded_evaluation` checks its own degree; the CLI checks --k first
        m = Matroid.graphic(Graph(3, [(0, 1), (1, 2)]))
        with pytest.raises(LogcavityError) as raised:
            hodge.graded_evaluation(m, -BIG)
        assert len(str(raised.value)) < 200


class TestProbeClones:
    """`probe` runs one containment probe per clone class until one holds,
    and copies a holding verdict to the rest of the class; a failing element
    is probed on its own. Probing every element gives the same bytes."""

    @staticmethod
    def reports(m):
        """The probe report of m per class and per element, with the number
        of probes each ran."""
        out = []
        with tempfile.TemporaryDirectory() as tmp:
            path, report = Path(tmp) / "m.json", Path(tmp) / "report.json"
            path.write_text(json.dumps(m.to_json()))
            argv = ["probe", "--matroid", str(path), "--out", str(report)]
            for classes in (Matroid.clone_classes, lambda m: tuple(range(m.n))):
                probe = mock.Mock(wraps=hodge.annihilator_containment_probe)
                with mock.patch.object(
                    hodge, "annihilator_containment_probe", probe
                ), mock.patch.object(Matroid, "clone_classes", classes):
                    assert main(argv) == 0
                out.append((report.read_text(), probe.call_count))
        return out

    @settings(max_examples=60, deadline=None)
    @given(small_matroids())
    @example(  # edges 1 and 6 are in series, so clones, and both fail
        Matroid.graphic(
            Graph(5, ((0, 3), (1, 4), (0, 2), (3, 2), (0, 4), (3, 2), (2, 1), (3, 4)))
        )
    )
    def test_per_class_matches_per_element(self, m):
        (per_class, probes), (per_element, _) = self.reports(m)
        assert per_class == per_element
        # each class of non-coloops is probed at least once
        classes, coloops = m.clone_classes(), m.coloops()
        assert probes >= len({c for c, e in zip(classes, m.ground) if e not in coloops})

    def test_uniform_matroid_is_probed_once(self):
        (per_class, probes), (per_element, others) = self.reports(
            Matroid.uniform(3, 6)
        )
        assert per_class == per_element
        assert (probes, others) == (1, 6)
        assert json.loads(per_class)["results"]["elements_probed"] == [
            str(e) for e in range(6)
        ]


class TestFailFast:
    """Inputs whose cost once grew with a number the input only declares."""

    def run(self, tmp_path, argv, seconds):
        """(exit code, stdout, stderr) of the CLI in a fresh interpreter,
        which fails the test by a timeout after the given seconds."""
        done = subprocess.run(
            [sys.executable, "-m", "logcavity.cli", *argv],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=seconds,
        )
        return done.returncode, done.stdout, done.stderr

    def test_an_invalid_basis_list_is_rejected_as_fast_as_decided(self, tmp_path):
        # U(7, 14) minus two bases: the link test decides in 0.1 s, and the
        # all-pairs exchange scan took 80 s to name the pair
        bases = [list(c) for c in combinations(range(14), 7)]
        bases.remove(list(range(7, 14)))
        bases.remove([6] + list(range(8, 14)))
        path = tmp_path / "u7_14.json"
        path.write_text(json.dumps({"ground": list(range(14)), "bases": bases}))
        code, out, err = self.run(tmp_path, ["matroid", "--matroid", str(path)], 10)
        assert (code, out) == (1, "")
        assert err == (
            "error: exchange fails for bases [0, 8, 9, 10, 11, 12, 13] and "
            "[6, 7, 8, 9, 10, 11, 12]\n"
        )
        start = time.perf_counter()
        assert main(["matroid", "--matroid", str(path)]) == 1
        assert time.perf_counter() - start < 2

    def test_isolated_vertices_cost_nothing(self, capsys, tmp_path):
        # K4, an edge beside it and six edges between them: 12 edges on 6
        # vertices, then the same edges among 200,000 vertices
        edges = [[u, v] for u in range(4) for v in range(u + 1, 4)]
        edges += [[4, 5], [0, 4], [1, 5], [2, 5], [3, 4], [0, 5]]
        best, results = [], []
        for vertices in (6, 200_000):
            graph, out = tmp_path / "graph.json", tmp_path / "report.json"
            graph.write_text(json.dumps({"vertices": vertices, "edges": edges}))
            argv = ["matroid", "--graph", str(graph), "--out", str(out)]
            times = []
            for _ in range(3):
                start = time.perf_counter()
                assert main(argv) == 0
                times.append(time.perf_counter() - start)
            best.append(min(times))
            results.append(json.loads(out.read_text())["results"])
        assert results[0] == results[1]
        assert best[1] < 2 * best[0]

    def test_an_edgeless_graph_of_many_vertices(self, tmp_path):
        # 3,000,000 isolated vertices took 10.8 s and 544 MB; the report
        # is that of one vertex, as the matroid is the same
        reports = []
        for vertices in (1, 3_000_000):
            graph = tmp_path / f"graph{vertices}.json"
            graph.write_text(json.dumps({"vertices": vertices, "edges": []}))
            argv = ["stanley", "--graph", str(graph), "--R", ""]
            reports.append(self.run(tmp_path, argv, 5))
        assert reports[1] == reports[0] and reports[0][0] == 0

    @staticmethod
    def powers(exponent, *terms):
        """x^E + y^E plus the given (exp, num, den) terms, as polynomial JSON."""
        terms = [([exponent, 0], 1, 1), ([0, exponent], 1, 1), *terms]
        terms = [{"exp": e, "num": str(n), "den": str(d)} for e, n, d in terms]
        return json.dumps({"nvars": 2, "terms": terms})

    def test_a_large_exponent_takes_no_factorial(self, tmp_path):
        # x^E + y^E + (3/2) x^(E-1) y: the Hessian entries were gamma! c_gamma,
        # and E = 10^6 took 55 s; the results are those of E = 4
        results = []
        for exponent in (4, 10**6):
            path = tmp_path / f"poly{exponent}.json"
            path.write_text(self.powers(exponent, ([exponent - 1, 1], 3, 2)))
            argv = ["lorentzian", "--poly", str(path)]
            code, out, err = self.run(tmp_path, argv, 5)
            assert (code, err) == (0, "")
            results.append(json.loads(out)["results"])
        assert results[1] == results[0] == {
            "passed": False,
            "homogeneous": True,
            "m_convex_support": False,
            "hessian_failures": 0,
            "coefficient_log_concavity": True,
        }

    def test_an_exponent_past_a_machine_word(self, tmp_path):
        # math.factorial(2^63) raised OverflowError
        path = tmp_path / "poly.json"
        path.write_text(self.powers(2**63))
        code, out, err = self.run(tmp_path, ["lorentzian", "--poly", str(path)], 5)
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["hessian_failures"] == 0

    def test_a_negative_vertex_count_is_an_input_error(self, capsys, tmp_path):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"vertices": -4, "edges": []}))
        assert main(["matroid", "--graph", str(graph)]) == 1
        err = capsys.readouterr().err
        assert err == "error: a graph needs at least 0 vertices, got -4\n"

    def test_a_declared_multiplicity_builds_no_list(self, capsys, tmp_path):
        # 3,000,000 copies of a 2 x 2 matrix took 62 MB and 0.7 s to reject
        path = tmp_path / "tuple.json"
        path.write_text(json.dumps({"mats": [{"matrix": I2, "mult": 3_000_000}]}))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = main(["discriminant", "--tuple", str(path)])
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "error: a mixed discriminant of 2 x 2 matrices needs 2 of them, "
            "got 3000000\n"
        )
        assert peak < 1_000_000 and seconds < 0.5


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process `main` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reuse_bundle(flag, path, m):
    """The commands the workloads run on one matroid input, and the other
    commands that read one, as argv tuples: --k 2 where 2k <= rank."""
    point = ",".join(f"{i + 1}/{i + 2}" for i in range(m.n))
    tails = [
        ["matroid"],
        ["probe"],
        ["hodge", "--k", "1"],
        ["hodge", "--k", "1", "--point", point],
        ["lorentzian"],
        ["stanley", f"--R={m.ground[0]}"],
    ]
    if m.rank >= 4:
        tails.append(["hodge", "--k", "2"])
    return [(tail[0], flag, path, *tail[1:]) for tail in tails]


class TestMatroidReuse:
    """`main` keeps the last matroid it built from a --matroid or --graph
    file, keyed by the flag, the file's bytes and --cap-elements, so that
    back-to-back commands on one input share its tables. No report, exit
    code or error line may tell whether a command found it kept."""

    @pytest.fixture(scope="class")
    def expected(self, tmp_path_factory):
        """{input name: {argv: (code, stdout, stderr) with the memo cleared
        first}}, over the zoo as --matroid files and two graphs as --graph."""
        directory = tmp_path_factory.mktemp("reuse")
        inputs = {n: ("--matroid", m, m.to_json()) for n, m in matroid_zoo().items()}
        for name, g in (("k4", k4_graph()), ("k23", k23_graph())):
            inputs[f"{name}_graph"] = ("--graph", Matroid.graphic(g), g.to_json())
        out = {}
        for name, (flag, m, obj) in inputs.items():
            path = directory / f"{name}.json"
            path.write_text(json.dumps(obj))
            out[name] = {}
            for argv in reuse_bundle(flag, str(path), m):
                cli._built.cache_clear()
                out[name][argv] = run_cli(list(argv))
        return out

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_reports_do_not_depend_on_the_commands_before(self, expected, data):
        names = st.lists(st.sampled_from(sorted(expected)), min_size=1, max_size=3)
        ops = [
            (name, argv)
            for name in data.draw(names)
            for argv in data.draw(st.permutations(list(expected[name])))
        ]
        if data.draw(st.booleans()):  # the bundles interleaved
            ops = data.draw(st.permutations(ops))
        for name, argv in ops:
            assert run_cli(list(argv)) == expected[name][argv], argv

    def test_a_repeated_command_builds_no_evaluation_again(self, k23_file):
        argv = ["hodge", "--matroid", k23_file, "--k", "2"]
        cli._built.cache_clear()
        with mock.patch.object(
            hodge, "graded_evaluation", wraps=hodge.graded_evaluation
        ) as built:
            first = run_cli(argv)
            calls = built.call_count
            assert run_cli(argv) == first
        assert calls > 0 and built.call_count == calls

    def test_a_kept_echo_is_rendered_once(self, tmp_path):
        # one to_json and one rendering serve the bundle's echoes, in JSON
        # and in CSV, and each report has the bytes of a run with the memo
        # cleared
        m = matroid_zoo()["graphic_k23"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(m.to_json()))
        bundle = [
            list(argv) + fmt
            for argv in reuse_bundle("--matroid", str(path), m)
            for fmt in ([], ["--format", "csv"])
        ]
        fresh = []
        for argv in bundle:
            cli._built.cache_clear()
            fresh.append(run_cli(argv))
        cli._built.cache_clear()
        tree, text = m.to_json(), cli._text
        rendered = []

        def counted(value, pad=""):
            rendered.append(value == tree)
            return text(value, pad)

        with mock.patch.object(
            Matroid, "to_json", autospec=True, side_effect=Matroid.to_json
        ) as to_json, mock.patch.object(cli, "_text", counted):
            assert [run_cli(argv) for argv in bundle] == fresh
        assert to_json.call_count == 1 and sum(rendered) == 1
        assert all(code == 0 for code, _, _ in fresh)

    def test_points_keep_one_table(self, tmp_path):
        # a new --point drops the sums of the point before, so a hundred
        # points on one file keep one point's tables, and every report has
        # the bytes of a fresh run
        path = tmp_path / "u48.json"
        path.write_text(json.dumps(Matroid.uniform(4, 8).to_json()))
        bundle = [
            ["hodge", "--matroid", str(path), "--k", str(1 + i % 2),
             "--point", ",".join(str(Fraction(i + j, j + 1)) for j in range(8))]
            for i in range(100)
        ]
        fresh = []
        for argv in bundle:
            cli._built.cache_clear()
            fresh.append(run_cli(argv))
        cli._built.cache_clear()
        assert [run_cli(argv) for argv in bundle] == fresh
        data, cap = path.read_bytes(), matroids.DEFAULT_ELEMENT_CAP
        kept = cli._built("matroid", data, cap)[0]
        assert cli._built.cache_info().misses == 1
        assert len(kept._tables) == 1
        # two points alternating: each command drops the other point's sums
        # and form inertias, and every report is still a fresh run's; the
        # last point keeps the sums and the inertias it took
        points = [bundle[0][-1], bundle[1][-1]]
        alternating = [
            bundle[0][:4] + [str(k), "--point", p]
            for k in (1, 2, 2, 1, 2)
            for p in points
        ]
        fresh = []
        for argv in alternating:
            cli._built.cache_clear()
            fresh.append(run_cli(argv))
        cli._built.cache_clear()
        assert [run_cli(argv) for argv in alternating] == fresh
        kept = cli._built("matroid", data, cap)[0]
        at = hodge._point(kept, points[1].split(","))
        assert list(kept._tables) == [at]
        sums, inertias = kept._tables[at]
        assert sorted(sums) == [0, 2, 4] and sorted(inertias) == [1, 2]

    def test_degree_two_reads_degree_ones_form_inertia(self, k23_file, monkeypatch):
        # In(Q^1) is kept with the point's sums, so `hodge --k 2` after
        # `hodge --k 1` at one point eliminates only the Moebius pairing,
        # and its report has the bytes of a fresh run
        argv = ["hodge", "--matroid", k23_file, "--point", "1,1/2,2,3/4,1,5/3"]
        cli._built.cache_clear()
        fresh = run_cli(argv + ["--k", "2"])
        cli._built.cache_clear()
        assert run_cli(argv + ["--k", "1"])[0] == 0
        shapes, original = [], hodge.integer_inertia

        def counted(rows):
            shapes.append(len(rows))
            return original(rows)

        monkeypatch.setattr(hodge, "integer_inertia", counted)
        assert run_cli(argv + ["--k", "2"]) == fresh
        assert shapes == [15]

    def test_a_lower_cap_on_the_same_bytes_is_still_too_large(self, k23_file):
        argv = ["hodge", "--matroid", k23_file]
        first = run_cli(argv)
        assert first[0] == 0 and run_cli(argv) == first
        for cap, code in (("5", 1), ("6", 0), ("5", 1)):
            done = run_cli(["matroid", "--matroid", k23_file, "--cap-elements", cap])
            assert done[0] == code
        line = "error: TooLarge: matroid has 6 elements, over the --cap-elements limit 5"
        assert done == (1, "", line + "\n")
        assert run_cli(argv) == first

    def test_the_flag_is_in_the_key(self, tmp_path):
        path = tmp_path / "k4.json"
        path.write_text(json.dumps(k4_graph().to_json()))
        assert run_cli(["matroid", "--graph", str(path)])[0] == 0
        done = run_cli(["matroid", "--matroid", str(path)])
        assert done == (1, "", "error: matroid JSON has no key 'ground'\n")

    def test_a_file_rewritten_in_place_gives_the_new_matroid(self, tmp_path):
        path = tmp_path / "m.json"
        argv = ["matroid", "--matroid", str(path)]
        counts = []
        for n in (3, 4, 3):
            path.write_text(json.dumps(Matroid.uniform(2, n).to_json()))
            done = run_cli(argv)
            cli._built.cache_clear()
            assert run_cli(argv) == done
            counts.append(json.loads(done[1])["results"]["bases"])
        assert counts == [3, 6, 3]

    def test_a_failing_build_fails_the_same_way_each_time(self, tmp_path, k23_file):
        path = tmp_path / "no_exchange.json"
        bases = {"type": "bases", "ground": [0, 1, 2, 3], "bases": [[0, 1], [2, 3]]}
        path.write_text(json.dumps(bases))
        kept = run_cli(["matroid", "--matroid", k23_file])
        line = "error: exchange fails for bases [0, 1] and [2, 3]\n"
        for _ in range(2):
            assert run_cli(["hodge", "--matroid", str(path)]) == (1, "", line)
        assert run_cli(["matroid", "--matroid", k23_file]) == kept

    @pytest.mark.parametrize(
        "command, flag",
        [("matroid", "--matroid"), ("matroid", "--graph"), ("poset", "--poset")],
    )
    @pytest.mark.parametrize("kind", ["missing", "not-utf8"])
    def test_unreadable_files_keep_their_error_lines(
        self, tmp_path, command, flag, kind
    ):
        path = tmp_path / "input.json"
        if kind == "missing":
            reason = f"[Errno 2] No such file or directory: {str(path)!r}"
        else:
            path.write_bytes(b'{"a": "\xff"}')
            reason = "'utf-8' codec can't decode byte 0xff in position 7: "
            reason += "invalid start byte"
        line = f"error: {flag[2:]} file cannot be read: {reason}\n"
        for _ in range(2):
            assert run_cli([command, flag, str(path)]) == (1, "", line)

    @pytest.mark.parametrize("flag", ["--matroid", "--graph"])
    def test_json_errors_count_a_crlf_as_one_newline(self, tmp_path, flag):
        # as a file opened as text reads it: x is char 7, not 8
        path = tmp_path / "crlf.json"
        path.write_bytes(b'{"a":\r\n x}')
        line = "file is not valid JSON: Expecting value: line 2 column 2 (char 7)"
        done = run_cli(["matroid", flag, str(path)])
        assert done == (1, "", f"error: {flag[2:]} {line}\n")
