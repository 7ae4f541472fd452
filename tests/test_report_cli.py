import dataclasses
import json
from fractions import Fraction

import pytest

from divides import (
    DivideError, TheoremReport, build_report, fixture, render_text,
    run_corpus, walk_table, zigzag,
)
from divides.cli import main
from divides.report import CSV_HEADER


SCHEMA = ("source", "r", "delta", "regions", "connected", "cellular",
          "simple", "mu", "e", "f", "chi_body", "slalom", "lambda_formula",
          "lambda_trace", "char_poly", "signature", "lattice_genus",
          "traces", "lefschetz_iterates", "checks", "findings",
          "lattice_genus_note")


class TestReport:
    def test_lens_values(self):
        d = build_report(fixture("LENS"), source="LENS").to_json_dict()
        assert d["lambda_formula"] == 0
        assert d["lambda_trace"] == 0
        assert (d["mu"], d["e"], d["f"]) == (3, 2, 0)
        assert d["chi_body"] == 1
        assert d["char_poly"] == [-1, 1, -1, 1]
        assert d["signature"] == 3
        assert d["slalom"] is True
        assert d["lattice_genus"] == [1, 1]

    def test_fig2a_values(self):
        d = build_report(fixture("FIG2A"), source="FIG2A").to_json_dict()
        assert d["lambda_formula"] == 2
        assert d["cellular"] is False

    def test_fig2b_values(self):
        d = build_report(fixture("FIG2B"), source="FIG2B").to_json_dict()
        assert d["lambda_formula"] == -1
        assert d["simple"] is False

    def test_half_integer_lattice_genus(self):
        # two non-crossing chords: mu = 0, r = 2: genus (0 - 2 + 1)/2
        from divides import Chord, ChordSet, from_chords
        m = from_chords(ChordSet(chords=(Chord((-5, 1), (-2, 1)),
                                         Chord((1, 1), (4, 1)))))
        d = build_report(m, source="two chords").to_json_dict()
        assert d["lattice_genus"] == [-1, 2]
        assert d["lambda_formula"] == 1    # mu = 0

    def test_json_round_trip(self):
        d = build_report(zigzag(3), source="zz3", k=8).to_json_dict()
        assert len(d["traces"]) == len(d["lefschetz_iterates"]) == 8
        assert json.loads(json.dumps(d)) == d

    def test_json_schema(self):
        # the 22 keys in order, and each call's lists and dicts are fresh:
        # mutating one returned dict leaves the next call's intact
        rep = build_report(fixture("LENS"), source="LENS")
        d = rep.to_json_dict()
        assert tuple(d) == SCHEMA and len(SCHEMA) == 22
        fresh = json.dumps(d)
        for value in d.values():
            if isinstance(value, (list, dict)):
                value.clear()
        d["mu"] = -1
        assert json.dumps(rep.to_json_dict()) == fresh

    def test_report_holds_the_record(self):
        # the report keeps its name, the chain's record and its traces,
        # nothing copied from the record, and has no value equality
        rep = build_report(zigzag(4), source="zz4", k=5)
        assert [f.name for f in dataclasses.fields(rep)] == \
            ["source", "thm", "traces"]
        assert (rep.source, rep.traces) == ("zz4", rep.thm.traces_to(5))
        assert rep.to_json_dict()["mu"] == rep.thm.mu == 7
        assert rep != build_report(zigzag(4), source="zz4", k=5)

    def test_signature_built_by_build_report(self, monkeypatch):
        # build_report builds every artifact the JSON reads, so an error in
        # the signature is raised there, not when the JSON is put together
        import divides.seifert as seifert_mod

        def broken(rows):
            raise ArithmeticError("signature failed")

        monkeypatch.setattr(seifert_mod, "_signature", broken)
        with pytest.raises(ArithmeticError, match="signature failed"):
            build_report(fixture("LENS"), source="LENS")

    def test_lattice_genus_in_lowest_terms(self, zoo):
        # [num, den] of (mu - r + 1)/2 as Fraction gives it, zero and
        # negatives included
        for name, m in zoo:
            d = build_report(m).to_json_dict()
            genus = Fraction(d["mu"] - d["r"] + 1, 2)
            assert d["lattice_genus"] == [genus.numerator,
                                          genus.denominator], name

    def test_deterministic(self):
        a = build_report(zigzag(4), source="zz", k=10)
        b = build_report(zigzag(4), source="zz", k=10)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
        assert render_text(a) == render_text(b)

    def test_text_rendering(self):
        text = render_text(build_report(fixture("LENS"), source="LENS"))
        assert "lefschetz = 0" in text
        assert "mu=3  e=2  f=0" in text
        assert "simple_cellular_lambda_zero: pass" in text

    @pytest.mark.parametrize("k, kept", [(0, 1), (-3, 1), (1, 1), (12, 12),
                                         (64, 64), (65, 64), (1000, 64)])
    def test_k_clamped_to_1_through_64(self, k, kept):
        # the report and the walk table clamp K alike, in traces_to
        m = fixture("LENS")
        rep = build_report(m, k=k)
        assert len(rep.traces) == len(rep.to_json_dict()["traces"]) == kept
        assert len(walk_table(TheoremReport(m), k).rows) == kept


class TestCorpus:
    def test_small_run_clean(self, tmp_path):
        out = tmp_path / "rows.csv"
        with open(out, "w", encoding="utf-8") as fh:
            summary = run_corpus(25, 4, 11, csv_out=fh)
        assert summary.ok()
        assert summary.checks_failed == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 26
        assert lines[1].startswith("11,4,")

    def test_trivial_instances(self):
        # n = 1: every instance is a single chord, delta = 0, lambda = 1
        summary = run_corpus(10, 1, 3)
        assert summary.ok()
        assert summary.simple == 0
        assert summary.slalom == 10

    def test_doubled_edge_fails_the_handshake(self, monkeypatch):
        # one edge doubled in each record's N after grading, with the flag
        # traces read off that N: Tr(M^2) = 2 Tr(tN N) gains 6 over 2e and
        # Tr(M) stays 0; seeds 101..103 at n = 6 all have edges
        import divides.report as report_mod
        from divides.seifert import _flag_traces, sparse_mul
        clean = run_corpus(3, 6, 101)
        real = report_mod.verify_theorem

        def doubled(m):
            rep = real(m)
            row = next(row for row in rep.n if row)
            row[next(iter(row))] *= 2
            rep.flag_traces = _flag_traces(rep.n, sparse_mul(rep.n, rep.n))
            return rep

        monkeypatch.setattr(report_mod, "verify_theorem", doubled)
        summary = run_corpus(3, 6, 101)
        assert summary.discrepancies == [(101, "walk_handshake_2e"),
                                         (102, "walk_handshake_2e"),
                                         (103, "walk_handshake_2e")]
        assert summary.checks_failed == 3
        assert summary.checks_passed == clean.checks_passed - 3

    def test_lefschetz_disagreement_is_graded(self, monkeypatch):
        # a monodromy off by one on its diagonal makes the trace route the
        # chain step works out from T disagree with the formula route: the
        # check fails, the run goes on
        import divides.seifert as seifert_mod
        real = seifert_mod._monodromy

        def off_by_one(n):
            t = real(n)
            t[0][0] = t[0].get(0, 0) + 1
            return t

        monkeypatch.setattr(seifert_mod, "_monodromy", off_by_one)
        summary = run_corpus(3, 6, 101)
        assert (101, "lefschetz_two_routes") in summary.discrepancies
        assert summary.checks_failed > 0

    def test_negative_count_rejected(self):
        with pytest.raises(DivideError, match="count"):
            run_corpus(-1, 5, 1)
        assert run_corpus(0, 5, 1).count == 0
        with pytest.raises(DivideError, match="n >= 1"):
            run_corpus(0, 0, 1)


class TestCli:
    def write(self, tmp_path, name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload), encoding="utf-8")
        return str(p)

    def x1_doc(self):
        return {
            "format": "divide-map/1",
            "endpoints": ["e1", "e2", "e3", "e4"],
            "crossings": ["c1"],
            "edges": [
                {"a": ["e1", 0], "b": ["c1", 0]},
                {"a": ["e2", 0], "b": ["c1", 1]},
                {"a": ["e3", 0], "b": ["c1", 2]},
                {"a": ["e4", 0], "b": ["c1", 3]},
            ],
        }

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write(tmp_path, "x1.json", self.x1_doc())
        assert main(["validate", path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_slot_reuse(self, tmp_path, capsys):
        doc = self.x1_doc()
        doc["edges"][1]["b"] = ["c1", 0]
        path = self.write(tmp_path, "bad.json", doc)
        assert main(["validate", path]) == 1
        assert "slot" in capsys.readouterr().err

    @pytest.mark.parametrize("label", [["e1"], {"e": 1}],
                             ids=["list", "dict"])
    def test_validate_unhashable_label(self, tmp_path, capsys, label):
        doc = self.x1_doc()
        doc["edges"][0]["a"] = [label, 0]
        path = self.write(tmp_path, "bad.json", doc)
        assert main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert "bad attachment" in err
        assert "Traceback" not in err

    def test_validate_bad_chords(self, tmp_path, capsys):
        doc = {"format": "divide-chords/1",
               "chords": [{"s": [0, 1], "t": [1, 1]},
                          {"s": [1, 1], "t": [2, 1]}]}
        path = self.write(tmp_path, "bad.json", doc)
        assert main(["validate", path]) == 1
        assert "general-position" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        b'{"format": "divide-map/1", "note": "\xff"}',
        b'{"format": "divide-map/1", "n": ' + b"9" * 5000 + b"}",
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not_utf8", "huge_int", "deep_nesting"])
    def test_validate_undecodable(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed document")
        assert "Traceback" not in err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/file.json"]) == 1

    def test_usage_error(self, capsys):
        assert main(["report"]) == 2
        assert main(["frobnicate"]) == 2

    def test_report_json(self, tmp_path, capsys):
        path = self.write(tmp_path, "x1.json", self.x1_doc())
        assert main(["report", path, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mu"] == 1
        assert data["lambda_formula"] == 0

    def test_report_traces_clamped(self, tmp_path, capsys):
        path = self.write(tmp_path, "x1.json", self.x1_doc())
        assert main(["report", path, "--traces", "100",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["traces"]) == len(data["lefschetz_iterates"]) == 64

    def test_report_text_on_chords(self, tmp_path, capsys):
        cpath = str(tmp_path / "c.json")
        assert main(["gen-chords", "--n", "3", "--seed", "5",
                     "-o", cpath]) == 0
        capsys.readouterr()
        assert main(["report", cpath]) == 0
        assert "divide report" in capsys.readouterr().out

    def test_gamma_dot(self, tmp_path, capsys):
        path = self.write(tmp_path, "x1.json", self.x1_doc())
        out = str(tmp_path / "g.dot")
        assert main(["gamma", path, "--dot", out]) == 0
        text = open(out).read()
        assert text.startswith("graph gamma")

    def test_render_chords(self, tmp_path, capsys):
        cpath = str(tmp_path / "c.json")
        assert main(["gen-chords", "--n", "2", "--seed", "17",
                     "-o", cpath]) == 0
        out = str(tmp_path / "c.svg")
        assert main(["render", cpath, "--svg", out]) == 0
        assert "<svg" in open(out).read()

    def test_render_rejects_abstract_map(self, tmp_path, capsys):
        path = self.write(tmp_path, "x1.json", self.x1_doc())
        assert main(["render", path, "--svg", str(tmp_path / "x.svg")]) == 1
        assert "no geometry" in capsys.readouterr().err

    def test_gen_families(self, tmp_path, capsys):
        for family in ("zigzag", "coil"):
            out = str(tmp_path / f"{family}.json")
            assert main(["gen", "--family", family, "--k", "3",
                         "-o", out]) == 0
            capsys.readouterr()
            assert main(["validate", out]) == 0

    def test_gen_chords_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["gen-chords", "--n", "4", "--seed", "9", "-o", str(a)])
        main(["gen-chords", "--n", "4", "--seed", "9", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_corpus_cli(self, tmp_path, capsys):
        out = str(tmp_path / "rows.csv")
        assert main(["corpus", "--count", "10", "--n", "3", "--seed", "2",
                     "--csv", out]) == 0
        assert "discrepancies: none" in capsys.readouterr().out
        assert open(out).read().startswith(CSV_HEADER)

    def test_corpus_negative_count(self, capsys):
        assert main(["corpus", "--count", "-1", "--n", "5",
                     "--seed", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "count" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("count, n", [("-1", "5"), ("3", "0")])
    def test_rejected_corpus_keeps_csv(self, tmp_path, capsys, count, n):
        keep = tmp_path / "keep.csv"
        keep.write_bytes(b"kept,row\n")
        assert main(["corpus", "--count", count, "--n", n, "--seed", "1",
                     "--csv", str(keep)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert keep.read_bytes() == b"kept,row\n"

    def test_traces_cli(self, tmp_path, capsys):
        path = self.write(tmp_path, "x1.json", self.x1_doc())
        assert main(["traces", path, "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "k,tr_T_k,lefschetz_k,tr_M_k"
        out_file = str(tmp_path / "t.csv")
        assert main(["traces", path, "--k", "3", "--csv", out_file]) == 0
        assert open(out_file).read().splitlines()[1] == "1,1,0,0"
