"""Byte-identity of reports, walk tables, diagrams and corpus rows.

``goldens/outputs.json`` holds sha256 digests of the outputs below, and the
full CSV of ``run_corpus(50, 5, 7)``, recorded before the chain was folded
into one ``verify_theorem`` pass.  The ``render_svg`` digests of chord
pictures were recorded before the integer chord geometry replaced the
``Fraction`` one.  The ``gamma_dot`` digests were recorded while the diagram
still kept a record per vertex and the provenance of each edge, and the
``map_document`` digests while the map still stored each edge as a pair of
(vertex, slot) ends.  A change that means to alter an output must say why
and re-record the file with ``record()``.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from divides import (
    TheoremReport, build_gamma, build_report, coil, compute_faces, fixtures,
    from_chords, gamma_to_dot, gen_chords, render_text, run_corpus,
    walk_table, zigzag,
)
from divides.render import render_chords_svg

GOLDENS = Path(__file__).resolve().parent / "goldens" / "outputs.json"


def instances():
    items = list(fixtures().items())
    items += [(f"zigzag({n})", zigzag(n)) for n in range(1, 5)]
    items += [(f"coil({k})", coil(k)) for k in range(1, 4)]
    items += [(f"chords({n},{s})", from_chords(gen_chords(n, s)))
              for n in range(5, 9) for s in range(100, 105)]
    return items


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_json(m, name, **kw) -> str:
    return json.dumps(build_report(m, source=name, **kw).to_json_dict(),
                      indent=2)


OUTPUTS = {
    "report_json": lambda m, name: report_json(m, name),
    "report_text": lambda m, name: render_text(build_report(m, source=name)),
    "report_json_k3": lambda m, name: report_json(m, name, k=3),
    "report_json_k20": lambda m, name: report_json(m, name, k=20),
    "walk_table_k12": lambda m, name:
        walk_table(TheoremReport(m), 12).to_csv(),
    "gamma_dot": lambda m, name:
        gamma_to_dot(build_gamma(m, compute_faces(m))),
    "map_document": lambda m, name: json.dumps(m.to_document()),
}


# the chord sets of instances(), plus the picture the demos draw
SVG_CHORDS = [(n, s) for n in range(5, 9) for s in range(100, 105)] + [(6, 12)]


def svg_digests() -> dict:
    return {f"chords({n},{s})": sha(render_chords_svg(gen_chords(n, s)))
            for n, s in SVG_CHORDS}


def corpus_csv() -> str:
    buf = io.StringIO()
    run_corpus(50, 5, 7, csv_out=buf)
    return buf.getvalue()


def record() -> dict:
    out = {kind: {name: sha(fn(m, name)) for name, m in instances()}
           for kind, fn in OUTPUTS.items()}
    out["render_svg"] = svg_digests()
    out["corpus_50_5_7_csv"] = corpus_csv()
    return out


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("kind", sorted(OUTPUTS))
def test_outputs_byte_identical(goldens, kind):
    got = {name: sha(OUTPUTS[kind](m, name)) for name, m in instances()}
    assert got == goldens[kind]


def test_svg_byte_identical(goldens):
    assert svg_digests() == goldens["render_svg"]


def test_corpus_csv_byte_identical(goldens):
    assert corpus_csv() == goldens["corpus_50_5_7_csv"]


if __name__ == "__main__":
    # re-record: PYTHONPATH=src python tests/test_goldens.py
    GOLDENS.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
