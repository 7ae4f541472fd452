"""The three workloads: inputs made from a seed, one op, and its check.

Each workload is a closed loop with one client: op ``i`` runs on input
``i % cycle``, and the next op starts when the previous one returns.  The
program receives only the generated inputs.

Every op is checked.  Hard checks and invariants hold for any seed.  For
a seed with recorded goldens (``goldens/<workload>.json``, recorded from a
commit whose outputs are known good) the op's output must equal the
golden; for any other seed it must equal the output of the first op on the
same input in the run.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_goldens(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


class Workload:
    """Inputs for one seed, the op on input ``key``, and the op's check."""

    name = ""
    cycle = 1           # distinct inputs; op i runs on input i % cycle
    warm_up_ops = 1

    def __init__(self, dv, seed: int, goldens: dict):
        self.dv = dv                    # the imported divides package
        self.seed = seed
        recorded = goldens.get("seeds", {}).get(str(seed))
        self.expected = recorded["outputs"] if recorded else None
        self.first_seen: dict[int, object] = {}

    def op(self, key: int):
        raise NotImplementedError

    def digest(self, out):
        """The part of an op's output that goldens record."""
        raise NotImplementedError

    def problem(self, key: int, out) -> str | None:
        """A hard check or invariant the output breaks, if any."""
        raise NotImplementedError

    def sizes(self, out) -> tuple[int, int]:
        """(mu, delta) of the divide the op worked on."""
        raise NotImplementedError

    def check(self, key: int, out) -> str | None:
        """None if the op's output is correct, else what is wrong."""
        bad = self.problem(key, out)
        if bad:
            return bad
        got = self.digest(out)
        if self.expected is not None:
            if got != self.expected[key]:
                return f"output differs from golden for seed {self.seed}"
        elif got != self.first_seen.setdefault(key, got):
            return "output differs from an earlier op on the same input"
        return None


class Corpus(Workload):
    """``divide corpus --n 5``: one op is one instance, generation included."""

    name = "corpus"
    cycle = 1000        # instances per cycle, as in `divide corpus --count 1000`
    warm_up_ops = 20
    n_chords = 5

    def __init__(self, dv, seed, goldens):
        super().__init__(dv, seed, goldens)
        self.base = seed * 1_000_000

    def op(self, key):
        buf = io.StringIO()
        summary = self.dv.run_corpus(1, self.n_chords, self.base + key,
                                     csv_out=buf)
        return buf.getvalue(), summary.ok()

    def digest(self, out):
        return out[0].split("\n")[1]        # the instance's CSV row

    def problem(self, key, out):
        if not out[1]:
            return "corpus hard check failed"
        row = self.digest(out).split(",")
        if row[:2] != [str(self.base + key), str(self.n_chords)]:
            return "CSV row names another instance"
        cellular, simple = row[6] == "1", row[7] == "1"
        mu, e, f, lam = (int(x) for x in row[9:12] + row[13:14])
        if simple and cellular and (lam != 0 or mu - e + f != 1):
            return "simple cellular divide with nonzero Lefschetz number"
        return None

    def sizes(self, out):
        row = self.digest(out).split(",")
        return int(row[9]), int(row[3])


GRID = 10_000       # gen_chords' parameter grid: u / (GRID - |u|)


def _param(u: int):
    """A grid parameter in divide-chords/1 form; u = GRID is the point (-1, 0)."""
    if u == GRID:
        return "inf"
    t = Fraction(u, GRID - abs(u))
    return [t.numerator, t.denominator]


def chord_mu(us: list[int]) -> int:
    """mu of the chord divide whose chord i joins grid points us[2i], us[2i+1].

    With delta crossings and c components of the crossing graph, the n
    chords cut the disk into 1 + n + delta faces, 2n - c + 1 of them on
    the boundary, so mu = delta + regions = 2 delta - n + c.
    """
    n = len(us) // 2
    # the circular order puts u = GRID (parameter infinity) first
    keys = [-GRID - 1 if u == GRID else u for u in us]
    chords = [sorted(keys[2 * i:2 * i + 2]) for i in range(n)]
    comp = list(range(n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    delta = 0
    for i, (a1, a2) in enumerate(chords):
        for j in range(i + 1, n):
            b1, b2 = chords[j]
            if (a1 < b1 < a2) != (a1 < b2 < a2):
                delta += 1
                comp[find(i)] = find(j)
    c = len({find(i) for i in range(n)})
    return 2 * delta - n + c


class ChordReport(Workload):
    """``divide report --format json`` on chord documents, in process."""

    name = "chord_report"
    n_chords = 12
    # mu of the documents: the (j + 1/2)/25 quantiles, j = 0..24, of mu over
    # 60000 random 12-chord sets on gen_chords' grid.  With 25 documents the
    # p50 and p90 of a whole-cycle run fall in the middle of one document's
    # latencies, not between two.
    mu_ladder = (12, 16, 19, 21, 22, 24, 25, 27, 28, 30, 31, 32, 33, 35, 36,
                 37, 39, 40, 42, 44, 46, 48, 51, 55, 63)
    cycle = len(mu_ladder)
    # The documents are one fixed sample, the same for every seed: at a
    # fixed mu the cost of a report varies by up to 2x between chord sets,
    # and by up to 15% between orders of one set's chords, so documents
    # drawn or relabelled per seed would give runs of different seeds
    # different work, and the p50 would be another document's latency.
    # The seed orders the documents in the cycle; the smallest stays first,
    # as the warm-up op, so that set-up does the same work for every seed.
    sample_seed = 0

    def __init__(self, dv, seed, goldens):
        super().__init__(dv, seed, goldens)
        sample = random.Random(self.sample_seed)
        docs = [self._document(sample, mu) for mu in self.mu_ladder]
        order = list(range(1, self.cycle))
        random.Random(seed).shuffle(order)
        order.insert(0, 0)
        self.docs = [docs[i] for i in order]
        self.mus = [self.mu_ladder[i] for i in order]

    def _document(self, rng, mu) -> dict:
        """The first sampled chord set with the wanted mu in general position."""
        while True:
            us = [rng.randint(-GRID + 1, GRID) for _ in range(2 * self.n_chords)]
            if len(set(us)) != len(us) or chord_mu(us) != mu:
                continue
            doc = {"format": "divide-chords/1",
                   "chords": [{"s": _param(us[2 * i]), "t": _param(us[2 * i + 1])}
                              for i in range(self.n_chords)]}
            try:
                self.dv.chords_from_document(doc)
            except self.dv.DivideError:     # three chords concurrent
                continue
            return doc

    def op(self, key):
        dv = self.dv
        cs = dv.chords_from_document(self.docs[key])
        rep = dv.build_report(dv.from_chords(cs), source=f"chords{key:02d}.json")
        d = rep.to_json_dict()
        return json.dumps(d, indent=2), d

    def digest(self, out):
        return sha256(out[0])

    def problem(self, key, out):
        d = out[1]
        failed = [k for k, v in d["checks"].items() if v not in ("pass", "n/a")]
        if failed:
            return f"report checks failed: {', '.join(failed)}"
        if d["mu"] != self.mus[key]:
            return f"mu {d['mu']}, expected {self.mus[key]}"
        if d["lambda_formula"] != d["lambda_trace"]:
            return "Lefschetz routes disagree"
        if d["simple"] and d["cellular"] and d["lambda_formula"] != 0:
            return "simple cellular divide with nonzero Lefschetz number"
        return None

    def sizes(self, out):
        return out[1]["mu"], out[1]["delta"]


class FamilyScale(Workload):
    """The diagram stage on zigzag(1000) and coil(1000), alternating.

    ``divide validate`` plus ``divide gamma`` plus the structural half of
    ``verify_theorem``; the dense algebra cannot run at mu of about 2000.
    The seed shuffles the crossing and edge order of each document, which
    renumbers the diagram but leaves its invariants alone.
    """

    name = "family_scale"
    families = ("zigzag", "coil")
    k = 1000
    cycle = len(families)
    warm_up_ops = 2

    def __init__(self, dv, seed, goldens):
        super().__init__(dv, seed, goldens)
        rng = random.Random(seed)
        self.docs = []
        for family in self.families:
            doc = getattr(dv, family)(self.k).to_document()
            rng.shuffle(doc["crossings"])
            rng.shuffle(doc["edges"])
            self.docs.append(doc)
        self.invariants = goldens.get("invariants")

    def op(self, key):
        dv = self.dv
        m = dv.map_from_document(self.docs[key])
        faces = dv.compute_faces(m)
        st = dv.classify(m, faces)
        gamma = dv.build_gamma(m, faces)
        cnt = dv.counts(gamma)
        chi = dv.body_euler(m, faces)
        missing_flags = dv.check_flag_edges(gamma)
        dot = dv.gamma_to_dot(gamma)
        return ([cnt.mu, cnt.e, cnt.f, chi, st.connected, st.cellular,
                 st.simple, len(missing_flags)], st.delta, dot)

    def digest(self, out):
        return out[0] + [sha256(out[2])]

    def problem(self, key, out):
        inv, delta, dot = out
        if delta != self.k:
            return f"delta {delta}, expected {self.k}"
        if self.invariants is not None and inv != self.invariants[key]:
            return (f"(mu, e, f, chi_body, connected, cellular, simple, "
                    f"missing flags) = {inv}, golden {self.invariants[key]}")
        mu, e = inv[0], inv[1]
        if dot.count("\n") != mu + e + 3:
            return "DOT output does not have one line per vertex and edge"
        return None

    def sizes(self, out):
        return out[0][0], out[1]


WORKLOADS = {cls.name: cls for cls in (Corpus, ChordReport, FamilyScale)}
