"""Full per-divide reports and the bulk corpus verification runner."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import gcd

from .divide_map import DivideMap, need_int
from .generators import ChordSet, crossing_count, from_chords, gen_chords
from .seifert import FAIL, K_DEFAULT, PASS, TheoremReport, verify_theorem

LATTICE_GENUS_NOTE = (
    "(mu - r + 1)/2 computed from the lattice rank; no claim is made tying "
    "it to the fiber genus")


@dataclass(frozen=True, eq=False)
class DivideReport:
    """One divide's report: its name, the record of its chain and the
    traces Tr(T^k), k = 1..K, asked for.  Compare reports by their JSON."""
    source: str
    thm: TheoremReport
    traces: list[int]

    def to_json_dict(self) -> dict:
        """The report's schema, in order, with fresh lists and dicts."""
        thm, st, traces = self.thm, self.thm.stats, self.traces
        twice_genus = thm.mu - st.r + 1
        g = gcd(twice_genus, 2)          # the genus in lowest terms
        return {
            "source": self.source,
            "r": st.r,
            "delta": st.delta,
            "regions": st.region_count,
            "connected": st.connected,
            "cellular": st.cellular,
            "simple": st.simple,
            "mu": thm.mu,
            "e": thm.e,
            "f": thm.f,
            "chi_body": thm.chi_body,
            "slalom": thm.n_square_zero,                # N^2 == 0
            "lambda_formula": thm.lam,
            "lambda_trace": thm.lam_trace,
            "char_poly": list(thm.char_poly),           # constant term first
            "signature": thm.signature,
            "lattice_genus": [twice_genus // g, 2 // g],    # [num, den > 0]
            "traces": list(traces),
            "lefschetz_iterates": [1 - x for x in traces],
            "checks": dict(thm.checks),
            "findings": list(thm.findings),
            "lattice_genus_note": LATTICE_GENUS_NOTE,
        }


def build_report(m: DivideMap, source: str = "",
                 k: int = K_DEFAULT) -> DivideReport:
    """``verify_theorem`` plus the signature, with the traces of
    ``traces_to(k)``: every artifact of the JSON is built here."""
    thm = verify_theorem(m)
    thm.signature                   # built now, not on the JSON's read
    return DivideReport(source, thm, thm.traces_to(k))


def render_text(rep: DivideReport) -> str:
    def yn(b):
        return "yes" if b else "no"

    d = rep.to_json_dict()
    gnum, gden = d["lattice_genus"]
    genus = str(gnum) if gden == 1 else f"{gnum}/{gden}"
    lines = [
        f"divide report: {d['source']}",
        f"  branches r={d['r']}  double points delta={d['delta']}  "
        f"regions={d['regions']}",
        f"  connected={yn(d['connected'])}  cellular={yn(d['cellular'])}  "
        f"simple={yn(d['simple'])}  slalom(N^2=0)={yn(d['slalom'])}",
        f"  mu={d['mu']}  e={d['e']}  f={d['f']}  chi_body={d['chi_body']}",
        f"  lefschetz = {d['lambda_formula']}   "
        f"(trace route: {d['lambda_trace']})",
        f"  char_poly (constant first): {d['char_poly']}",
        f"  signature = {d['signature']}",
        f"  lattice genus = {genus}   {d['lattice_genus_note']}",
        f"  traces Tr(T^k), k=1..{len(d['traces'])}: {d['traces']}",
        f"  lefschetz iterates 1-Tr(T^k): {d['lefschetz_iterates']}",
        "  checks:",
    ]
    for name, status in d["checks"].items():
        lines.append(f"    {name}: {status}")
    if d["findings"]:
        lines.append("  findings:")
        for item in d["findings"]:
            lines.append(f"    {item}")
    else:
        lines.append("  findings: none")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# corpus runner
# ---------------------------------------------------------------------------

CSV_HEADER = ("seed,n,r,delta,regions,connected,cellular,simple,slalom,"
              "mu,e,f,chi_body,lambda,checks_passed,findings")


@dataclass
class CorpusSummary:
    count: int
    n: int
    seed: int
    connected: int = 0
    cellular: int = 0
    simple: int = 0
    slalom: int = 0
    checks_passed: int = 0
    checks_failed: int = 0
    discrepancies: list = field(default_factory=list)   # (seed, check name)
    findings: list = field(default_factory=list)        # (seed, text)
    wall_time: float = 0.0

    def ok(self) -> bool:
        return not self.discrepancies


def _corpus_checks(cs: ChordSet, thm, m) -> dict[str, str]:
    """The corpus-level hard checks on one chord instance: name -> grade."""
    # M = N + tN: Tr(M) = 2 sum_i N_ii, and Tr(M^2), the sum of M's squared
    # entries, is 2 Tr(tN N) since N has no diagonal.  Chord diagrams never
    # carry multi-edges, so Tr(M^2) = 2e
    tr_m = 2 * sum(row.get(i, 0) for i, row in enumerate(thm.n))
    tr_m2 = 2 * thm.flag_traces[0]
    graded = {
        "delta_matches_interleaving_oracle": m.delta == crossing_count(cs),
        # chord regions are convex, so connected chord divides are cellular
        "chord_connected_implies_cellular":
            thm.stats.cellular or not thm.stats.connected,
        "walk_trace_M_zero": tr_m == 0,
        "walk_handshake_2e": tr_m2 == 2 * thm.e,
    }
    return {name: PASS if ok else FAIL for name, ok in graded.items()}


def check_corpus_args(count: int, n: int, seed: int) -> None:
    need_int("corpus", "count", count, 0)
    need_int("corpus", "n", n, 1)
    need_int("corpus", "seed", seed, 0)


def run_corpus(count: int, n: int, seed: int, csv_out=None) -> CorpusSummary:
    """Generate `count` chord divides and verify every identity on each.

    Per-instance seeds are seed + i.  The multi-edge versus cellularity
    comparison lands in the findings channel and never fails the run; all
    other checks are hard.  Rows go to `csv_out` (a writable text stream)
    when given, in instance order.  Arguments that ``check_corpus_args``
    rejects raise DivideError before anything is written.
    """
    check_corpus_args(count, n, seed)
    t0 = time.perf_counter()
    summary = CorpusSummary(count=count, n=n, seed=seed)
    if csv_out is not None:
        csv_out.write(CSV_HEADER + "\n")
    for i in range(count):
        inst_seed = seed + i
        cs = gen_chords(n, inst_seed)
        m = from_chords(cs)
        thm = verify_theorem(m)

        # the theorem's grades, then the corpus-level hard checks
        checks = thm.checks | _corpus_checks(cs, thm, m)
        failed = [name for name, v in checks.items() if v == FAIL]
        passed = sum(v == PASS for v in checks.values())
        summary.checks_passed += passed
        summary.checks_failed += len(failed)
        for name in failed:
            summary.discrepancies.append((inst_seed, name))
        for item in thm.findings:
            summary.findings.append((inst_seed, item))

        st = thm.stats
        summary.connected += st.connected
        summary.cellular += st.cellular
        summary.simple += st.simple
        summary.slalom += thm.n_square_zero

        if csv_out is not None:
            row = [inst_seed, n, st.r, st.delta, st.region_count,
                   int(st.connected), int(st.cellular), int(st.simple),
                   int(thm.n_square_zero), thm.mu, thm.e, thm.f,
                   thm.chi_body, thm.lam,
                   passed, len(thm.findings)]
            csv_out.write(",".join(str(x) for x in row) + "\n")

    summary.wall_time = time.perf_counter() - t0
    return summary


def summary_text(s: CorpusSummary) -> str:
    lines = [
        f"corpus: {s.count} instances (n={s.n}, seed={s.seed}) "
        f"in {s.wall_time:.2f}s",
        f"  connected {s.connected}  cellular {s.cellular}  "
        f"simple {s.simple}  slalom {s.slalom}",
        f"  hard checks: {s.checks_passed} passed, {s.checks_failed} failed",
        f"  findings: {len(s.findings)}",
    ]
    if s.discrepancies:
        lines.append("  discrepancies:")
        for inst_seed, name in s.discrepancies[:50]:
            lines.append(f"    seed {inst_seed}: {name}")
    else:
        lines.append("  discrepancies: none")
    return "\n".join(lines) + "\n"
