"""Traces of monodromy iterates next to closed-walk counts on the diagram.

Since N^3 = 0, the monodromy traces should be governed by the walk
structure of the diagram; what the exact relation is remains open.  The
table pairs the two columns so the data can be eyeballed or exported.
"""

from divides import TheoremReport, fixture, walk_table, zigzag

for name, m in [("LOOP", fixture("LOOP")), ("LENS", fixture("LENS")),
                ("zigzag(3)", zigzag(3)), ("FIG2A", fixture("FIG2A"))]:
    print(f"== {name} ==")
    print(walk_table(TheoremReport(m), 10).to_csv(), end="")
    print()
