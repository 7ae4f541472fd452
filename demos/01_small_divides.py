"""Tour of the smallest divides: one crossing, one curl, one lens.

Walks the whole pipeline by hand: parse the map, trace faces, classify,
build the diagram, and read off the exact invariants.  N and T print as
the library holds them, as sparse rows: row i maps each column j of a
nonzero entry to that entry.
"""

from divides import (
    build_gamma, char_poly, classify, compute_faces, counts, fixture,
    lefschetz_number, matrix_N, monodromy_matrix, signature, trace_powers,
)

for name in ("X1", "LOOP", "LENS"):
    m = fixture(name)
    faces = compute_faces(m)
    stats = classify(m, faces)
    gamma = build_gamma(m, faces)
    cnt = counts(gamma)
    n = matrix_N(gamma)
    t = monodromy_matrix(n)

    print(f"== {name} ==")
    print(f"  branches: {stats.r}, double points: {stats.delta}, "
          f"regions: {stats.region_count}")
    print(f"  connected={stats.connected} cellular={stats.cellular} "
          f"simple={stats.simple}")
    print(f"  inside-disk faces: {len(faces.signs)} "
          f"({faces.region_count()} regions)")
    print(f"  diagram: mu={cnt.mu} e={cnt.e} f={cnt.f}")
    print(f"  N = {n}")
    print(f"  T = {t}")
    print(f"  lefschetz number: {lefschetz_number(n)}")
    print(f"  char poly (constant first): {char_poly(t)}")
    print(f"  signature of symmetrized Seifert form: {signature(n)}")
    print(f"  Tr(T^k), k=1..6: {trace_powers(t, 6)}")
    print()

print("The curl's monodromy has order six: Tr(T^6) equals mu, and the")
print("sixth power itself is the identity, matching the char poly x^2-x+1.")
