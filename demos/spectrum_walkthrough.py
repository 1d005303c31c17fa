"""Defect spectrum of a glued ladder, step by step.

The one-rung ladder has two parallel lanes tied together by a rung in every
window.  Gluing both ends to a single point turns infinite rays into usable
circuit material, and bases of the glued cycle system can then sit strictly
inside bases of the plain finite-cycle system.  The defect measures that gap.
"""

from matroidlab.cycles import defect, glue_all, mk_spectrum, spectrum_search
from matroidlab.periodic import full_edge_set, ladder_family

g = ladder_family(1)
print("lanes per window:", g.repeat_vertices)
print("declared ends:   ", g.ends)

# the whole edge set is connected and full of rays, but has no finite cycle
full = full_edge_set(g)
print("full set defect: ", defect(g, full))

# sweep all candidate bases that are explicit on two windows, then periodic
glue = glue_all(g)
rep = spectrum_search(g, glue, profile=(2, 1))
print("\ndefect spectrum under the all-ends gluing:", list(rep.values))
print("search profile:", rep.bounds)

for value in rep.values:
    base, fin = rep.witnesses[value]["base"], rep.witnesses[value]["fin_base"]
    print(f"\nwitness base with defect {value}:")
    print("  edges:", base.to_obj())
    print("  recomputed defect:", defect(g, base))
    if fin is not None:
        print("  finite-cycle completion:", fin.to_obj())

# deleting k edges from the graph shifts every achievable defect up by k
for k in (1, 2):
    shifted = mk_spectrum(g, glue, k=k, profile=(2, 1))
    print(f"\nspectrum after removing {k} edge(s):", list(shifted.values))

# wider ladders stack the picture: one independent rung pair per column
for n in (2, 3):
    wide = ladder_family(n)
    rep = spectrum_search(wide, glue_all(wide), profile=(2, 1))
    print(f"{n}-rung ladder spectrum:", list(rep.values))
