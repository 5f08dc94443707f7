#!/usr/bin/env python3
"""Survey the whole family over the feasible lattice n <= 4, N <= 6.

For every bouquet the h-vector is computed by the closed form and
cross-checked against the shelling route, then the Gorenstein and almost
Gorenstein flags are tabulated.  The boundary is easy to see in the
output: symmetric h-vectors stop after n = 2, and almost Gorenstein
survives for n >= 3 only on the all-triangle diagonal N = n.

Run:  python demos/family_survey.py
"""

from oddbouquet import classify, h_by_complex, h_closed_form
from oddbouquet.cli import sweep_compositions


def main():
    comps = sweep_compositions(4, 6)
    header = f"{'k':<14}{'n':>3}{'N':>3}  {'h-vector':<24}{'type':>5}{'e~':>4}  {'Gor':<6}{'aGor':<6}"
    print(header)
    print("-" * len(header))
    for c in comps:
        h = h_closed_form(c)
        assert h == h_by_complex(c)
        rep = classify(c)
        kstr = ",".join(str(v) for v in c.k)
        hstr = ",".join(str(v) for v in h.coeffs)
        print(
            f"{kstr:<14}{c.n:>3}{c.N:>3}  {hstr:<24}{rep.cm_type:>5}{rep.e_tilde:>4}  "
            f"{str(rep.is_gorenstein).lower():<6}{str(rep.is_almost_gorenstein).lower():<6}"
        )
    print()
    ag = [c for c in comps if classify(c).is_almost_gorenstein]
    print("almost Gorenstein members:", ", ".join("(" + ",".join(map(str, c.k)) + ")" for c in ag))
    print("exactly the bouquets with n <= 2 plus the all-triangle ones")


if __name__ == "__main__":
    main()
