#!/usr/bin/env python3
"""Survey the whole family over the feasible lattice n <= 4, N <= 6.

For every bouquet one report (certify.bouquet_report) gives the h-vector
by the closed form, cross-checked against the shelling route, and the
Gorenstein and almost Gorenstein flags, which are tabulated.  The boundary
is easy to see in the output: symmetric h-vectors stop after n = 2, and
almost Gorenstein survives for n >= 3 only on the all-triangle diagonal
N = n.

Run:  python demos/family_survey.py
"""

from oddbouquet.certify import bouquet_report, sweep_compositions


def main():
    comps = sweep_compositions(4, 6)
    header = f"{'k':<14}{'n':>3}{'N':>3}  {'h-vector':<24}{'type':>5}{'e~':>4}  {'Gor':<6}{'aGor':<6}"
    print(header)
    print("-" * len(header))
    ag = []
    for c in comps:
        report, _, matches = bouquet_report(c, ("formula", "complex"))
        assert report["methods_agree"] and matches
        kstr = ",".join(str(v) for v in c.k)
        hstr = ",".join(str(v) for v in report["h"])
        print(
            f"{kstr:<14}{c.n:>3}{c.N:>3}  {hstr:<24}{report['type']:>5}{report['e_tilde']:>4}  "
            f"{str(report['gorenstein']).lower():<6}{str(report['almost_gorenstein']).lower():<6}"
        )
        if report["almost_gorenstein"]:
            ag.append(c)
    print()
    print("almost Gorenstein members:", ", ".join("(" + ",".join(map(str, c.k)) + ")" for c in ag))
    print("exactly the bouquets with n <= 2 plus the all-triangle ones")


if __name__ == "__main__":
    main()
