"""Which elements can be inverted at all?  Profiles and the radical.

For each two-sided ideal a, the pullback of the units of R/a is the
only candidate for a saturated denominator set with annihilator a.
Collecting the candidates that pass the denominator test gives every
saturated denominator set of the ring; the maximal ones among them
classify the maximal localizations.
"""

from orelab import (
    construct,
    localization_profile,
    saturated_denominator_sets,
)


def show(spec):
    ring = construct(spec)
    prof = localization_profile(ring)
    print(f"== {spec} (order {ring.order})")
    fam = saturated_denominator_sets(ring)
    print(f"saturated family: {len(fam)} sets")
    for a, s, fr in zip(prof.maximal_ass, prof.maximal, prof.localizations):
        print(f"  maximal set {sorted(s)}  ass {sorted(a)}  "
              f"localization order {fr.ring.order}")
    print(f"localizable elements: {sorted(prof.localizable)}")
    print(f"completely localizable: {sorted(prof.completely_localizable)}")
    print(f"non-localizable: {sorted(prof.non_localizable)}")
    print(f"localization radical: {sorted(prof.radical)}")
    print(f"left localizable: {prof.verdict.localizable}")
    for route in prof.verdict.routes:
        print(f"  {route.name}: {route.value}")
    print()


def main():
    # a localizable ring: every nonzero element sits in a denominator set
    show("zmod(6)")

    # not localizable: 2 is nilpotent, nothing can invert around it
    show("zmod(4)")

    # the radical can be large: T_2(F_2) loses its whole top row
    show("upper_triangular(gf(2),2)")


if __name__ == "__main__":
    main()
