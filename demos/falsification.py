"""Catching a non-example in the act.

A full Jordan block on the 3-torus is not almost automorphic: orbits
return close to where they started, but running those same return times
backwards from the visited point lands far from the start.  The orbit
oracle finds the discrepancy numerically; an irrational rotation run
through the identical procedure survives it.
"""

from nilaa import NumericAffine, aa_empirical_test, make_system, parse_system
from nilaa.cli import _numeric_map
from nilaa.io import corpus_file
from nilaa.nilalg import LieAlgebraSpec


def show(label, report):
    print(f"{label}: {report.verdict}")
    for note in report.notes:
        print(f"  {note}")
    w = report.witness
    if w is not None:
        print(f"  probe    {tuple(float(v) for v in w.probe)}")
        print(f"  target   {tuple(float(v) for v in w.target)}")
        print(f"  returns  {w.sequence}")
        print(f"  forward distance  {w.forward_distance:.3e} (small: the "
              f"orbit does come back)")
        print(f"  backward distance {w.backward_distance:.3e} (large: the "
              f"returns are not two-sided)")
    print()


def main():
    system = parse_system(corpus_file("torus_jordan3.json"))
    affine, probes, config = _numeric_map(system)
    report = aa_empirical_test(affine, trials=1, eps=config["eps"],
                               horizon=config["horizon"],
                               seed=config["seed"], probes=probes)
    show("jordan block on T^3", report)

    circle = make_system(LieAlgebraSpec(1, {}))
    rotation = NumericAffine(circle, [0.7548776662466927])
    report = aa_empirical_test(rotation, trials=3, eps=1e-3,
                               horizon=10 ** 5, seed=2)
    show("irrational rotation on T^1", report)

    print("the oracle is one-sided: Falsified is conclusive up to rounding,")
    print("ConsistentWithAA only reports that the search found nothing.")


if __name__ == "__main__":
    main()
