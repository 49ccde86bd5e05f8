"""Trading the automorphism for one extra dimension.

Any affine map with unipotent linear part embeds as a pure translation on
a one-dimension-larger nilmanifold: adjoin a circle direction delta whose
bracket action is log U, and translate by delta composed with the old
affine data.  This walk-through builds that suspension for a skew product
on the 2-torus and confirms the two routes compute the same dynamics.
"""

from nilaa import (basepoint_decide, corpus_file, full_decide, parse_system,
                   suspend, suspended_basepoint_decide, suspended_full_decide)
from nilaa.suspension import (embedding_consistency_check,
                              monodromy_adjoint_check)


def main():
    system = parse_system(corpus_file("torus_skew_translation.json"))
    print(f"base system: {system.name} (dim {system.dim})")
    susp = suspend(system)
    print(f"suspension dimension: {susp.dim}")
    print(f"monodromy D = log U: "
          f"{[[str(v) for v in row] for row in susp.monodromy.entries]}")
    print(f"embedded translation w: "
          f"{[str(p) for p in susp.embedded_translation.entries]}")
    print()

    print("structure constants of the suspended algebra (delta is xi1):")
    spec = susp.big_algebra
    for i in range(spec.dim):
        for j in range(i + 1, spec.dim):
            v = spec.structure_vector(i, j)
            if any(v):
                print(f"  [xi{i + 1}, xi{j + 1}] = "
                      f"{tuple(str(x) for x in v)}")
    print()

    print(f"adjoint of exp(delta) reproduces U: "
          f"{monodromy_adjoint_check(susp)}")
    print(f"50 sampled points agree along both routes: "
          f"{embedding_consistency_check(susp, samples=50)}")
    print()

    pairs = [("full", full_decide, suspended_full_decide),
             ("basepoint", basepoint_decide, suspended_basepoint_decide)]
    for label, downstairs, upstairs in pairs:
        d = downstairs(system).status
        u = upstairs(system).status
        print(f"{label}: downstairs {d}, through the suspension {u}")


if __name__ == "__main__":
    main()
