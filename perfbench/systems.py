"""Generated system files for the scaling and orbit workloads.

Every generator is a pure function of its arguments: the family, the size,
the member kind and a variant index.  Variants of a scaling member differ
only in the rational constants of the translation, so every variant costs
about the same; the run seed chooses which variants a run uses, and the
frozen reference digests in ``references.json`` cover every variant.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

VARIANTS = 8
FILIFORM_SCALE = 60


def _q(value) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else str(value)


def _matrix(rows) -> list:
    return [[_q(v) for v in row] for row in rows]


def _identity(d: int) -> list:
    return [[int(i == j) for j in range(d)] for i in range(d)]


def _rng(*key) -> random.Random:
    return random.Random("/".join(str(k) for k in key))


def _small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(1, 8), rng.choice((2, 3, 4, 5, 7)))


def heisenberg(d: int, kind: str, variant: int) -> dict:
    """Heisenberg algebra h_d (d = 2n + 1) with [x_i, y_i] = z.

    The lattice halves z so that BCH products of lattice points stay in
    it.  The automorphism is a symplectic shear x_i -> x_i + sum_j B_ij y_j
    with B symmetric and integral.  The AA member translates along the
    fixed y_1 direction and z; the NOT_AA member translates along x_1,
    which the shear moves.
    """
    n = (d - 1) // 2
    rng = _rng("heisenberg", d, kind, variant)
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = 1 + i % 2
    for i in range(0, n - 1, 2):
        b[i][i + 1] = b[i + 1][i] = 1
    u = _identity(d)
    for i in range(n):
        for j in range(n):
            u[n + j][i] = b[i][j]          # column x_i gains B_ij y_j
    lattice = _identity(d)
    lattice[d - 1][d - 1] = Fraction(1, 2)
    translation = ["0"] * d
    if kind == "aa":
        translation[n] = f"t + {_q(_small_fraction(rng))}"
        translation[d - 1] = f"{_q(_small_fraction(rng))}*t"
    else:
        translation[0] = "t"
        translation[n] = _q(_small_fraction(rng))
    return {
        "name": f"heisenberg{d}_{kind}_{variant}",
        "dim": d,
        "params": ["t"],
        "structure_constants": [[i + 1, n + i + 1, d, "1"] for i in range(n)],
        "lattice_basis": _matrix(lattice),
        "automorphism": _matrix(u),
        "translation": translation,
    }


def jordan_torus(d: int, kind: str, variant: int) -> dict:
    """Abelian d-torus with a unipotent integer automorphism.

    The NOT_AA member uses the full Jordan block, whose (U - I)^2 is not
    zero, and translates along the last coordinate.  The AA member uses
    2 x 2 shear blocks, so (U - I)^2 = 0, and translates along the fixed
    first coordinate of each block.
    """
    rng = _rng("jordan", d, kind, variant)
    u = _identity(d)
    translation = ["0"] * d
    if kind == "aa":
        for i in range(0, d - 1, 2):
            u[i][i + 1] = 1
            translation[i] = f"{_q(_small_fraction(rng))}*t"
        translation[0] = f"t + {_q(_small_fraction(rng))}"
    else:
        for i in range(d - 1):
            u[i][i + 1] = 1
        translation[d - 1] = f"t + {_q(_small_fraction(rng))}"
        translation[0] = _q(_small_fraction(rng))
    return {
        "name": f"jordan{d}_{kind}_{variant}",
        "dim": d,
        "params": ["t"],
        "structure_constants": [],
        "automorphism": _matrix(u),
        "translation": translation,
    }


def filiform(c: int, kind: str, variant: int) -> dict:
    """Standard filiform algebra L_n of class c = n - 1: [e_1, e_i] = e_(i+1).

    The lattice scales e_k by 60^-(k-2) for k >= 3, enough to hold the
    BCH denominators up to class 6.  The AA member is a translation along
    the central e_n.  The NOT_AA member translates along e_2 and applies
    Ad(exp e_1), conjugation by a lattice element, which preserves the
    lattice.
    """
    n = c + 1
    rng = _rng("filiform", c, kind, variant)
    lattice = _identity(n)
    for k in range(2, n):
        lattice[k][k] = Fraction(1, FILIFORM_SCALE ** (k - 1))
    u = _identity(n)
    translation = ["0"] * n
    if kind == "aa":
        translation[n - 1] = f"t + {_q(_small_fraction(rng))}"
    else:
        translation[1] = f"t + {_q(_small_fraction(rng))}"
        translation[n - 1] = _q(_small_fraction(rng))
        for i in range(1, n):       # exp(ad e_1) e_i = sum_k e_(i+k) / k!
            for k in range(n - i):
                u[i + k][i] = Fraction(1, factorial(k))
    return {
        "name": f"filiform{c}_{kind}_{variant}",
        "dim": n,
        "params": ["t"],
        "structure_constants": [[1, i, i + 1, "1"] for i in range(2, n)],
        "lattice_basis": _matrix(lattice),
        "automorphism": _matrix(u),
        "translation": translation,
    }


# A prime period: every rotation number c/97 with c != 0 has period 97, so
# a map returns to its probe exactly 5 times within a horizon of 500.
PERIOD = 97
GRID = 4096     # the orbit oracle's snap grid


def orbit_map(kind: str, variant: int) -> dict:
    """A map the orbit oracle can simulate, with its simulate block.

    Every variant of a kind returns to its probe with the same period, so
    it finds the same number of forward returns and costs about the same:

    rotation    translation of the 2-torus by (a, b)/97: period 97.
    skew        (x1 + x2 + t, x2) with x2 + t = c/97: period 97.
    jordan      the 3 x 3 Jordan block, no translation, probe in
                (1/10)Z^3 with units mod 10: period 20.  The probe is
                off the snap grid, so the oracle falsifies the map.
    heisenberg  translation of the Heisenberg quotient by exp(t xi1) with
                t = 32/97 and 32 x2 in Z/2: period 97.  A fixed t keeps
                the number of wraps of x1, and so the cost, the same.

    eps stays below 1/97, so only the exact returns count.  The skew and
    Heisenberg probes sit on the snap grid, where the backward test is
    reliable (see the note in the corpus file torus_skew.json).
    """
    rng = _rng("orbit", kind, variant)
    period = Fraction(1, PERIOD)
    # odd numerators: every coordinate has the full denominator, so the
    # exact arithmetic costs the same in every variant
    grid = [Fraction(2 * rng.randrange(GRID // 2) + 1, GRID)
            for _ in range(3)]
    values: dict = {}
    sim = {"eps": 0.01, "seed": variant}
    system = {"name": f"orbit_{kind}_{variant}", "params": ["t"],
              "structure_constants": []}
    if kind == "rotation":
        values = {"t": rng.randrange(1, PERIOD) * period,
                  "s": rng.randrange(1, PERIOD) * period}
        system.update(dim=2, params=["t", "s"], translation=["t", "s"])
        probe = grid[:2]
    elif kind == "skew":
        values = {"t": rng.randrange(1, PERIOD) * period - grid[1]}
        system.update(dim=2, automorphism=[["1", "1"], ["0", "1"]],
                      translation=["t", "0"])
        probe = grid[:2]
    elif kind == "jordan":
        system.update(dim=3, params=[], translation=["0", "0", "0"],
                      automorphism=[["1", "1", "0"], ["0", "1", "1"],
                                    ["0", "0", "1"]])
        probe = [Fraction(rng.choice((1, 3, 7, 9)), 10) for _ in range(3)]
        sim["eps"] = 0.001
    elif kind == "heisenberg":
        c = 32
        values = {"t": c * period}
        system.update(dim=3, structure_constants=[[1, 2, 3, "1"]],
                      lattice_basis=[["1", "0", "0"], ["0", "1", "0"],
                                     ["0", "0", "1/2"]],
                      translation=["t", "0", "0"], space="Heisenberg3")
        probe = [grid[0], Fraction(2 * rng.randrange(c) + 1, 2 * c),
                 grid[2] / 2]
        sim["eps"] = 0.005
    else:
        raise ValueError(f"unknown orbit map kind {kind!r}")
    sim["values"] = {name: _q(v) for name, v in values.items()}
    sim["probe"] = [_q(v) for v in probe]
    system["simulate"] = sim
    return system
