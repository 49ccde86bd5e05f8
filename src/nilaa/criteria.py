"""Decision procedures for almost automorphy of affine nilmanifold maps.

The objects here decide whether the affine map exp(x) -> exp(a) U(exp x) on
N / exp(Lambda) is almost automorphic, either as an action (every point) or
at the base point, and run the related structural analyses: the necessary
Lie-algebra condition, minimality of translations, quasi-unipotence of
integer matrices, and the two-generator coefficient computation.

All decisions are exact.  The key object is the defect map

    c(X) = log( exp(X)^{-1} exp(a) U(exp X) ),

a vector of polynomials in the symbolic point coordinates X1..Xd and the
translation parameters.  Because the parameters are algebraically
independent, the rational span of the per-monomial coefficient vectors of c
equals the rational span of its values, and the action is almost automorphic
exactly when that span is abelian, is fixed by U in every nonconstant
direction, and has its constant direction fixed after a correction by some
central lattice vector (changing the representative a |-> a * gamma with
gamma central in the lattice does not change the map on the quotient).

Verdicts carry certificates: a witness subspace in the positive case, and in
the negative case the lexicographically first failing bracket pair, the
first non-fixed direction, or the failed lattice-coset membership.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ._record import record
from .lattice import LogLattice, _central_lattice, preserves_lattice, \
    validate_lattice
from .nilalg import JacobiViolation, LieAlgebraSpec, NotNilpotent, \
    derived_subalgebra, is_abelian_family, is_automorphism, is_ideal
from .nilgrp import NilpotentGroup
from .poly import ParamVector, Poly, _monomial_str
from .ratlin import NotUnipotent, QMatrix, QSubspace, _column_qmatrix, _int_vector, \
    annihilator_basis, charpoly, cyclotomic_spectrum_test, hnf_membership, integer_kernel, \
    kernel_basis, matrix_exp_nilpotent, matrix_log_unipotent, minimal_rational_subspace, \
    solve_linear, to_fraction, unipotency_index, zspan_basis

AA = "AA"
NOT_AA = "NOT_AA"
PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"
MINIMAL = "Minimal"
NOT_MINIMAL = "NotMinimal"

SCOPE_NOTE = ("witness search is restricted to connected subgroups; "
              "a disconnected witness is not ruled out")


# ---- errors ----

class InapplicableCriterion(ValueError):
    """The requested criterion does not apply to this system."""


class HypothesisViolated(ValueError):
    """A structural hypothesis of the analysis fails for this system."""

    def __init__(self, which: str):
        super().__init__(f"hypothesis violated: {which}")
        self.which = which


class ValidationError(ValueError):
    """A system failed one of its construction-time validations."""

    def __init__(self, check: str, witness):
        super().__init__(f"{check} failed: {witness}")
        self.check = check
        self.witness = witness
        self.notes: tuple[str, ...] = ()  # the system's notes, set by io


# ---- certificates ----

@record
class WitnessSubspace:
    """Abelian fixed witness; shift is the central lattice correction used."""

    subspace: QSubspace
    shift: tuple[Fraction, ...] | None = None


@record
class ObstructionBracket:
    """Two defect directions that do not commute (primitive integer form)."""

    left: tuple[Fraction, ...]
    right: tuple[Fraction, ...]
    bracket: tuple[Fraction, ...]


@record
class NotFixed:
    """A defect direction moved by the automorphism."""

    vector: tuple[Fraction, ...]
    image: tuple[Fraction, ...]
    monomial: str | None = None


@record
class CosetObstruction:
    """The required translate does not lie in the available lattice image."""

    vector: ParamVector
    generators: tuple[tuple[Fraction, ...], ...]


@record
class SpectralObstruction:
    """Non-cyclotomic factor of the characteristic polynomial (low first)."""

    factor: tuple[Fraction, ...]


@record
class UnipotentPower:
    """Least r >= 1 for which the r-th power of the matrix is unipotent."""

    power: int


@record
class InvariantSubtorus:
    """Primitive integer covectors on the abelianized torus killed by the
    nonconstant part of the translation; each one cuts out a proper closed
    invariant union of subtori."""

    covectors: tuple[tuple[int, ...], ...]


@record
class Verdict:
    status: str
    criterion: str
    certificate: object | None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.status == AA and not isinstance(self.certificate, WitnessSubspace):
            raise ValueError("an AA verdict must carry a witness subspace")
        if self.status == NOT_AA and self.certificate is None:
            raise ValueError("a NOT_AA verdict must carry an obstruction")


# ---- systems ----

@record(eq=False)
class AffineSystem:
    """A validated affine map on a nilmanifold.

    The map is exp(x) |-> exp(a) U(exp x) on N / exp(Lambda), where the
    algebra of N is `algebra`, Lambda is spanned by the columns of the
    lattice basis, U is the automorphism matrix and a = `translation` is the
    log of the translating element (entries may be polynomials in named
    parameters, understood as algebraically independent reals).
    `lattice_automorphism` is U in lattice coordinates, U_L = L^-1 U L,
    integral with determinant +-1 (make_system computes it once).
    """

    algebra: LieAlgebraSpec
    group: NilpotentGroup
    lattice: LogLattice
    automorphism: QMatrix
    lattice_automorphism: QMatrix
    translation: ParamVector
    name: str = ""
    designated_generators: tuple[tuple[Fraction, ...], ...] | None = None
    description: str = ""
    notes: tuple[str, ...] = ()
    simulate: dict | None = None

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def is_translation(self) -> bool:
        return self.automorphism == QMatrix.identity(self.dim)


def make_system(algebra: LieAlgebraSpec, *, lattice=None, automorphism=None,
                translation=None, name: str = "",
                designated_generators=None, description: str = "",
                notes: Sequence[str] = (), simulate: dict | None = None
                ) -> AffineSystem:
    """Validate and assemble an affine system.

    Runs, in order: algebra validation (Jacobi, nilpotency), lattice closure
    under the group law, the automorphism property of the matrix, and
    preservation of the lattice, whose U_L = L^-1 U L the system keeps as
    lattice_automorphism.  The first failure raises ValidationError
    naming the check.  A valid algebra of class above the BCH cap is out
    of scope, not invalid: its nilgrp.ClassCapExceeded passes through.
    The bracket checks walk the nonzero structure constants only.  On an
    abelian algebra two facts hold by structure and cost nothing: every
    additive lattice is closed (the law is a sum) and every matrix of the
    right shape is an automorphism, so there the lattice check alone can
    reject the matrix.
    """
    d = algebra.dim
    try:
        group = NilpotentGroup(algebra)
    except (JacobiViolation, NotNilpotent) as exc:
        raise ValidationError("validate_algebra", exc) from exc

    if lattice is None:
        lattice = QMatrix.identity(d)
    try:
        if isinstance(lattice, QMatrix):
            lattice = LogLattice(lattice)
        validate_lattice(group, lattice)
    except ValueError as exc:  # singular basis, wrong size or not closed
        raise ValidationError("validate_lattice", exc) from exc

    if automorphism is None:
        automorphism = QMatrix.identity(d)
    ok, pair, residual = is_automorphism(algebra, automorphism)
    if not ok:
        raise ValidationError("is_automorphism",
                              (tuple(pair), tuple(residual)))
    ok, reason, lattice_automorphism = preserves_lattice(automorphism, lattice)
    if not ok:
        raise ValidationError("preserves_lattice", reason)

    if translation is None:
        translation = ParamVector.from_rationals([0] * d)
    elif not isinstance(translation, ParamVector):
        translation = ParamVector.from_rationals(translation)
    if translation.dim != d:
        raise ValidationError("translation", f"length {translation.dim} != dim {d}")

    gens = None
    if designated_generators is not None:
        gens = tuple(tuple(map(to_fraction, g)) for g in designated_generators)
    return AffineSystem(algebra, group, lattice, automorphism,
                        lattice_automorphism, translation, name=name,
                        designated_generators=gens,
                        description=description, notes=tuple(notes),
                        simulate=simulate)


# ---- shared helpers ----

def _primitive(vec: Sequence[object]) -> tuple[Fraction, ...]:
    """Scale a rational vector to primitive integer form, first entry > 0."""
    _, terms = _int_vector(vec)
    g = math.gcd(*(x for _, x in terms)) or 1
    if terms and terms[0][1] < 0:
        g = -g
    ints = dict(terms)
    return tuple(Fraction(ints.get(i, 0) // g) for i in range(len(vec)))


def _obstruction_from_pair(spec: LieAlgebraSpec, left, right) -> ObstructionBracket:
    lp, rp = _primitive(left), _primitive(right)
    return ObstructionBracket(lp, rp, tuple(spec.bracket_vec(lp, rp)))


# ---- the general decider ----

def _coset_shift(UI: QMatrix, X: QMatrix, b: Sequence) -> tuple[tuple | None, QMatrix]:
    """The coset step of `full` (X = L N, the central lattice) and `torus`
    (X = L): the lattice vector X c with (U - I) X c = -b, or None; and
    (U - I) X, whose columns a CosetObstruction lists.

    The shifts form a coset s + K of K = X ker((U - I) X), the integer
    kernel, which depends on the lattice only; s is reduced modulo the
    Hermite basis of K, so each of its pivot coordinates lies in [0,
    pivot), and the shift does not depend on how the lattice is listed.
    """
    images = UI @ X
    member, coords = hnf_membership(images, [-x for x in b])
    if not member:
        return None, images
    shift = X.matvec(coords)
    kernel = integer_kernel(images) if any(shift) else []  # 0 is reduced already
    if kernel:
        # each column's first nonzero entry is its pivot, above the next one's
        for col in zspan_basis(X @ _column_qmatrix(X.ncols, 1, kernel)).columns():
            i, pivot = next((i, x) for i, x in enumerate(col) if x)
            q = shift[i] // pivot
            shift = tuple(s - q * x for s, x in zip(shift, col))
    return shift, images


def _affine_decide(group: NilpotentGroup, lattice: LogLattice | None,
                   automorphism: QMatrix, translation: ParamVector,
                   criterion: str, extra_notes: tuple[str, ...] = ()
                   ) -> Verdict:
    """Core of full_decide, shared with the suspension-side deciders.

    The defect span is eliminated once; unless the constant direction is
    shifted, its basis is also the witness.  The lattice is read only when
    U moves the constant direction, which the suspension side's identity
    never does.
    """
    spec = group.spec
    d = spec.dim
    if unipotency_index(automorphism) is None:
        raise NotUnipotent("the automorphism is not unipotent")

    c = group.defect_map(translation, automorphism)
    coeffs = c.coefficient_vectors()
    order = list(reversed(c.monomials()))
    vectors = [coeffs[m] for m in order]
    zero_mono = tuple(0 for _ in c.params)

    span = QSubspace.from_spanning(vectors, d)
    if not is_abelian_family(spec, span.basis)[0]:
        i, j = is_abelian_family(spec, vectors)[1]
        cert = _obstruction_from_pair(spec, vectors[i], vectors[j])
        return Verdict(NOT_AA, criterion, cert, extra_notes + (SCOPE_NOTE,))

    shift = None
    for idx, (m, v) in enumerate(zip(order, vectors)):
        image = tuple(x - y for x, y in zip(automorphism.matvec(v), v))
        if not any(image):
            continue
        if m != zero_mono:
            cert = NotFixed(tuple(v), image, _monomial_str(m, c.params))
            return Verdict(NOT_AA, criterion, cert, extra_notes + (SCOPE_NOTE,))
        # the constant direction may be corrected by a central lattice vector
        shift, images = _coset_shift(automorphism - QMatrix.identity(d),
                                     _central_lattice(spec, lattice), image)
        if shift is None:
            cert = CosetObstruction(ParamVector.from_rationals(image),
                                    tuple(images.columns()))
            return Verdict(NOT_AA, criterion, cert, extra_notes + (SCOPE_NOTE,))
        vectors[idx] = tuple(x + s for x, s in zip(v, shift))

    if shift is not None:
        span = QSubspace.from_spanning(vectors, d)
    return Verdict(AA, criterion, WitnessSubspace(span, shift), extra_notes)


def full_decide(system: AffineSystem) -> Verdict:
    """Is the affine map almost automorphic as an action (at every point)?

    AA exactly when the defect coefficient span is abelian, every nonconstant
    coefficient direction is fixed by the automorphism, and the constant
    direction is fixed after shifting by some central lattice vector.  The
    witness subspace contains every defect value; each obstruction kind
    witnesses a genuine failure.
    """
    return _affine_decide(system.group, system.lattice, system.automorphism,
                          system.translation, "full")


def torus_decide(system: AffineSystem) -> Verdict:
    """Decision procedure for affine maps of tori, without the defect map.

    Requires an abelian algebra and a unipotent integer-like automorphism;
    decides AA by (U - I)^2 = 0 together with membership of (U - I) a in the
    lattice image (U - I) Lambda, the latter tested by Hermite normal form
    in the coset step that `full` uses too (`_coset_shift`, with X = L).
    """
    spec = system.algebra
    if not spec.abelian():
        raise InapplicableCriterion(
            "the torus criterion requires an abelian algebra")
    U = system.automorphism
    d = spec.dim
    if unipotency_index(U) is None:
        raise NotUnipotent("the automorphism is not unipotent")

    UI = U - QMatrix.identity(d)
    square = UI @ UI
    if not square.is_zero():
        for j in range(d):
            col = square.column(j)
            if any(col):
                cert = NotFixed(UI.column(j), col, f"X{j + 1}")
                return Verdict(NOT_AA, "torus", cert, (SCOPE_NOTE,))

    moved = UI.apply(system.translation)
    coeffs = moved.coefficient_vectors()
    zero_mono = tuple(0 for _ in moved.params)
    nonconstant_hit = any(m != zero_mono and any(v) for m, v in coeffs.items())
    constant = coeffs.get(zero_mono, (0,) * d)
    shift, images = _coset_shift(UI, system.lattice.basis, constant)
    if nonconstant_hit or shift is None:
        cert = CosetObstruction(moved, tuple(images.columns()))
        return Verdict(NOT_AA, "torus", cert, (SCOPE_NOTE,))

    witness = QSubspace.from_spanning(kernel_basis(UI), d)
    shift = shift if any(constant) else None
    return Verdict(AA, "torus", WitnessSubspace(witness, shift), ())


def _basepoint_stage(spec: LieAlgebraSpec, automorphism: QMatrix,
                     translation: ParamVector):
    """Minimal-rational-subspace test: fixed pointwise and abelian."""
    V = minimal_rational_subspace(translation)
    for b in V.basis:
        image = tuple(x - y for x, y in zip(automorphism.matvec(b), b))
        if any(image):
            return NOT_AA, NotFixed(tuple(b), image, None)
    ok, pair = is_abelian_family(spec, V.basis)
    if not ok:
        i, j = pair
        return NOT_AA, _obstruction_from_pair(spec, V.basis[i], V.basis[j])
    return AA, WitnessSubspace(V, None)


def basepoint_decide(system: AffineSystem) -> Verdict:
    """Is the base point (the identity coset) almost automorphic?

    First tests whether the smallest rational subspace containing the
    translation for all parameter values is fixed by the automorphism and
    abelian.  When that fails, the automorphism is absorbed into a
    translation one dimension up and the same test runs there; the base
    point embeds as a base point of that translation, with identical orbit
    closure dynamics, so the two answers agree.
    """
    status, cert = _basepoint_stage(system.algebra, system.automorphism,
                                    system.translation)
    if status == AA:
        return Verdict(AA, "basepoint", cert, ())
    up = suspended_basepoint_decide(system)
    if up.status == AA:
        return Verdict(AA, "basepoint", up.certificate,
                       ("witness found after absorbing the automorphism "
                        "into a translation one dimension up; coordinates "
                        "are (circle, fiber)",))
    return Verdict(NOT_AA, "basepoint", cert,
                   (SCOPE_NOTE,
                    "the one-dimension-up translation closure is also obstructed"))


def translation_decide(system: AffineSystem) -> Verdict:
    """Almost automorphy of a pure translation, with a normality report.

    Applies only when the automorphism is the identity.  Delegates to the
    defect criterion (for a translation the defect values are the
    conjugates of a) and reports whether the witness subspace is an ideal;
    the witness always contains the translation direction by construction.
    """
    if not system.is_translation():
        raise InapplicableCriterion(
            "translation_decide requires the identity automorphism")
    inner = _affine_decide(system.group, system.lattice, system.automorphism,
                           system.translation, "translation")
    if inner.status != AA:
        return inner
    normal = is_ideal(system.algebra, inner.certificate.subspace)
    notes = (f"witness subspace is an ideal (normal subgroup): "
             f"{'yes' if normal else 'no'}",
             "the witness contains every conjugate of the translation "
             "by construction")
    return Verdict(AA, "translation", inner.certificate, notes)


# ---- suspension-side deciders ----

def suspended_full_decide(system: AffineSystem) -> Verdict:
    """full_decide applied to the suspension translation of the system."""
    from .suspension import suspend
    susp = suspend(system)
    return _affine_decide(susp.big_group, None, QMatrix.identity(susp.dim),
                          susp.embedded_translation, "full",
                          ("evaluated on the suspension translation; "
                           "coordinates are (circle, fiber)",))


def suspended_basepoint_decide(system: AffineSystem) -> Verdict:
    """The basepoint test on the suspension translation alone: the second
    stage of basepoint_decide."""
    from .suspension import suspend
    susp = suspend(system)
    note = ("evaluated on the suspension translation; coordinates are "
            "(circle, fiber)",)
    status, cert = _basepoint_stage(susp.big_algebra,
                                    QMatrix.identity(susp.dim),
                                    susp.embedded_translation)
    if status == AA:
        return Verdict(AA, "basepoint", cert, note)
    return Verdict(NOT_AA, "basepoint", cert, note + (SCOPE_NOTE,))


# ---- necessary Lie-algebra condition ----

@record
class LieNecessaryReport:
    """Outcome of the first-order necessary condition.

    passed means both conditions hold: (U - I)(Ad_a U - I) = 0 as an exact
    polynomial identity, and the image of Ad_a U - I generates an abelian
    family.  This is necessary for almost automorphy but not sufficient.
    """

    passed: bool
    composite_zero: bool
    image_abelian: bool
    failed_condition: str | None
    witness: object | None


def lie_necessary(system: AffineSystem) -> LieNecessaryReport:
    """First-order necessary condition for almost automorphy.

    With B = Ad_a U - I (a polynomial matrix in the translation
    parameters), almost automorphy forces (U - I) B = 0 and the columns of
    B to commute with each other for all parameter values.  Column j of B
    is sum_k ad_a^k(U e_j) / k! - e_j; ad_a^k vanishes from k = class on.
    """
    U = system.automorphism
    if unipotency_index(U) is None:
        raise NotUnipotent("the automorphism is not unipotent")
    spec = system.algebra
    d = spec.dim
    a = system.translation
    cols = []
    for j, image in enumerate(U.columns()):
        term = ParamVector.from_rationals(image, a.params)
        col = ParamVector.from_rationals(
            [x - int(i == j) for i, x in enumerate(image)], a.params)
        for k in range(1, system.group.nilpotency_class):
            term = spec.bracket(a, term).scale(Fraction(1, k))
            if term.is_zero():
                break
            col = col + term
        cols.append(col)

    composite = [(U.apply(col) - col).entries for col in cols]
    for i in range(d):
        for j in range(d):
            if not composite[j][i].is_zero():
                witness = ("composite", i, j, str(composite[j][i]))
                return LieNecessaryReport(False, False, True, "composite",
                                          witness)

    for i in range(d):
        for j in range(i + 1, d):
            br = spec.bracket(cols[i], cols[j])
            if not br.is_zero():
                witness = ("image_bracket", i, j, str(br))
                return LieNecessaryReport(False, True, False,
                                          "image_bracket", witness)
    return LieNecessaryReport(True, True, True, None, None)


# ---- minimality of translations ----

def minimality_check(system: AffineSystem) -> Verdict:
    """Minimality of a translation via its abelianization rotation.

    A nilmanifold translation is minimal exactly when the induced rotation
    of the abelianized torus is, that is when the lattice coordinates of
    the abelianized translation together with 1 are linearly independent
    over the rationals.  With generic parameters a rational dependency
    exists exactly when some nonzero rational covector kills every
    nonconstant coefficient vector (the constant part is rational, so any
    such covector produces a dependency).  Returns INCONCLUSIVE when the
    automorphism is not the identity.
    """
    d = system.dim
    if not system.is_translation():
        return Verdict(INCONCLUSIVE, "minimality", None,
                       ("minimality analysis covers translations only",))

    derived = derived_subalgebra(system.algebra)
    proj_rows = annihilator_basis(derived.basis, d)
    k = len(proj_rows)
    P = QMatrix(proj_rows)
    C = zspan_basis(P @ system.lattice.basis).inverse()  # k x k: P has rank k
    eta = C.apply(P.apply(system.translation))

    zero_mono = tuple(0 for _ in eta.params)
    nonconstant = [v for m, v in eta.coefficient_vectors().items()
                   if m != zero_mono]
    ann = annihilator_basis(nonconstant, k)
    if not ann:
        return Verdict(MINIMAL, "minimality", None, ())
    covectors = tuple(tuple(int(x) for x in _primitive(row)) for row in ann)
    return Verdict(
        NOT_MINIMAL, "minimality", InvariantSubtorus(covectors),
        ("covectors are written in the basis dual to the abelianized "
         "lattice; each one is rationally constant along the orbit",))


# ---- quasi-unipotence of integer matrices ----

def power_unipotent(matrix: QMatrix) -> Verdict:
    """Least power of an integer unimodular matrix that is unipotent.

    PASS with UnipotentPower(r) when every eigenvalue is a root of unity
    (r = lcm of their orders, which is minimal because A^j is unipotent
    exactly when the order of every eigenvalue divides j), and otherwise
    FAIL with a SpectralObstruction carrying the non-cyclotomic factor of
    the characteristic polynomial.
    """
    if not matrix.is_square():
        raise ValueError("power_unipotent requires a square matrix")
    if not matrix.is_integral():
        raise ValueError("matrix must have integer entries")
    if matrix.det() not in (1, -1):
        raise ValueError("matrix must have determinant +1 or -1")
    result = cyclotomic_spectrum_test(charpoly(matrix))
    if not result.all_roots_of_unity:
        return Verdict(FAIL, "power-unipotent",
                       SpectralObstruction(tuple(result.obstruction)),
                       ("a non-cyclotomic factor obstructs every power",))
    r = result.lcm_order
    if unipotency_index(matrix ** r) is None:
        raise ArithmeticError("cyclotomic spectrum did not yield a unipotent power")
    return Verdict(PASS, "power-unipotent", UnipotentPower(r),
                   (f"U^{r} is unipotent",))


# ---- two-generator coefficient analysis ----

@record
class TwoGeneratorReport:
    """Coefficients of the commutation curve of a two-generator system.

    For designated generators (xi, eta) with U xi = xi + eta, the curve
    a_t = exp(-t xi) exp(t (xi + eta)) lies in the codimension-one ideal
    M = span{eta} + [N, N]; modulo [M, M] it reads

        sum_k c_k t^{k+1} tau^k(eta),      tau = [xi, -],

    with n the least power annihilating eta.  `coefficients` come from the
    group-law computation, `matrix_coefficients` from an independent
    matrix realization of the same relation; they must agree.
    """

    n: int
    basis: tuple[tuple[Fraction, ...], ...]
    coefficients: tuple[Fraction, ...]
    matrix_coefficients: tuple[Fraction, ...]
    m_subspace: QSubspace
    abelian_m: bool
    fixed_m: bool
    inverse_factorial_match: bool
    plain_factorial_match: bool
    notes: tuple[str, ...] = ()


def _two_generator_matrix_coefficients(n: int) -> tuple[Fraction, ...]:
    """Matrix oracle for the curve coefficients.

    Realize the chain on R^{n+1}: Xi shifts the chain basis (tau^k eta at
    index n-1-k) and H sends the last coordinate to eta's slot.  Then
    [Xi, H], [Xi, [Xi, H]], ... occupy the eta, tau eta, ... slots of the
    last column and every product of two H-words vanishes, so the last
    column of log(exp(-Xi) exp(Xi + H)) reads off c_k.  Taking t = 1 loses
    nothing: a product of m factors from {Xi, H} lies on the m-th
    superdiagonal, so entry (n-1-k, n) is exactly c_k t^{k+1}.  Uses only
    matrix exp and log, no group law.
    """
    size = n + 1
    Xi = QMatrix([[int(j == i + 1 and j <= n - 1) for j in range(size)]
                  for i in range(size)])
    H = QMatrix([[int(i == n - 1 and j == n) for j in range(size)]
                 for i in range(size)])
    log = matrix_log_unipotent(matrix_exp_nilpotent(-Xi)
                               @ matrix_exp_nilpotent(Xi + H))
    if any(log[i, j] for i in range(size) for j in range(n)):
        raise ArithmeticError("matrix realization left the last column")
    return tuple(log[n - 1 - k, n] for k in range(n))


def two_generator_analysis(system: AffineSystem) -> TwoGeneratorReport:
    """Analyze a system generated by xi, eta with U xi = xi + eta.

    Checks the hypotheses: two designated generators that generate the
    algebra, a unipotent automorphism moving xi by exactly eta, and eta
    outside [M, M].  Then computes the commutation-curve coefficients two
    independent ways.

    A nilpotent algebra is generated by any set that spans it modulo
    [N, N], so generation is one span test.  What the analysis needs of
    M = span{eta} + [N, N] follows from the hypotheses checked:
      - M contains [N, N], so [N, M] lies in M: M is an ideal.
      - xi and eta span N/[N, N], on which U acts unipotently with
        U xi = xi + eta.  If that quotient is a plane, U eta = p xi + q eta
        there; trace 1 + q = 2 and determinant q - p = 1 give q = 1, p = 0,
        so U eta = eta mod [N, N].  Otherwise N is the line of xi (a
        nilpotent algebra with a one-dimensional abelianization is
        abelian), U = 1 and eta = 0.  Either way M has codimension one,
        and U M lies in M, since U preserves [N, N].
    """
    spec = system.algebra
    d = spec.dim
    if system.designated_generators is None or len(system.designated_generators) != 2:
        raise HypothesisViolated("two designated generators are required")
    xi, eta = system.designated_generators
    derived = derived_subalgebra(spec)
    if derived.sum_with(QSubspace.from_spanning([xi, eta], d)).dim != d:
        raise HypothesisViolated("the designated generators do not generate the algebra")
    U = system.automorphism
    if unipotency_index(U) is None:
        raise HypothesisViolated("the automorphism is not unipotent")
    if U.matvec(xi) != tuple(a + b for a, b in zip(xi, eta)):
        raise HypothesisViolated("the automorphism does not send xi to xi + eta")

    M = derived.sum_with(QSubspace.from_spanning([eta], d))
    mm = QSubspace.from_spanning(
        [spec.bracket_vec(u, v) for i, u in enumerate(M.basis)
         for v in M.basis[i + 1:]], d)
    if mm.contains(eta):
        raise HypothesisViolated("eta already lies in [M, M]")

    chain = [tuple(Fraction(x) for x in eta)]
    n = None
    for _ in range(d):
        nxt = spec.bracket_vec(xi, chain[-1])
        if mm.contains(nxt):
            n = len(chain)
            break
        chain.append(nxt)
    if n is None:
        raise ArithmeticError("tau failed to become nilpotent on the chain")

    # solve each power of t against the chain plus [M, M]
    columns = chain + list(mm.basis)
    solve_mat = QMatrix.from_columns(columns)
    t = Poly.variable("t", ("t",))
    minus_xi = ParamVector(("t",), [t * (-Fraction(x)) for x in xi])
    plus_both = ParamVector(("t",), [t * (Fraction(x) + Fraction(y))
                                     for x, y in zip(xi, eta)])
    curve = system.group.mult(minus_xi, plus_both)
    coeffs = [Fraction(0)] * n
    for exps, vec in curve.coefficient_vectors().items():
        p = exps[0]
        sol = solve_linear(solve_mat, vec)
        if sol is None:
            raise HypothesisViolated("the curve leaves span{chain} + [M, M]")
        chain_part = sol[:n]
        expected_slot = p - 1
        for idx, value in enumerate(chain_part):
            if value and idx != expected_slot:
                raise HypothesisViolated(
                    "the curve does not have the expected chain shape")
        if 0 <= expected_slot < n:
            coeffs[expected_slot] = chain_part[expected_slot]
    coefficients = tuple(coeffs)

    matrix_coefficients = _two_generator_matrix_coefficients(n)
    inverse_factorial = tuple(Fraction((-1) ** k, math.factorial(k + 1))
                              for k in range(n))
    plain_factorial = tuple(Fraction((-1) ** k, math.factorial(k))
                            for k in range(n))

    abelian_m = is_abelian_family(spec, M.basis)[0]
    fixed_m = all(U.matvec(b) == tuple(Fraction(x) for x in b) for b in M.basis)

    notes = []
    if coefficients != matrix_coefficients:
        notes.append("group-law and matrix-realization coefficients disagree")
    notes.append("coefficients match (-1)^k/(k+1)!: "
                 + ("yes" if coefficients == inverse_factorial else "no"))
    notes.append("coefficients match (-1)^k/k!: "
                 + ("yes" if coefficients == plain_factorial else "no"))
    return TwoGeneratorReport(
        n=n, basis=tuple(tuple(v) for v in chain),
        coefficients=coefficients,
        matrix_coefficients=matrix_coefficients,
        m_subspace=M, abelian_m=abelian_m, fixed_m=fixed_m,
        inverse_factorial_match=coefficients == inverse_factorial,
        plain_factorial_match=coefficients == plain_factorial,
        notes=tuple(notes))
