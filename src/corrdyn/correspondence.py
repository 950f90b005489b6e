"""Composition, iteration, graphs and conjugation of correspondences.

A correspondence is a nonzero bihomogeneous form considered up to a nonzero
scalar; its curve in P^1 x P^1 generalizes the graph of a self-map.
Composition eliminates the middle point through a resultant in the shared
variable pair and multiplies bidegrees; conjugation substitutes a Moebius
change of coordinate simultaneously into both variable pairs.

Moebius letter convention: the map (a, b, c, d) sends the affine coordinate
z = v1/v0 to (a*z + b)/(c*z + d) and acts on homogeneous coordinates as
[v0 : v1] -> [d*v0 + c*v1 : b*v0 + a*v1].  Conjugation composes as a right
action in matrix terms: conjugate(f, g * h) == conjugate(conjugate(f, g), h)
where (g * h) is the matrix product; this order is pinned by the action-law
test in the suite.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import BiForm, BinaryForm, _frac, _int_rows, binary_gcd, rational_roots
from .resultant import bareiss_det_poly, sylvester_rows


class _PreconditionError(ValueError):
    """An input outside a computation's domain; ``corrdyn`` exits 2 and names the subclass.

    The CLI catches this base, so it need not import the module of each
    subclass (``multiplier`` holds the other two) to recognise them.
    """


class DegenerateComposition(_PreconditionError):
    """Raised when the composite eliminant vanishes identically.

    This happens exactly when the left factor carries a linear factor in its
    y-pair matching a linear factor of the right factor's x-pair.  The
    `shared_factor` attribute holds the gcd of those factors, a form of degree
    at least 1; the message names one shared factor when it has a rational
    root, and the gcd otherwise.  `step` is set by `iterate`.
    """

    def __init__(self, message: str, shared_factor: BinaryForm):
        super().__init__(message)
        self.shared_factor = shared_factor
        self.step: int | None = None


class MoebiusMap:
    """Invertible fractional-linear self-map of the projective line."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = (_frac(v) for v in (a, b, c, d))
        if self.determinant() == 0:
            raise ValueError("Moebius map needs nonzero determinant a*d - b*c")

    def determinant(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def inverse(self) -> "MoebiusMap":
        # Adjugate; projectively the inverse map.
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def __mul__(self, other: "MoebiusMap") -> "MoebiusMap":
        """Matrix product; (g * h) acts as z -> g(h(z))."""
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def coordinate_matrix(self):
        """The 2x2 matrix acting on homogeneous coordinate columns (v0, v1)."""
        return ((self.d, self.c), (self.b, self.a))

    def __eq__(self, other) -> bool:
        return isinstance(other, MoebiusMap) and self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return f"MoebiusMap({self.a}, {self.b}, {self.c}, {self.d})"


class Correspondence:
    """A nonzero bihomogeneous form up to scalars; the dynamical object."""

    __slots__ = ("form",)

    def __init__(self, form: BiForm):
        if form.is_zero():
            raise ValueError("a correspondence needs a nonzero defining form")
        self.form = form

    @classmethod
    def from_matrix(cls, deg_x: int, deg_y: int, rows) -> "Correspondence":
        return cls(BiForm(deg_x, deg_y, rows))

    @property
    def deg_x(self) -> int:
        return self.form.deg_x

    @property
    def deg_y(self) -> int:
        return self.form.deg_y

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.form.deg_x, self.form.deg_y)

    def projectively_equal(self, other: "Correspondence") -> bool:
        return self.form.projectively_equal(other.form)

    def __repr__(self):
        return f"Correspondence({self.form!r})"


def moebius_graph(g: MoebiusMap) -> Correspondence:
    """The bidegree (1, 1) graph form (b*x0 + a*x1)*y0 - (d*x0 + c*x1)*y1."""
    return Correspondence.from_matrix(1, 1, [[g.b, -g.d], [g.a, -g.c]])


def _shared_linear_obstruction(f: BiForm, g: BiForm) -> BinaryForm:
    """Common factor certificate for a vanishing composite.

    The composite vanishes exactly when f has a linear factor in its y-pair
    whose coefficient vector also cuts a linear factor of g in its x-pair, so
    the gcd of f's coefficient rows (as y-forms) against g's coefficient
    columns (as x-forms) is nonconstant; that gcd is returned.
    """
    y_content = binary_gcd([BinaryForm(f.deg_y, row) for row in f.coeffs])
    cols = [[g.coeffs[i][j] for i in range(g.deg_x + 1)] for j in range(g.deg_y + 1)]
    x_content = binary_gcd([BinaryForm(g.deg_x, col) for col in cols])
    return binary_gcd([y_content, x_content])


def compose(f: Correspondence, g: Correspondence) -> Correspondence:
    """Composite correspondence of bidegree (d*d', e*e').

    The defining form is the resultant, in the shared middle pair (z0, z1),
    of f's form read in (x, z) against g's form read in (z, y); f contributes
    z-degree e and g contributes z-degree d'.  The Sylvester entries are
    dehomogenized at x0 = y0 = 1, so the determinant is a polynomial in
    (x1, y1) whose (i, j) coefficient is that of x0^(dd'-i) x1^i y0^(ee'-j) y1^j.
    """
    d, e = f.deg_x, f.deg_y
    dp, ep = g.deg_x, g.deg_y
    fa, df = _int_rows(f.form)
    ga, dg = _int_rows(g.form)
    fz = [{(i, 0): row[j] for i, row in enumerate(fa)} for j in range(e + 1)]
    gz = [{(0, l): c for l, c in enumerate(row)} for row in ga]
    if e == dp == 0:
        # Neither form involves the middle pair: the Sylvester matrix is 0 x 0,
        # and its determinant 1 is the bidegree (0, 0) composite.
        det = {(0, 0): 1}
    else:
        det = bareiss_det_poly(sylvester_rows(fz, gz, {}))
    if not det:
        shared = _shared_linear_obstruction(f.form, g.form)
        pts = [pt for pt, _ in rational_roots(shared)]
        if pts:
            p0, p1 = pts[0]
            detail = (
                f": f carries the factor {p1}*y0 - {p0}*y1"
                f" and g the factor {p1}*x0 - {p0}*x1"
            )
        else:
            detail = f": shared irrational linear factor, gcd certificate {shared!r}"
        raise DegenerateComposition("composition degenerates to the zero form" + detail, shared)
    scale = df**dp * dg**e
    rows = [
        [Fraction(det.get((i, j), 0), scale) for j in range(e * ep + 1)] for i in range(d * dp + 1)
    ]
    return Correspondence.from_matrix(d * dp, e * ep, rows)


def iterate(f: Correspondence, n: int) -> Correspondence:
    """Left fold of composition; fold order is projectively irrelevant."""
    if n < 1:
        raise ValueError("iteration count must be positive")
    acc = f
    for step in range(1, n):
        try:
            acc = compose(acc, f)
        except DegenerateComposition as exc:
            exc.step = step
            raise
    return acc


def conjugate(f: Correspondence, g: MoebiusMap) -> Correspondence:
    """Coordinate change of the correspondence by the Moebius map g.

    Substitutes v0 -> d*v0 + c*v1, v1 -> b*v0 + a*v1 into both variable
    pairs; the bidegree is preserved and fixed points move by g^{-1}.
    """
    n = g.coordinate_matrix()
    return Correspondence(f.form.substitute_pair(n, n))
