"""Radial fiber operators of a 2D magnetic Laplacian and their spectra.

Restricting (-i nabla - s A)^2 to the angular sector e^{i m phi} gives the
radial operator

    h_m = -d^2/dr^2 - (1/r) d/dr + (m/r - s a(r))^2      (field scale s = b)

acting in L^2(r dr). The Liouville substitution v = sqrt(r) u turns the
measure into dr and produces the extra potential -1/(4 r^2). Discretely we
realize that form on a staggered grid r_j = (j - 1/2) dr with cell faces
F_i = i dr: the quadratic form

    q(u) = kin * sum_i F_i (u_i - u_{i-1})^2 / dr + sum_j V(r_j) u_j^2 r_j dr

symmetrized by D = diag(sqrt(r_j dr)) yields a real symmetric tridiagonal
matrix. The face weight F_0 = 0 encodes the exact zero-flux condition at the
coordinate singularity r = 0 (no ghost node, no explicit 1/(4r^2) term), and
eigenvectors come out orthonormal in the discrete r dr inner product.

Two scale conventions share the same assembly (and `fiber_potential`):
  'b':  kin = 1,   V = (m/r - b a(r))^2        eigenvalues of the b-scaled form
  'h':  kin = h^2, V = (h m / r - a(r))^2      semiclassical (-ih nabla - A)^2
The complex-scaled fibers of `cscale` are FiberOperators of the 'h'
convention with complex entries.

Only V depends on m. A real fiber is assembled once per grid: a
`_GridFiber` holds the nodes, a(r), the kinetic diagonal and the
off-diagonal of `face_form`, and the face weights of the Rayleigh quotient,
all read-only; sector m then adds its V to the kinetic diagonal
(`_GridFiber.op`), the same operations in the same order as a one-off
assembly, so every entry is the same bit for bit. A sweep builds the
records of its N and N/2 grids once and solves and certifies every sector
on them; the coarse copies that `_lowest` bisects are kept on their parent
record. Records live as long as the sweep that built them.

The scheme is second order in dr; level-sweep routines refine eigenvalues by
Richardson extrapolation over (N/2, N).

Grid levels come from certified inverse iteration (`_lowest`). Level j is
bisected on a coarse copy of the fiber (about N/16 nodes; LAPACK `dstebz`,
then `dstein` for the vectors), then refined on the fiber itself by shifted
inverse iteration (`_inverse_iteration`, which the step band shares). Each
shift s is factored as T - s = L D L^T by `dpttrf`, restarted past each
negative pivot (`_ldl_factors`), and is used only if exactly j pivots are
negative: by Sylvester's law of inertia s then lies between levels j - 1
and j. Every shift factored narrows one bracket of level j, and a shift
outside it gives way to the bracket's log-midpoint. The iterate is
orthogonalized against the levels below, and its Rayleigh quotient is
summed face by face from the face weights and the potential, free of the
cancellation between diag and off that costs bisection up to 1e-8 relative
where the diagonal is large. The solves are not normalized: the quotient of
each is taken with the |y|^2 that the check for a lost iterate computes,
and the vector is normalized once, on return. The iteration stops when the
quotient moves by at most 4 ulp and the last accepted shift lies within
tol = 64 eps max|T_ii|, plus those 4 ulp, below it; tol is computed once
per fiber. `eigs_lowest` returns these certified pairs, its vectors scaled to
unit norm in r dr: every real fiber eigenpair, level or vector, comes from
this one solver. Its LAPACK routines come from `_lapack`, which loads them
without `scipy.linalg`.

A merged ladder (well, anharmonic, island) is a certified sector sweep
(`_merged_ladder`). Once the levels it needs are in hand, one count per
sector of its eigenvalues below a shift on either grid (`_count_below`:
the negative pivots of one LDL^T factorization per grid, by Sylvester
inertia) says how many levels to solve, and 0 certifies the sector. The
sweep runs outward from m = 0 until a shell counts 0, then over the
sectors not yet solved. The ladder is the one a solve of every sector
gives, bit for bit. A Dirichlet-truncated ladder whose potential ceiling
fails grows its r_max by 1.5x, up to R_MAX_GROWTHS times.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import NamedTuple

import numpy as np

from ._lapack import dpttrf, dpttrs, dstebz, dstein
from ._parallel import pmap
from .errors import (DecayCheckError, NumericalError, TruncationError,
                     ValidationError)
from .fields import FieldProfile, make_profile, zero_profile, FieldSpec

MAX_GRID_N = 10 ** 6  # largest grid of any solver (radial and step band)
LADDER_N = 3000  # nodes of every ladder grid
R_MAX_GROWTHS = 4  # 1.5x steps of a truncated ladder's r_max: at most 5.06x
MAX_SOLVES = 100  # cap on solves plus refused shifts per eigenpair
NEAR = 4  # lower levels each inverse-iteration solve is orthogonalized to
TOL_EPS = 64.0 * np.finfo(float).eps  # certified shift gap, per max|T_ii|
SETTLED = 1e4  # a solve's mu - shift, in tol, that settles mu
RESCALE = 1e200  # a solve's |y|^2 (or its inverse) past which x is rescaled
# weight of the last face: a Dirichlet value there (mirror ghost) or free
FAR_WEIGHT = {"dirichlet_far": 2.0, "neumann_far": 0.0}


@dataclass(frozen=True)
class RadialGrid:
    r_max: float  # truncation radius
    N: int  # number of staggered nodes

    def __post_init__(self):
        if not (self.r_max > 0 and math.isfinite(self.r_max)):
            raise ValidationError("r_max must be positive and finite")
        if not 64 <= self.N <= MAX_GRID_N:
            raise ValidationError(f"N must lie in 64..{MAX_GRID_N}")
        # face_form divides by r dr^2, which is dr^3 / 2 at the first node
        if not 0.5 * self.dr * self.dr * self.dr >= np.finfo(float).tiny:
            raise ValidationError(
                f"r_max / N = {self.dr:.3g} is too small: the fiber's "
                f"1 / (r dr^2) leaves the float range")

    @property
    def dr(self) -> float:
        return self.r_max / self.N

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.N) + 0.5) * self.dr

    @property
    def faces(self) -> np.ndarray:
        return np.arange(self.N + 1) * self.dr

    def halved(self) -> "RadialGrid":
        if self.N % 2 or self.N < 128:
            raise ValidationError("refinement solves the N/2 grid too: "
                                  "N must be even and at least 128")
        return RadialGrid(self.r_max, self.N // 2)


def face_form(w_faces, mass, dr, boundary):
    """Tridiagonal (kinetic diag, off) of the face-weighted form: the
    operator's diag is the kinetic diag plus the potential at the nodes.

    w_faces has N+1 entries (kinetic weight per cell face), mass has N
    (the measure density at nodes). The far boundary is either a
    Dirichlet value at the last face (mirror ghost: weight doubled) or a
    natural/Neumann end (last face free).
    """
    far = FAR_WEIGHT.get(boundary)
    if far is None:
        raise ValidationError(f"unknown boundary {boundary!r}")
    w_right = np.concatenate([w_faces[1:-1], [far * w_faces[-1]]])
    kinetic = (w_faces[:-1] + w_right) / (mass * dr * dr)
    # per-factor roots: safe for complex mass (product args can leave the
    # principal branch at large scaling angles)
    off = -w_faces[1:-1] / (dr * dr * np.sqrt(mass[:-1]) * np.sqrt(mass[1:]))
    return kinetic, off


def smoothstep(r, r0: float, width: float):
    """Quintic ramp S rising from 0 at r0 to 1 at r0 + width, C^2 at both
    ends, with its first two derivatives in r: (S, S', S'')."""
    s = np.clip((np.asarray(r, dtype=float) - r0) / width, 0.0, 1.0)
    return (s ** 3 * (10.0 - 15.0 * s + 6.0 * s ** 2),
            30.0 * s ** 2 * (1.0 - s) ** 2 / width,
            60.0 * s * (1.0 - s) * (1.0 - 2.0 * s) / (width * width))


@dataclass(frozen=True, eq=False)
class FiberOperator:
    """Tridiagonal (diag, off) of the fiber at angular momentum m: real
    symmetric from `assemble_fiber`, complex symmetric from
    `cscale.assemble_scaled_fiber`."""

    m: int  # angular momentum
    scale: float  # field scale b, or h in the 'h' convention
    convention: str  # 'b' or 'h'
    boundary: str  # 'dirichlet_far' | 'neumann_far'
    grid: RadialGrid
    diag: np.ndarray = field(repr=False)
    off: np.ndarray = field(repr=False)
    pot: np.ndarray = field(repr=False)  # the potential V at the nodes
    profile: FieldProfile = field(repr=False, compare=False)
    # the grid record of a real fiber; None for a complex-scaled one
    record: _GridFiber | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True, eq=False)
class EigenResult:
    values: np.ndarray  # ascending
    vectors: np.ndarray = field(repr=False)  # N x k, orthonormal in r dr
    op: FiberOperator = field(repr=False)  # the fiber they belong to


def fiber_potential(m: int, scale: float, r, a, convention: str):
    """The fiber potential at radii r where the field potential is a:
    (m/r - scale a)^2 in the 'b' convention, (scale m/r - a)^2 in 'h'."""
    if convention == "b":
        return (m / r - scale * a) ** 2
    return (scale * m / r - a) ** 2


class _GridFiber:
    """The m-independent half of the real fiber of one (profile, scale,
    grid, boundary, convention): the nodes r and sqrt(r), a(r), the
    kinetic diagonal and the off-diagonal of `face_form`, and the face
    weights of `_rayleigh`, all read-only. `op(m)` adds sector m's
    potential. Coarse copies (`coarse`) are built once and kept here."""

    def __init__(self, profile: FieldProfile, scale: float, grid: RadialGrid,
                 boundary: str, convention: str):
        if not (scale > 0 and math.isfinite(scale)):
            raise ValidationError("scale must be > 0")
        if convention not in ("b", "h"):
            raise ValidationError("convention must be 'b' or 'h'")
        self.profile, self.scale, self.grid = profile, scale, grid
        self.boundary, self.convention = boundary, convention
        r = grid.nodes
        kin = 1.0 if convention == "b" else scale * scale
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.asarray(profile.a(r), dtype=float)
            kinetic, off = face_form(kin * grid.faces, r, grid.dr, boundary)
            weights = kin * grid.faces[1:] / (grid.dr * grid.dr)
            weights[-1] *= FAR_WEIGHT[boundary]
        shared = r, np.sqrt(r), a, kinetic, off, weights
        for array in shared:
            array.flags.writeable = False
        self.r, self.root, self.a, self.kinetic, self.off, self.weights = shared
        self._coarse = {}  # N -> the coarse copy's record

    def op(self, m: int) -> FiberOperator:
        """The fiber of sector m: diag = kinetic + V_m."""
        with np.errstate(over="ignore", invalid="ignore"):
            V = fiber_potential(m, self.scale, self.r, self.a, self.convention)
            diag = self.kinetic + V
        return FiberOperator(m=m, scale=self.scale, convention=self.convention,
                             boundary=self.boundary, grid=self.grid,
                             diag=diag, off=self.off, pot=V,
                             profile=self.profile, record=self)

    def coarse(self, N: int) -> "_GridFiber":
        """The record of the same fiber on N nodes over the same r_max."""
        if N not in self._coarse:
            self._coarse[N] = _GridFiber(
                self.profile, self.scale, RadialGrid(self.grid.r_max, N),
                self.boundary, self.convention)
        return self._coarse[N]


def assemble_fiber(profile: FieldProfile, m: int, scale: float,
                   grid: RadialGrid, boundary: str = "dirichlet_far",
                   convention: str = "b") -> FiberOperator:
    """Symmetric tridiagonal fiber operator at angular momentum m.

    A field or potential that overflows gives non-finite entries, which
    the eigensolvers report as a NumericalError; `check_ceiling`
    certifies the Dirichlet truncation of a solved ladder.
    """
    return _GridFiber(profile, scale, grid, boundary, convention).op(m)


@dataclass
class Work:
    """What a fiber solve cost: coarse bisections, LDL^T factorizations of
    shifted fibers (inverse-iteration shifts and level counts), the shifts
    inverse iteration refused, and solves with the factors."""

    bisections: int = 0
    factorizations: int = 0
    refused: int = 0
    solves: int = 0

    def __add__(self, other: "Work") -> "Work":
        return Work(*(a + b for a, b in zip(astuple(self), astuple(other))))


def _ldl_factors(diag: np.ndarray, off: np.ndarray, shift: float, j: int
                 ) -> tuple:
    """(negative pivots, factors) of T - shift = L D L^T for the symmetric
    tridiagonal T = (diag, off), by `dpttrf` restarted past each negative
    pivot d_i: the trailing block is factored again with its first diagonal
    entry reduced by e_i^2 / d_i. The factors (d, e), which `dpttrs` takes,
    come only with exactly j negative pivots, and by Sylvester's law of
    inertia T then has exactly j eigenvalues below shift. Counting stops
    past j; a zero or non-finite pivot refuses the shift, counted as j + 1
    (the shift must come down)."""
    d, e, info = dpttrf(diag - shift, off, 1)  # in place on the difference
    negatives, start, last = 0, 0, len(d) - 1
    while info:
        i = start + info - 1  # dpttrf stopped at pivot d[i] <= 0
        pivot = d[i]
        if negatives == j or not pivot < 0.0:
            return j + 1, None
        negatives += 1
        if i == last:
            break
        # LAPACK leaves e[i] and d[i + 1] unreduced at the stop
        ratio = off[i] / pivot
        e[i] = ratio
        d[i + 1] -= ratio * off[i]
        start = i + 1
        if start == last:  # dpttrf takes no 1 x 1 block
            info = 0 if d[last] > 0.0 else 1
        else:  # in place on the trailing views (overwrite_d, overwrite_e)
            info = dpttrf(d[start:], e[start:], 1, 1)[2]
    # one reduction: a NaN or +inf pivot shows in the max, and a -inf one
    # only among the negative pivots
    top = float(d.max()) - (float(d.min()) if negatives else 0.0)
    if not math.isfinite(top):
        return j + 1, None
    return negatives, ((d, e) if negatives == j else None)


def _inverse_iteration(diag: np.ndarray, off: np.ndarray, tol: float,
                       rayleigh, x, mu, gap: float, lower, work: Work,
                       what: str) -> tuple:
    """(mu, x, shift, factors): eigenpair j of T = (diag, off) by shifted
    inverse iteration, x unit l2, with the last accepted shift and its
    `_ldl_factors`. tol = TOL_EPS max|T_ii| comes from the caller, once per
    operator. lower holds the unit eigenvectors of levels 0..j-1 as its j
    rows (an empty sequence for j = 0). Each solve is orthogonalized
    against the nearest NEAR of them: a shift between levels j - 1 and j
    can amplify only the levels just below j, and it damps the others.

    x is a start vector of any norm, orthogonal to lower (the first solve
    overwrites it), and mu an estimate of the level; rayleigh(y, y @ y)
    sums the Rayleigh quotient of y from the operator's own quadratic
    form. The solves stay unnormalized: the quotient takes the y @ y of
    the check for a lost iterate, and x is normalized once, on return.
    Before each solve x is scaled by a power of 2, which changes no digit,
    whenever |x|^2 / (mu - shift)^2, about the solve's |y|^2, would leave
    [1/RESCALE, RESCALE]: a solve within tol of the level scales |y| by
    about 1/tol, which leaves the float range where |T_ii| nears it.

    A shift is used only if `_ldl_factors` finds exactly j eigenvalues
    below it, and each shift factored narrows one bracket [lo, hi) of
    level j: lo is the highest shift known to have at most j below it, hi
    the lowest known to have more. The next shift is mu - gap (gap at
    least tol/2) while that lies inside; else lo for gap = inf, from a
    caller with no estimate of the gap; else the log-midpoint of the
    distances of lo and hi below mu, the nearer at least tol/2, as a
    product of roots (|T_ii| may lie near the float range). lo starts at
    the Gershgorin floor min T_ii - 2 max|T_i,i+1|, computed only once a
    shift leaves the bracket. A refused shift with fewer than j below it
    shows mu or the gap reaching below level j - 1: mu becomes the start's
    quotient where that is higher.

    While the accepted shift lies more than tol below mu, it is factored
    again: tol/2 below mu once mu has settled, because a solve left mu
    within SETTLED tol of the shift or because its moves shrink by a ratio
    r that leaves mu within tol/4 of the level (Aitken: move r / (1 - r));
    else, from the second solve on the shift, twice the move below mu, down
    to tol, when mu moved by less than 1/8 of mu - shift. The first move
    counts from the start's quotient where the first gap exceeds SETTLED
    tol, and not at all otherwise: a move from an estimate says nothing of
    convergence. mu is returned when it moved by at most 4 ulp (of tol at
    least, where mu is 0) and the accepted shift lies within tol, plus
    those 4 ulp, below the returned mu. The certificate puts level j in
    [mu - tol, mu] up to the rounding of the quotient: a poor estimate
    costs factorizations, never a wrong level. More than MAX_SOLVES solves
    and refused shifts together is a NumericalError.
    """
    j = len(lower)
    gap = max(gap, 0.5 * tol)
    counted = gap > SETTLED * tol  # whether the next move counts
    norm2 = x @ x
    prev, last = rayleigh(x, norm2) if counted else mu, None
    factors, lo, hi = None, -math.inf, math.inf  # level j lies in [lo, hi)
    for _ in range(MAX_SOLVES):
        if factors is None:
            shift = mu - gap
            if not lo < shift < hi:
                if lo == -math.inf:  # the Gershgorin floor
                    lo = float(diag.min()) - 2.0 * float(
                        np.abs(off).max(initial=0.0))
                shift = lo if gap == math.inf else mu - math.sqrt(
                    mu - lo) * math.sqrt(max(mu - hi, 0.5 * tol))
                gap = mu - shift
            count, factors = _ldl_factors(diag, off, shift, j)
            if factors is None:
                work.refused += 1
                if count > j:
                    hi = shift
                else:  # below level j - 1
                    lo, mu = shift, max(mu, rayleigh(x, norm2))
                continue
            work.factorizations += 1
            lo, first = shift, True
        # the solve's |y|^2 is about |x|^2 / (mu - shift)^2; exponents are
        # compared, as (mu - shift)^2 RESCALE may overflow
        e = math.frexp(norm2)[1] - 2 * math.frexp(mu - shift)[1]
        if abs(e) >= math.frexp(RESCALE)[1]:
            x *= math.ldexp(1.0, -(e // 2))
        y, _ = dpttrs(*factors, x, 1)  # in place on x
        if j:
            near = lower[-NEAR:]
            y -= near.T @ (near @ y)
        norm2 = y @ y
        if not 0.0 < norm2 < math.inf:
            raise NumericalError(f"inverse iteration at {what} lost its "
                                 f"iterate: the solve gave |y|^2 = {norm2:.3g}")
        work.solves += 1
        mu = rayleigh(y, norm2)
        move, prev = abs(mu - prev), mu
        rounding = 4.0 * np.spacing(max(abs(mu), tol))
        if move <= rounding and mu - shift <= tol + rounding:
            return mu, y / math.sqrt(norm2), shift, factors
        if mu - shift > tol:
            ratio = move / last if last else math.inf
            if (mu - shift <= SETTLED * tol or ratio < 1.0
                    and move * ratio <= 0.25 * tol * (1.0 - ratio)):
                gap, factors = 0.5 * tol, None
            elif not first and 8.0 * move < mu - shift:
                gap, factors = max(tol, 2.0 * move), None
        first, last, counted = False, move if counted else None, True
        x = y
    raise NumericalError(f"inverse iteration at {what} did not converge "
                         f"in {MAX_SOLVES} steps")


def _rayleigh(op: FiberOperator):
    """(v, v @ v) -> the Rayleigh quotient q(v) / (v @ v) of the fiber,
    summed in face difference form from the face weights and the
    potential, not from (diag, off): with s = v / sqrt(r),

        q(v) = sum_faces w_i (s_i - s_{i-1})^2 / dr^2 + sum_j V_j v_j^2,

    the far face weighted as `face_form` weights it. Every term is
    non-negative, so the sum carries no cancellation. The weights w and
    sqrt(r) come from the fiber's grid record."""
    n, w, root, pot = op.grid.N, op.record.weights, op.record.root, op.pot
    s, ds = np.empty(n), np.empty(n)

    def rayleigh(v: np.ndarray, norm2: float) -> float:
        np.divide(v, root, out=s)
        np.subtract(s[1:], s[:-1], out=ds[:-1])
        ds[-1] = s[-1]
        return float((w @ (ds * ds) + (pot * v) @ v) / norm2)
    return rayleigh


def _coarse_block(j: int, N: int) -> tuple:
    """(lo, hi): the levels whose coarse bisection level j shares on an N
    grid: blocks of 1, 1, 2, 4, 8 and then 16 levels, fixed by j and N
    alone."""
    if j >= 16:
        lo = j - j % 16
        return lo, min(lo + 15, N - 2)
    lo = 1 << (j.bit_length() - 1) if j else 0
    return lo, min(max(lo, 2 * lo - 1), N - 2)


def _lowest(op: FiberOperator, k: int, work: Work) -> tuple:
    """(values, basis): the k lowest eigenpairs of the fiber, the vectors
    unit l2 as the rows of basis, with their cost added to work.

    Level j starts from a bisection, shared by its `_coarse_block` lo..hi,
    of levels lo - 2..hi + 1 of a coarse copy of the fiber: same field,
    m, scale, r_max and boundary, on N/16 nodes (at least 64), doubled
    until it has 4(hi + 2). Coarse levels lie below the fine ones by a
    share of their spacing that grows smoothly with j. `_inverse_iteration`
    refines the level on the fiber itself from the coarse eigenvector
    interpolated onto the grid, with a first gap of 1% of the coarse
    spacing above it. The estimate is coarse level j moved by the grid
    shift of the two levels below, extrapolated (`_inverse_iteration`
    replaces one below level j - 1). Each level thus depends on the fiber
    and j alone, whatever k is. Non-finite entries (an overflowed
    potential) are a NumericalError.
    """
    if not (np.isfinite(op.diag).all() and np.isfinite(op.off).all()):
        raise NumericalError(
            f"fiber m={op.m} on N={op.grid.N} has non-finite entries: the "
            f"potential overflowed")
    g, fine = op.grid, op.record
    rayleigh, hi = _rayleigh(op), -1
    tol = TOL_EPS * float(np.abs(op.diag).max())
    values, basis = np.empty(k), np.empty((k, g.N))
    for j in range(k):
        if j > hi:
            lo, hi = _coarse_block(j, g.N)
            n_c = max(64, g.N // 16)
            while n_c < min(4 * (hi + 2), g.N):
                n_c *= 2
            coarse = op if n_c >= g.N else fine.coarse(n_c).op(op.m)
            first = max(0, lo - 2)
            # LAPACK bisection of levels first..hi + 1 (counted from 1
            # there), in block order, then stein for the vectors
            found, est, block, split, info = dstebz(
                coarse.diag, coarse.off, 2, 0.0, 1.0, first + 1, hi + 2,
                0.0, "B")
            if not info:
                vecs, info = dstein(coarse.diag, coarse.off, est[:found],
                                    block, split)
            if info:
                raise NumericalError(
                    f"tridiagonal eigensolve failed for m={op.m}, "
                    f"N={coarse.grid.N}: LAPACK info={info}")
            order = np.argsort(est[:found])
            est, vecs = est[order], vecs[:, order]
            work.bisections += 1
            rc, root_c = coarse.record.r, coarse.record.root
        i = j - first  # level j in est
        drift = values[first:j] - est[:i]
        mu = est[i] + (2.0 * drift[-1] - drift[-2] if i >= 2 else
                       drift.sum())
        x = np.interp(fine.r, rc, vecs[:, i] / root_c) * fine.root
        if j:
            x -= basis[:j].T @ (basis[:j] @ x)
        values[j], basis[j], _, _ = _inverse_iteration(
            op.diag, op.off, tol, rayleigh, x, mu,
            1e-2 * (est[i + 1] - est[i]), basis[:j], work,
            f"level {j} of m={op.m}, N={g.N}")
    return values, basis


def eigs_lowest(op: FiberOperator, k: int) -> EigenResult:
    """k lowest eigenpairs of a real fiber, the certified pairs of
    `_lowest`; vectors orthonormal in r dr. A complex-scaled fiber, which
    has no grid record, is a ValidationError."""
    if op.record is None:
        raise ValidationError("eigs_lowest solves real fibers only; this "
                              "fiber has no grid record")
    if not (1 <= k < op.grid.N):
        raise ValidationError("need 1 <= k < N")
    vals, basis = _lowest(op, k, Work())
    u = basis.T / np.sqrt(op.grid.nodes * op.grid.dr)[:, None]
    # deterministic sign: largest-magnitude component positive
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
    return EigenResult(values=vals, vectors=u, op=op)


class Sector(NamedTuple):
    """The Richardson-refined levels of one sector, their corrections
    |lam_N - lam_{N/2}| / 3 and the work of both grids."""

    levels: np.ndarray
    corrections: np.ndarray
    work: Work


def _grid_pair(profile: FieldProfile, scale: float, grid: RadialGrid, k: int,
               boundary: str, convention: str) -> tuple:
    """The `_GridFiber` records of grid and of its N/2 grid, on which k
    levels per sector are Richardson-refined."""
    if not 1 <= k < grid.N // 2:
        raise ValidationError(
            f"need 1 <= k < {grid.N // 2} on an N={grid.N} grid")
    return tuple(_GridFiber(profile, scale, g, boundary, convention)
                 for g in (grid, grid.halved()))


def _richardson_levels(pair: tuple, m: int, k: int) -> Sector:
    """The `Sector` of `fiber_levels` on the records of `_grid_pair`: the k
    lowest levels of sector m, each the one a solve of more levels gives."""
    work = Work()
    vals, vals_h = (_lowest(fiber.op(m), k, work)[0] for fiber in pair)
    return Sector((4.0 * vals - vals_h) / 3.0, np.abs(vals - vals_h) / 3.0,
                  work)


def _count_below(pair: tuple, m: int, shift: float, k: int,
                 work: Work) -> int:
    """The larger count of sector m's eigenvalues below shift on the two
    records of a `_grid_pair` (`_ldl_factors`; k + 1 past k or refused):
    0 certifies all of them above shift on both grids."""
    work.factorizations += 2
    return max(_ldl_factors(op.diag, op.off, shift, k)[0]
               for op in (fiber.op(m) for fiber in pair))


def fiber_levels(profile: FieldProfile, m: int, scale: float,
                 grid: RadialGrid, k: int, boundary: str = "dirichlet_far",
                 convention: str = "b") -> np.ndarray:
    """k lowest fiber eigenvalues, Richardson-extrapolated over (N/2, N).

    The scheme is O(dr^2), so (4 lam_N - lam_{N/2}) / 3 removes the leading
    error term. k must stay below N/2, the size of the coarser grid. lam_N
    is `eigs_lowest(assemble_fiber(...), k).values` bit for bit, and
    lam_{N/2} the same on grid.halved().
    """
    return _richardson_levels(_grid_pair(profile, scale, grid, k, boundary,
                                         convention), m, k).levels


def default_m_range(n_max: int) -> range:
    return range(-2 * n_max - 8, 2 * n_max + 9)


def _check_index(n_max: int) -> None:
    # fiber_levels also solves the N/2 grid: n_max + 1 levels need < N/2
    if not 0 <= n_max < LADDER_N // 2 - 1:
        raise ValidationError(f"level index must lie in 0..{LADDER_N // 2 - 2}"
                              f" on the N={LADDER_N} ladder grid")


def _solve_sectors(pair: tuple, ms, ks) -> list:
    """`_richardson_levels` of sector ms[i] for ks[i] levels, in order."""
    return pmap(lambda mk: _richardson_levels(pair, *mk), list(zip(ms, ks)))


def sector_sweep(profile: FieldProfile, scale: float, m_range, grid: RadialGrid,
                 k: int, boundary: str = "dirichlet_far", convention: str = "b"
                 ) -> tuple:
    """(rows, work): the k lowest Richardson-refined levels of each sector,
    merged ascending as (value, m, n) rows, and the Work of all sectors."""
    ms = list(m_range)
    pair = _grid_pair(profile, scale, grid, k, boundary, convention)
    sectors = _solve_sectors(pair, ms, [k] * len(ms))
    return _rows(zip(ms, sectors)), sum((sector.work for sector in sectors),
                                        Work())


def _rows(sectors) -> list:
    """(value, m, n) rows of (m, Sector) pairs, ascending."""
    rows = [(float(lam), m, n)
            for m, sector in sectors for n, lam in enumerate(sector.levels)]
    rows.sort(key=lambda t: (t[0], t[1], t[2]))
    return rows


def check_ceiling(profile: FieldProfile, scale: float, ms, grid: RadialGrid,
                  top: float, convention: str = "b") -> None:
    """The Dirichlet truncation at r_max must hold the potential of every
    sector in ms at least 10 above the top level it returns."""
    r_end = grid.nodes[-1]
    a_end = float(profile.a(r_end))
    ceiling = min(fiber_potential(m, scale, r_end, a_end, convention)
                  for m in ms)
    if ceiling < top + 10.0:
        raise TruncationError(
            f"potential ceiling {ceiling:.3g} at r_max is below the top "
            f"level {top:.3g} + 10; enlarge r_max")


@dataclass(frozen=True, eq=False)
class Ladder:
    """A merged ladder and how its sweep certified it: every sector of the
    cap is solved, or certified by a count of 0 below shift."""

    levels: np.ndarray  # the n_max + 1 lowest distinct levels
    homes: list  # (m, k) of each level: its sector and index there
    solved: list  # sectors solved, ascending
    certified: list  # sectors with no level below shift, not solved
    fallback: list  # sectors solved after the outward sweep stopped
    margin: float | None  # shift - top; None if the outward sweep solved all
    shift: float | None  # every certified eigenvalue lies above it
    r_max: float  # the truncation radius the ladder was solved on
    work: Work  # of the sweep at r_max: its solves and level counts


def _distinct(solved: dict) -> tuple:
    """The distinct levels, ascending, of the solved sectors and the (m, k)
    of each; levels within a relative 1e-8 count once."""
    levels, homes = [], []
    for lam, m, k in _rows(solved.items()):
        if not levels or abs(lam - levels[-1]) > 1e-8 * (1 + abs(levels[-1])):
            levels.append(lam)
            homes.append((m, k))
    return levels, homes


def _merged_ladder(profile: FieldProfile, scale: float, n_max: int,
                   r_max: float, boundary: str = "dirichlet_far",
                   convention: str = "b") -> Ladder:
    """The `Ladder` of the n_max + 1 lowest distinct levels merged over
    the sectors of default_m_range(n_max) on RadialGrid(r_max, LADDER_N),
    with the (m, k) of each: its sector and its index there.

    One step decides a batch of sectors. Until n_max + 1 distinct levels
    are in hand it solves each (`fiber_levels`, over N and N/2) for all
    n_max + 1 levels; after, `_count_below` at s = top + margin counts each
    one's levels below s, and it is solved for that many, at most n_max +
    1: a count of 0 certifies it. The step runs shell by shell, |m| = 0,
    1, 2, ..., until every sector of a shell counts 0, and then over the
    sectors not yet solved, at the new s each time, until none counts
    above 0 (those solved there are the `fallback`). The margin, 10x
    the largest |lam_N - lam_{N/2}| / 3 among the solved levels at or below
    the top and the lowest of each solved sector (at least the relative
    1e-8 within which levels count once), covers the Richardson correction
    of the certified levels. No monotonicity in m is assumed. The top only
    falls as sectors are added, so every level at or below the final top is
    solved; a level does not depend on how many are solved, so the ladder
    is the one a solve of all sectors of all n_max + 1 levels gives.

    Each ladder is certified: enough distinct levels, both edge sectors
    strictly above the returned top level and, when the far end is a
    Dirichlet truncation (a Neumann far end is the problem's own wall), the
    potential ceiling.
    """
    _check_index(n_max)
    grid = RadialGrid(r_max, LADDER_N)
    ms = list(default_m_range(n_max))
    k = n_max + 1
    pair = _grid_pair(profile, scale, grid, k, boundary, convention)
    solved, counts = {}, Work()  # m -> Sector; work of `_count_below`

    def bound():  # (top, margin) once n_max + 1 distinct levels are solved
        levels, _ = _distinct(solved)
        if len(levels) <= n_max:
            return None
        top = levels[n_max]
        richardson = max(
            float(max(gaps[0], gaps[vals <= top].max(initial=0.0)))
            for vals, gaps, _ in solved.values())
        return top, max(10.0 * richardson, 1e-8 * (1.0 + abs(top)))

    def solve(batch, top_margin):
        """Solve each sector of batch for its levels below top + margin,
        all k before a top exists; the sectors solved."""
        ks = [k if top_margin is None else min(k, _count_below(
            pair, m, sum(top_margin), k, counts)) for m in batch]
        batch = [m for m, n in zip(batch, ks) if n]
        solved.update(zip(batch, _solve_sectors(pair, batch,
                                                [n for n in ks if n])))
        return batch

    for shell in range(ms[-1] + 1):
        if not solve([m for m in ms if abs(m) == shell], bound()):
            break
    fallback, margin, shift = [], None, None
    while len(solved) < len(ms):
        top, margin = bound()
        shift = top + margin
        refused = solve([m for m in ms if m not in solved], (top, margin))
        if not refused:
            break
        fallback += refused
    levels, homes = _distinct(solved)
    if len(levels) < n_max + 1:
        raise NumericalError(f"fewer than {n_max + 1} distinct levels")
    top = levels[n_max]
    for m_edge in (m for m in (ms[0], ms[-1]) if m in solved):
        # a certified edge lies above shift > top: it counted none below
        lowest = solved[m_edge].levels.min()
        if lowest <= top * (1.0 + 1e-10):
            raise NumericalError(
                f"m-range truncation unsafe: sector m={m_edge} has an "
                f"eigenvalue {lowest:.6g} at or below level {n_max} "
                f"({top:.6g}) of sectors m = {ms[0]}..{ms[-1]}")
    if boundary == "dirichlet_far":
        check_ceiling(profile, scale, ms, grid, top, convention)
    return Ladder(levels=np.array(levels[: n_max + 1]),
                  homes=homes[: n_max + 1], solved=sorted(solved),
                  certified=[m for m in ms if m not in solved],
                  fallback=sorted(fallback), margin=margin, shift=shift,
                  r_max=r_max, work=sum((sector.work
                                         for sector in solved.values()),
                                        counts))


def _truncated_ladder(profile: FieldProfile, scale: float, n_max: int,
                      r_max: float, convention: str = "b") -> Ladder:
    """`_merged_ladder` with a Dirichlet far end at r_max or, while its
    potential ceiling fails `check_ceiling`, at r_max grown 1.5x per step,
    at most R_MAX_GROWTHS steps. A ladder that holds at r_max keeps it."""
    for growth in range(R_MAX_GROWTHS + 1):
        try:
            return _merged_ladder(profile, scale, n_max, r_max,
                                  convention=convention)
        except TruncationError as exc:
            if growth == R_MAX_GROWTHS:
                raise TruncationError(
                    f"{exc} (done up to r_max = {r_max:.6g}, the cap of "
                    f"this ladder)") from None
            r_max *= 1.5


def _anharmonic_ladder(gamma: float, n_max: int) -> Ladder:
    """`anharmonic_levels` with the (m, k) home of each level."""
    if gamma <= 0:
        raise ValidationError("gamma must be > 0")
    profile = make_profile(FieldSpec("anharmonic", {"gamma": gamma}, R0=1.0))
    return _truncated_ladder(profile, 1.0, n_max, 12.0)


def anharmonic_levels(gamma: float, n_max: int) -> np.ndarray:
    """Anharmonic Landau levels: distinct low eigenvalues of the b=1
    full-plane operator with field |x|^gamma, merged over sectors, on the
    ladder grid truncated at r_max = 12 (grown while its ceiling fails)."""
    return _anharmonic_ladder(gamma, n_max).levels


def _well_ladder(b0: float, h: float, n_max: int) -> Ladder:
    """`well_levels` with the record of its sweep."""
    if b0 <= 0:
        raise ValidationError("b0 must be > 0")
    if h <= 0:
        raise ValidationError("h must be > 0")
    profile = make_profile(FieldSpec("well_radial", {"b0": b0}, R0=1.0))
    return _truncated_ladder(profile, h, n_max, 3.0, convention="h")


def well_levels(b0: float, h: float, n_max: int) -> np.ndarray:
    """Distinct low eigenvalues of the semiclassical operator for
    B(r) = b0 + r^2, merged over sectors, on the ladder grid truncated at
    r_max = 3 (grown while its ceiling fails)."""
    return _well_ladder(b0, h, n_max).levels


def _island_ladder(rho1: float, rho2: float, b: float, n_max: int) -> Ladder:
    """`island_neumann_levels` with the record of its sweep."""
    if not (0 < rho1 < rho2):
        raise ValidationError("need 0 < rho1 < rho2")
    if b < 0:
        raise ValidationError("b must be >= 0")
    if b == 0.0:
        profile = zero_profile(R0=rho2)
        scale = 1.0  # a == 0 makes the operator scale-free
    else:
        profile = make_profile(
            FieldSpec("island_annular", {"rho1": rho1, "rho2": rho2}, R0=rho2))
        scale = b
    return _merged_ladder(profile, scale, n_max, rho2, boundary="neumann_far")


def island_neumann_levels(rho1: float, rho2: float, b: float,
                          n_max: int) -> np.ndarray:
    """Strictly increasing eigenvalues of the magnetic Neumann Laplacian on
    the disk of radius rho2 with field 1 on [rho1, rho2] and 0 inside, on
    the ladder grid ending at the wall rho2.

    As b grows the levels approach the Dirichlet disk levels j^2 / rho1^2
    only at the rate b^{-1/2}: the hole mode leaks into an annulus layer of
    width b^{-1/2}, which acts on the hole as the Robin condition
    u'(rho1) = -c sqrt(b) u(rho1), c = 2 Gamma(3/4) / Gamma(1/4). The
    lowest level sits a relative 2 / (c sqrt(b) rho1) below j01^2 / rho1^2
    to first order; at b = 100, rho1 = 1 the gap is 24.6%.
    """
    return _island_ladder(rho1, rho2, b, n_max).levels


def jn_zeros(nu: int, count: int) -> np.ndarray:
    """`scipy.special.jn_zeros`, imported when called: SciPy's special
    functions are slow to load, and only the disk ladder and the
    quasimode crossover use them."""
    from scipy.special import jn_zeros as zeros
    return zeros(nu, count)


def dirichlet_disk_levels(rho1: float, n_max: int) -> np.ndarray:
    """The n_max + 1 lowest Dirichlet Laplacian eigenvalues j_{nu,k}^2 /
    rho1^2 on the disk of radius rho1, from Bessel zeros (no eigensolve).
    nu <= n_max and k <= n_max + 1 suffice, as j_{nu,k} grows in nu and k;
    distinct orders share no zero and -nu repeats nu."""
    if not (0 < rho1 < math.inf and rho1 * rho1 > 0.0
            and 1.0 / (rho1 * rho1) < math.inf):
        raise ValidationError("rho1 must be positive and finite, with "
                              "1 / rho1^2 finite")
    _check_index(n_max)
    ref = np.sort(np.concatenate(
        [jn_zeros(nu, n_max + 1) ** 2 for nu in range(n_max + 1)]))
    return ref[: n_max + 1] / (rho1 * rho1)


def verify_ah_decay(result: EigenResult, gamma: float, c0: float,
                    doubled: EigenResult | None = None) -> float:
    """Weighted tail integral int (f'^2 + f^2) e^{2 c0 r^{2+gamma}} r dr for
    the lowest eigenfunction; the weight rate must sit below the critical
    1/(2+gamma). With a doubled-domain result, growth beyond 10% is flagged.
    """
    if c0 < 0:
        raise ValidationError("c0 must be >= 0")
    critical = 1.0 / (2.0 + gamma)
    if c0 >= critical:
        raise ValidationError(
            f"c0 = {c0} is at or above the critical rate {critical:.4g}")

    def integral(res: EigenResult) -> float:
        r = res.op.grid.nodes
        f = res.vectors[:, 0]
        # the certified ground state follows the true decay to ~1e-37, then
        # plateaus at solver noise (1e-63 to 1e-69 for gamma = 2, b = 1 at
        # N = 3000, 6000): only the resolved prefix is meaningful, and the
        # weight would amplify the noise plateau without bound
        floor = 1e-30 * np.max(np.abs(f))
        below = np.nonzero(np.abs(f) < floor)[0]
        cut = int(below[0]) if below.size else len(r)
        if cut < 8:
            raise NumericalError("eigenvector unresolved; grid too coarse")
        r, f = r[:cut], f[:cut]
        fp = np.gradient(f, r)
        t = (fp * fp + f * f) * r
        # product in log space: the bare weight overflows long after the
        # eigenfunction has decayed to nothing
        logs = np.where(t > 0.0, np.log(np.where(t > 0.0, t, 1.0))
                        + 2.0 * c0 * r ** (2.0 + gamma), -np.inf)
        if logs[-1] >= np.max(logs) - 10.0:
            raise DecayCheckError(
                f"weighted integrand still growing at the resolution limit "
                f"(c0 = {c0}); the integral diverges or is untrustworthy")
        return float(np.trapezoid(np.exp(logs - np.max(logs)), r)
                     * math.exp(np.max(logs)))

    I = integral(result)
    if doubled is not None:
        I2 = integral(doubled)
        if I2 > 1.10 * I:
            raise DecayCheckError(
                f"weighted integral grew {I2 / I:.3f}x under domain doubling; "
                f"c0 too close to critical or truncation unsafe")
    return I


def verify_island_decay(result: EigenResult, b: float, rho1: float) -> float:
    """Annulus decay integral of the lowest island eigenfunction:

        I(b) = int_{rho1 < r < rho2} (f^2 + f'^2 + (m/r - b a)^2 f^2)
               e^{ sqrt(b) (r - rho1) / 2 } r dr

    For the m = 0 ground state I(b) = O(b^{-1/2}): the eigenfunction enters
    the annulus with amplitude f(rho1) = O(b^{-1/2}) and falls off across a
    layer of width b^{-1/2}, on which f' and b a f are O(1). sqrt(b) I(b)
    tends to L = 2 j01^2 K / (c^2 rho1^3), with c = 2 Gamma(3/4) / Gamma(1/4)
    and K = int_0^inf (g'^2 + s^2 g^2) e^{s/2} ds for the layer profile
    g(s) = D_{-1/2}(sqrt(2) s) / D_{-1/2}(0); L = 25.56 at rho1 = 1.
    """
    op = result.op
    r = op.grid.nodes
    f = result.vectors[:, 0]
    fp = np.gradient(f, r)
    a = np.asarray(op.profile.a(r), dtype=float)
    kin = fp * fp + fiber_potential(op.m, b, r, a, "b") * f * f
    weight = np.exp(0.5 * np.sqrt(b) * (r - rho1))
    mask = r > rho1
    rm = r[mask]
    return float(np.trapezoid(((f * f)[mask] + kin[mask]) * weight[mask] * rm,
                              rm))
