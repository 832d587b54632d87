"""Exact-diagonalization ground truth for the rotated XY chain.

Solves the spin-flip parity blocks of the 2^N spin Hamiltonian for their
low eigenpairs, and computes discrete loop phases as the argument of the
closed product of successive state overlaps.  That product is gauge
invariant once the endpoint state is identified with the start state, so no
phase smoothing of eigenvectors is ever needed.  The full matrix
(``hamiltonian_phi_parts``) is built only as a reference for the tests.

Six structural facts are exploited throughout:

* The chain Hamiltonian commutes with the spin-flip parity prod_l sigma^z_l
  for every rotation angle, so it is block diagonal in the parity basis.
  The paired-mode closed-form solution describes the lowest EVEN-parity
  state; at small N there are parameter pockets (inside lam^2 + gamma^2 < 1)
  where an odd-parity level dips below it, so oracle comparisons are made
  sector-resolved.
* Matrices are assembled bond by bond from index arithmetic on the two
  bits each bond acts on (the bit representation of exact diagonalization:
  Lin, PRB 42, 6561 (1990); Sandvik, AIP Conf. Proc. 1297, 135 (2010)), so
  no Kronecker product is ever formed.  Site 0 is the most significant bit
  of a basis index, and bit value 0 is sigma^z = +1.
* The loop is a rotation: H(phi) = U(phi) H(0) U(phi)^dagger with the
  diagonal U(phi) = exp(i phi S^z / 2), S^z = sum_l sigma^z_l, so the
  eigenvector at phi is U(phi) psi(0).  So every readout comes from a
  memoized, read-only solve of the real H(0); the full matrices are off
  that path.
* The solves run on crystal-momentum blocks.  The periodic chain also
  commutes with the one-site translation T, so a parity block splits into
  blocks k = 2 pi m / N spanned by the orbits of T (Sandvik, section 4), each
  about 1/N of its 2^(N-1) states.  H(0) is real and T a real
  permutation, so H(-k) = conj H(k): only m = 0 .. N/2 are solved, k = 0
  and pi as real blocks, and each level of a complex block stands for a
  +-k pair whose -k vector is the conjugate.  The orbits and each block's
  sparsity pattern are built once per (N, parity) and cached; a point only
  scales three coefficient arrays by (lam, gamma, 1).  One loop
  (``_sector_levels``) solves the blocks in m order and keeps the lowest
  ``keep`` levels.  Once that many are known, a block of 3 rows or more is
  first tested by a Cholesky factorization of H_k - (tau + delta) I, tau
  the keep-th lowest level so far: by Sylvester's law of inertia it
  succeeds only if every level of H_k lies above tau + delta, and then the
  block is not solved.  The margin delta covers rounding in the
  factorization and in the eigensolve, so the levels kept and their bits
  are those of solving every block.  Everything here works on spin states,
  never on the fermion momentum grid of the closed forms.
* The loop serves every reading.  ``loop_states`` keeps LOOP_LEVELS levels,
  expanded to complex parity-block vectors.  Every other reading keeps two:
  the energy, magnetization and S^z cumulants of the even ground state and
  the non-degenerate loop phase of either sector come from one memoized
  reading per point and parity (``_lowest_level``).  The even ground state
  and the level above it sit, at all but a few points such as lam = 0, in
  the k = 0 block (the paired-mode vacuum and its lowest pair excitation
  carry no momentum), so from N = 6 on that reading solves one block.
  Since S^z is constant on an orbit, the lower level's S^z distribution
  takes one weight |c_r|^2 per orbit, with no expansion to parity-block
  coordinates.  ``verify`` reads all its draws at one N in one pass
  (``_even_ground_rows``), which reduces their stacked weights once per
  cumulant.
* So the overlap product has a closed form.  Over the m = steps segments
  of the one circuit phi: 0 -> pi every overlap but the closing one is the
  characteristic function chi(delta) = <psi|exp(i delta S^z / 2)|psi> at
  delta = pi / m, and on one parity block the closing one differs by the
  constant exp(-i pi S^z / 2).  The loop phase of a non-degenerate level
  is m arg chi - pi N / 2 (+ pi in the odd sector), one pass over the
  level's |psi|^2 weights with no loop vectors.  Expanding ln chi in the
  cumulants kappa_n of S^z gives the limit pi (N + <S^z>) / 2 and the
  discretization error -pi^3 kappa_3 / (48 m^2).  Only a degenerate level is stepped around the
  loop, by subspace projection.

Every eigensolve goes through one entry point, ``eigh``.  It calls the
LAPACK driver scipy.linalg.eigh picks by default (?syevr for real blocks,
?heevr for complex ones) with the same arguments, so its eigenpairs are
bit-identical to scipy's, and it keeps the driver's workspace sizes per
(dtype, dim) instead of querying them on every call.  The blocks are small
(dim 4-8 at N = 6), and on them scipy's per-call work costs more than
LAPACK itself.

Dense matrices are capped at N = 10 sites by default; the environment
variable XYBERRY_MAX_N overrides the cap.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import os
import warnings
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple, Optional

import numpy as np
from numpy.linalg import LinAlgError

from .errors import DegenerateLevelWarning, DiscretizationError, ResourceLimitError
from .model import XYParams, _require_count
from .phases import PhaseResult, _require_polar_angle, wrap_angle

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "DEFAULT_MAX_SITES",
    "LoopTrace",
    "eigh",
    "max_sites",
    "check_sites",
    "hamiltonian_phi_parts",
    "total_sz_diagonal",
    "ed_ground_energy",
    "magnetization_ed",
    "sz_cumulants",
    "pancharatnam_phase",
    "loop_states",
    "discrete_loop_phase",
    "spin_half_loop_phase",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

DEFAULT_MAX_SITES = 10

# Eigenvalue distance below which two tracked levels are treated as one
# degenerate cluster (flagged, then tracked by subspace projection).
DEGENERACY_TOL = 1e-8

# Levels computed at the start of a loop: enough to hold the tracked level's
# degenerate cluster and the nearest level above it.
LOOP_LEVELS = 6

# Blocks of at most this many rows are solved whole (see ``_lowest_eigh``).
_SMALL_BLOCK_ROWS = 16

# Entries in each of the two memoized solves.  ``_lowest_level`` keeps a
# parity block's two lowest levels and the lower one's S^z weights, about
# 1 KB at N = 10, for the energy, magnetization, S^z cumulants and
# non-degenerate loop phases; ``verify``'s pass does not keep its readings.
# ``_sector_spectrum`` keeps a parity block's LOOP_LEVELS expanded vectors,
# about 50 KB each at N = 10, for ``loop_states``.
SPECTRUM_CACHE_SIZE = 32


@functools.lru_cache(maxsize=64)
def _evr_driver(dtype: np.dtype, dim: int):
    """The ?syevr (real) or ?heevr (complex) driver, its name and workspace at ``dim``.

    The sizes are the driver's own workspace query, which scipy.linalg.eigh
    repeats on every call; here it runs once per (dtype, dim).  scipy.linalg
    is imported here, not at module level, so the closed-form commands never
    pay for its import.
    """
    from scipy.linalg import get_lapack_funcs

    hermitian = dtype.kind == "c"
    name = "heevr" if hermitian else "syevr"
    driver, query = get_lapack_funcs((name, name + "_lwork"), dtype=dtype)
    label = driver.typecode + name
    *sizes, info = query(n=dim, lower=True)
    if info != 0:
        raise LinAlgError(f"LAPACK {label} workspace query failed (info {info})")
    keys = ("lwork", "lrwork", "liwork") if hermitian else ("lwork", "liwork")
    return driver, label, {key: int(size.real) for key, size in zip(keys, sizes)}


def eigh(a, subset_by_index=None):
    """Ascending eigenvalues and eigenvectors of a real symmetric or complex
    Hermitian matrix, read from its lower triangle.

    This is the LAPACK call scipy.linalg.eigh makes by default (?syevr or
    ?heevr, lower, with vectors), so every eigenpair is bit-identical to
    scipy's; only scipy's per-call argument handling and workspace query
    are left out.  ``subset_by_index=[lo, hi]`` asks for levels lo..hi
    (range 'I') and trims the output to the m levels found.  The input is
    never overwritten.  A non-finite entry raises ValueError before LAPACK
    runs, and a nonzero LAPACK ``info`` raises LinAlgError.  As in scipy, an
    input that is not a square matrix raises ValueError, and a 0 x 0 one has
    no eigenpairs.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError('expected square "a" matrix')
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    if a.size == 0:  # LAPACK takes no order-0 matrix
        return np.empty(0, dtype=a.real.dtype), np.empty((0, 0), dtype=a.dtype)
    driver, label, work = _evr_driver(a.dtype, a.shape[0])
    if subset_by_index is None:
        w, v, _, _, info = driver(a, lower=True, **work)
    else:
        lo, hi = subset_by_index
        w, v, m, _, info = driver(a, range="I", il=lo + 1, iu=hi + 1, lower=True, **work)
        w, v = w[:m], v[:, :m]
    if info != 0:
        raise LinAlgError(f"LAPACK {label} failed (info {info})")
    return w, v


def _lowest_eigh(mat: np.ndarray, count: int):
    """Lowest ``count`` eigenpairs, ascending, from ``eigh``'s ?syevr/?heevr call.

    The pairs are bit-identical to scipy.linalg.eigh's.  A matrix of 1 row
    is its own pair, read without LAPACK: for order 1, ?syevr and ?heevr
    return the real part of the entry and the unit vector.  The subset
    driver occasionally reports an internal error on small matrices with
    tightly clustered eigenvalues; fall back to the full decomposition in
    that case.  It is used outright for half the levels or more, and on
    matrices of at most ``_SMALL_BLOCK_ROWS`` = 16 rows, where the subset
    saves at most about 30 us, and moving the threshold would change the
    last bits of the levels that the artifacts are pinned to.
    """
    dim = mat.shape[0]
    if dim == 1 and math.isfinite(abs(mat.item())):  # ``eigh`` rejects a non-finite entry
        return mat.real[0].copy(), np.ones((1, 1), mat.dtype)
    if count < dim // 2 and dim > _SMALL_BLOCK_ROWS:
        try:
            return eigh(mat, subset_by_index=[0, count - 1])
        except LinAlgError:
            pass
    vals, vecs = eigh(mat)
    if count >= dim:
        return vals, vecs
    return vals[:count].copy(), vecs[:, :count].copy()  # no view pins the full set


@functools.lru_cache(maxsize=4)
def _potrf(dtype: np.dtype):
    """LAPACK's Cholesky factorization ?potrf for ``dtype``, looked up once."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("potrf",), dtype=dtype)[0]


def _holds_no_level_below(h: np.ndarray, tau: float, scale: float) -> bool:
    """True only if every level ``eigh`` computes for ``h`` lies above ``tau``.

    ``h`` is a finite real symmetric or complex Hermitian matrix of order
    n >= 3 with ||h||_2 <= ``scale``; a block of 1 or 2 rows is too small
    for the proof below, and ``_sector_levels`` solves it instead (a block
    of 1 row from its entry, see ``_lowest_eigh``).  The test is a Cholesky
    factorization (?potrf) of A = h - s I, s = fl(tau + delta), on a copy;
    by Sylvester's law of inertia it exists only if every eigenvalue of h
    exceeds s.  The margin is delta = 8 n^2 u (scale + |tau|), u = 2^-53,
    and it covers
    every rounding between that test and the levels ``eigh`` would return:

    * the shift: s >= tau + delta - u |tau + delta|, and subtracting s on
      the diagonal perturbs A by a diagonal D with ||D||_2 <= u (scale + |s|);
    * the factorization: if it runs to completion, the computed factor R
      has a positive diagonal and R^* R = A + E with |E| <= g |R^*| |R|,
      g = gamma_{n+1} = (n+1) u / (1 - (n+1) u) (Higham, Accuracy and
      Stability of Numerical Algorithms, 2nd ed., Thm 10.5); complex
      arithmetic at most doubles g (ibid., section 3.6).  Since
      ||E||_2 <= 2g ||R||_F^2 and ||R||_F^2 = tr(A + E) <= n (scale + |s|)
      / (1 - 2g), ||E||_2 <= 3 n^2 u (scale + |s|) for n >= 3.  A + E =
      R^* R is positive definite, so by Weyl lambda_min(h) > s - ||E||_2 -
      ||D||_2;
    * the eigensolve: ?syevr/?heevr are backward stable, so each computed
      level is within p(n) u ||h||_2 of an exact one (LAPACK Users' Guide,
      section 4.7.1); the Householder tridiagonalization bounds p(n) by a
      small multiple of n^2 (Higham, section 19.3), taken here as 3 n^2.

    With |s| <= |tau| + 2 delta these add to at most (6 n^2 + 2) u (scale +
    |tau|) (1 + 16 n^2 u), which is below delta for 3 <= n <= 10^5, so each
    computed level of h exceeds tau.  A non-finite ``h`` is never
    certified: LAPACK can factor a matrix that holds an infinity, and
    ``eigh`` must be left to reject it.
    """
    dim = h.shape[0]
    if not np.isfinite(h).all():
        return False
    delta = 8.0 * dim * dim * 2.0**-53 * (scale + abs(tau))
    shifted = h.copy()
    shifted.flat[:: dim + 1] -= tau + delta
    # The Fortran-ordered view is the transpose, conj(A): the same levels.
    _, info = _potrf(h.dtype)(shifted.T, lower=True, clean=False, overwrite_a=True)
    return info == 0


def max_sites() -> int:
    """Dense-matrix site cap; XYBERRY_MAX_N overrides the default of 10.

    The variable is read on every call, so a changed value binds at once;
    only its parse is memoized.
    """
    return _parse_max_sites(os.environ.get("XYBERRY_MAX_N"))


@functools.lru_cache(maxsize=8)
def _parse_max_sites(raw: Optional[str]) -> int:
    if raw is None:
        return DEFAULT_MAX_SITES
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"XYBERRY_MAX_N must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise ValueError(f"XYBERRY_MAX_N must be >= 2, got {cap}")
    return cap


def check_sites(n_sites: int):
    _require_count("n_sites", n_sites, 2, even=True)
    cap = max_sites()
    if n_sites > cap:
        raise ResourceLimitError(
            f"n_sites={n_sites} exceeds the dense-matrix cap of {cap} "
            "(set XYBERRY_MAX_N to raise it)"
        )


def hamiltonian_phi_parts(n_sites: int, lam: float, gamma: float):
    """Matrices (M0, Mc, Ms) with H(phi) = M0 + cos(2 phi) Mc + sin(2 phi) Ms.

    Per-site rotation by phi maps the bond couplings onto themselves with
    doubled angle, which is also why H(phi) is pi-periodic.  Each bond
    (l, l + 1) acts on two bits of the basis index:

    * -(XX + YY)/2 flips an antiparallel pair with weight -1 (into M0);
    * -gamma (XX - YY)/2 flips a parallel pair with weight -gamma (into Mc);
    * gamma (XY + YX)/2 flips a parallel pair with weight i gamma (-1)^b,
      b the input bit of site l (into Ms).

    The field -lam sigma^z_l sits on the diagonal of M0.  For N = 2 the
    periodic bond sum visits the single pair twice and the doubled bond is
    kept as written.  No readout calls this, the package's only full-matrix
    builder: it is the tests' reference and the benchmark tracer's assembly.
    """
    check_sites(n_sites)
    d = 2**n_sites
    states = np.arange(d)
    m0 = np.zeros((d, d), dtype=complex)
    mc = np.zeros((d, d), dtype=complex)
    ms = np.zeros((d, d), dtype=complex)
    m0[states, states] = -lam * total_sz_diagonal(n_sites)
    for l in range(n_sites):
        shift_a = n_sites - 1 - l
        shift_b = n_sites - 1 - (l + 1) % n_sites
        bit_a = (states >> shift_a) & 1
        anti = bit_a != (states >> shift_b) & 1
        par = ~anti
        flipped = states ^ ((1 << shift_a) | (1 << shift_b))
        m0[flipped[anti], states[anti]] -= 1.0
        mc[flipped[par], states[par]] -= gamma
        ms[flipped[par], states[par]] += 1j * gamma * (1 - 2 * bit_a[par])
    return m0, mc, ms


def _parity_of(sz: np.ndarray, n_sites: int) -> np.ndarray:
    """Parity (-1)^(down spins) of basis states from their S^z diagonal."""
    down = (n_sites - sz.astype(np.int64)) // 2
    return 1 - 2 * (down % 2)


def total_sz_diagonal(n_sites: int) -> np.ndarray:
    """Diagonal of sum_l sigma^z_l in the computational basis."""
    bits = np.arange(2**n_sites)
    pop = np.zeros(2**n_sites, dtype=np.int64)
    for b in range(n_sites):
        pop += (bits >> b) & 1
    return (n_sites - 2 * pop).astype(float)


class _MomentumBlock(NamedTuple):
    """One crystal-momentum block k = 2 pi m / N of a parity sector.

    Its basis is the momentum states |r(k)> = sum_d e^{-ikd} T^d |r> / sqrt(L_r)
    of the orbit representatives r compatible with k (m L_r = 0 mod N).
    """

    reps: np.ndarray  # layout indices of the block's representatives
    sz: np.ndarray  # S^z of each representative, constant on its orbit
    pos: np.ndarray  # flat positions of the block's nonzero entries
    coef: np.ndarray  # (3, nnz) field, parallel-bond and antiparallel-bond parts
    expand: np.ndarray  # e^{-ikd} / sqrt(L_r) at each parity-block state s = T^d r


class _Layout(NamedTuple):
    """Translation orbits of one parity block and its momentum blocks."""

    states: np.ndarray  # parity-block basis indices, ascending
    sz: np.ndarray
    state_rep: np.ndarray  # layout index of each state's representative
    n_reps: int
    blocks: tuple  # non-empty _MomentumBlock for m = 0 .. N/2


@functools.lru_cache(maxsize=8)
def _translation_layout(n_sites: int, parity: int) -> _Layout:
    """Orbits of the one-site translation T on a parity block, and the blocks.

    T moves site l to l + 1, a right rotation of the index bits.  The
    representative r of an orbit is its smallest index, L_r its length, and
    a state s = T^d r sits at distance d.  A bond flips two bits of r into
    some s = T^d r', and H(0) commutes with T, so on the momentum states

        <r'(k)|H|r(k)> = sum_b h_b e^{ikd} sqrt(L_r / L_r'),

    with h_b = -gamma (parallel pair) or -1 (antiparallel pair), plus
    -lam S^z on the diagonal.  Every sum here runs over arrays of states.
    """
    sz_all = total_sz_diagonal(n_sites)
    states = np.flatnonzero(_parity_of(sz_all, n_sites) == parity)
    sz = sz_all[states]
    orbit = np.empty((n_sites, states.size), dtype=np.int64)  # row d: T^d s
    orbit[0] = states
    for d in range(1, n_sites):
        orbit[d] = (orbit[d - 1] >> 1) | ((orbit[d - 1] & 1) << (n_sites - 1))
    rep = orbit.min(axis=0)
    shift = -np.argmin(orbit, axis=0) % n_sites  # r = T^j s, so s = T^(-j) r
    back = orbit[1:] == states
    length = np.where(back.any(axis=0), np.argmax(back, axis=0) + 1, n_sites)
    is_rep = rep == states
    reps = states[is_rep]
    rep_length = length[is_rep]
    state_rep = np.searchsorted(reps, rep)

    # Bond b maps representative r to the state r ^ mask_b; 2i and 2i + 1
    # lie in opposite sectors, so its parity-block row is (r ^ mask_b) >> 1.
    masks = np.array(
        [(1 << n_sites - 1 - l) | (1 << n_sites - 1 - (l + 1) % n_sites)
         for l in range(n_sites)]
    )
    rows = (reps[:, None] ^ masks) >> 1  # (rep, bond)
    target = state_rep[rows]
    dist = shift[rows]
    parallel = (reps[:, None] & masks) % masks == 0
    source = np.broadcast_to(np.arange(reps.size)[:, None], rows.shape)
    ratio = np.sqrt(rep_length[source] / rep_length[target])

    roots = np.exp(2j * np.pi * np.arange(n_sites) / n_sites)
    blocks = []
    for m in range(n_sites // 2 + 1):
        compatible = m * rep_length % n_sites == 0
        if not compatible.any():
            continue
        real = 2 * m % n_sites == 0  # k = 0 or pi: e^{ikd} = +-1
        slot = np.cumsum(compatible) - 1
        dim = int(slot[-1]) + 1
        keep = compatible[source] & compatible[target]
        phase = roots[m * dist[keep] % n_sites] * ratio[keep]
        flat = slot[target[keep]] * dim + slot[source[keep]]
        # Each entry's column among the distinct positions, diagonal first.
        pos, column = np.unique(np.r_[np.arange(dim) * (dim + 1), flat], return_inverse=True)
        coef = np.zeros((3, pos.size), dtype=complex)
        block_sz = sz[is_rep][compatible]
        coef[0, column[:dim]] = block_sz
        column = column[dim:]
        for row, bonds in ((1, parallel[keep]), (2, ~parallel[keep])):
            terms = phase[bonds]  # bincount sums real weights only
            coef[row] = np.bincount(column[bonds], terms.real, pos.size)
            coef[row] += 1j * np.bincount(column[bonds], terms.imag, pos.size)
        nonzero = coef.any(axis=0)
        pos, coef = pos[nonzero], coef[:, nonzero]
        expand = roots[-m * shift % n_sites] / np.sqrt(length)
        if real:
            coef, expand = coef.real.copy(), expand.real.copy()
        block_sz.setflags(write=False)
        blocks.append(_MomentumBlock(np.flatnonzero(compatible), block_sz, pos, coef, expand))
    for array in (states, sz, state_rep):
        array.setflags(write=False)
    return _Layout(states, sz, state_rep, reps.size, tuple(blocks))


def _sector_spectrum(n_sites: int, lam: float, gamma: float, parity: int):
    """Read-only (lowest min(LOOP_LEVELS, dim) levels, vectors, indices, S^z).

    The vectors are complex, in parity-block coordinates.  The site cap is
    checked before the cache lookup and before any layout is built, so
    lowering it binds.
    """
    check_sites(n_sites)
    return _solve_sector(n_sites, lam, gamma, parity)


def _block_hamiltonian(block: _MomentumBlock, weights: np.ndarray) -> np.ndarray:
    """H(0) on the momentum states of ``block``, as a dense matrix.

    ``weights`` = (-lam, -gamma, -1) scales the block's three coefficient rows.
    """
    dim = block.reps.size
    h = np.zeros((dim, dim), dtype=block.coef.dtype)
    h.flat[block.pos] = weights @ block.coef
    return h


def _norm_bound(n_sites: int, lam: float, gamma: float) -> float:
    """A bound on ||H(0)||_2, and so on that of each block of it.

    Each of the N bonds has norm at most |gamma| + 1 and the field |lam| per site.
    """
    return n_sites * (abs(lam) + abs(gamma) + 1.0)


def _sector_levels(n_sites: int, lam: float, gamma: float, parity: int, keep: int) -> list:
    """The lowest min(``keep``, dim) levels of a parity block, ascending, each as
    (level, block, vector, conjugate).

    The vector is in the momentum coordinates of ``block``, and stands for
    its conjugate if ``conjugate`` (the -k member of a +-k pair).  The
    blocks are solved in m order, each by the same call whatever ``keep``
    is, so a level's bits do not depend on it.  Once ``keep`` levels are
    known, a block of 3 rows or more is first tested by
    ``_holds_no_level_below`` against the keep-th lowest level so far, and
    not solved if it holds none at or below it; the levels kept and their
    bits are then those of solving every block.
    """
    layout = _translation_layout(n_sites, parity)
    count = min(LOOP_LEVELS, layout.states.size)
    scale = _norm_bound(n_sites, lam, gamma)
    weights = np.array([-lam, -gamma, -1.0])
    kept = []  # the lowest levels so far, ascending: (level, block, vectors, column, conjugate)
    for block in layout.blocks:
        dim = block.reps.size
        h = _block_hamiltonian(block, weights)
        if dim >= 3 and len(kept) == keep and _holds_no_level_below(h, kept[-1][0], scale):
            continue
        # H is real and T a real permutation, so H(-k) = conj H(k): each level
        # of a complex block is also a level of -k, with the conjugate
        # vector, and half the count suffices there.
        pair = h.dtype.kind == "c"
        vals, vecs = _lowest_eigh(h, min(-(-count // 2) if pair else count, dim))
        for conj in (False, True) if pair else (False,):
            for j, level in enumerate(vals.tolist()):
                if len(kept) == keep and level >= kept[-1][0]:
                    break  # the block's later levels lie higher still
                # After its ties: tied levels keep the order in which they were found.
                bisect.insort(kept, (level, block, vecs, j, conj), key=itemgetter(0))
                del kept[keep:]
    return [(level, block, vecs[:, j], conj) for level, block, vecs, j, conj in kept]


@functools.lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def _solve_sector(n_sites, lam, gamma, parity):
    layout = _translation_layout(n_sites, parity)
    levels = _sector_levels(n_sites, lam, gamma, parity, LOOP_LEVELS)
    vectors = np.empty((layout.states.size, len(levels)), dtype=complex)
    coeffs = np.zeros(layout.n_reps, dtype=complex)
    for col, (_, block, vector, conj) in enumerate(levels):
        coeffs[:] = 0.0  # a representative incompatible with k expands to 0
        coeffs[block.reps] = vector
        vec = coeffs[layout.state_rep] * block.expand
        vectors[:, col] = vec.conj() if conj else vec
    spectrum = (np.array([level[0] for level in levels]), vectors, layout.states, layout.sz)
    for array in spectrum[:2]:
        array.setflags(write=False)
    return spectrum


@dataclass(frozen=True, eq=False)
class _LowestLevel:
    """A parity block's two lowest levels and the S^z distribution of the lower one.

    ``weights`` are its state's |psi|^2 on the basis states of S^z ``sz``,
    one weight |c_r|^2 per translation orbit of its momentum block: S^z is
    constant on an orbit, so the vector is never expanded to parity-block
    coordinates.  The arrays are read-only.
    """

    energy: float
    next_level: float
    weights: np.ndarray = field(repr=False)
    sz: np.ndarray = field(repr=False)

    @property
    def splitting(self) -> float:
        """E_1 - E_0; below DEGENERACY_TOL the lower level is degenerate."""
        return self.next_level - self.energy

    @functools.cached_property
    def cumulants(self) -> tuple:
        """(kappa_1, ..., kappa_5) of S^z, formed once per reading (see ``sz_cumulants``)."""
        return tuple(map(float, _cumulant_rows(self.weights, self.sz)))


def _cumulant_rows(weights: np.ndarray, sz: np.ndarray) -> tuple:
    """(kappa_1, ..., kappa_5) of S^z for each row of the |psi|^2 ``weights``.

    ``weights`` holds one distribution per row on the basis states of S^z
    ``sz``, along its last axis; a 1-d array is one row.  Each moment is one
    reduction along that axis, and a row's cumulants are bit-identical to
    those of the row alone.
    """
    # add.reduce is the reduction np.sum calls, without its Python wrapper.
    mean = np.add.reduce(sz * weights, axis=-1)
    deviation = sz - mean[..., None]
    mu2, mu3, mu4, mu5 = (np.add.reduce(weights * deviation**k, axis=-1) for k in range(2, 6))
    return mean, mu2, mu3, mu4 - 3.0 * mu2 * mu2, mu5 - 10.0 * mu3 * mu2


def _lowest_level(n_sites: int, lam: float, gamma: float, parity: int) -> _LowestLevel:
    """The memoized lowest-level reading at (N, lam, gamma, parity).

    The site cap is checked before the cache lookup, so lowering it binds.
    """
    check_sites(n_sites)
    return _solve_lowest(n_sites, lam, gamma, parity)


@functools.lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def _solve_lowest(n_sites, lam, gamma, parity) -> _LowestLevel:
    """Read the two lowest levels of ``_sector_levels``, and the lower one's weights."""
    (energy, block, vector, _), (next_level, *_) = _sector_levels(n_sites, lam, gamma, parity, 2)
    weights = np.abs(vector) ** 2
    weights.setflags(write=False)
    return _LowestLevel(energy, next_level, weights, block.sz)


def _even_ground_rows(lam, gamma, n_sites: int, steps: int):
    """(phi_g wrapped, E_0, kappa_1, kappa_3, kappa_5) of the even ground state at
    each point of the 1-d arrays ``lam`` and ``gamma``, from the oracle.

    The oracle's counterpart of ``observables._ground_state_rows``.  Each
    value equals, bit for bit, ``discrete_loop_phase(p, "ground", steps).
    wrapped``, ``ed_ground_energy(p)`` and ``sz_cumulants(p)``'s kappa_1,
    kappa_3 and kappa_5 at that point.  Each point is read by the loop
    ``_solve_lowest`` reads, not memoized; the ground states' |psi|^2
    weights are stacked per momentum block, so each cumulant is one
    reduction over all of them, and exp(i delta S^z / 2) is formed once per
    block.  A ground level degenerate within DEGENERACY_TOL takes
    ``loop_states``.  The site cap is checked before any solve, and
    DiscretizationError is raised at the first point, in order, where the
    per-point readers raise it.
    """
    check_sites(n_sites)
    _require_count("steps", steps, 8)
    points = list(zip(lam.tolist(), gamma.tolist()))
    grounds = [_sector_levels(n_sites, *point, +1, 2) for point in points]
    blocks = {}  # id of a momentum block -> the points whose ground state lies in it
    for i, ((_, block, _, _), _) in enumerate(grounds):
        blocks.setdefault(id(block), []).append(i)
    out = np.empty((5, len(points)))
    overlaps = {}  # point -> its ground state's weights and the kick on its block
    for rows in blocks.values():
        sz = grounds[rows[0]][0][1].sz
        weights = np.abs([grounds[i][0][2] for i in rows]) ** 2
        kappa = _cumulant_rows(weights, sz)
        out[1:, rows] = [grounds[i][0][0] for i in rows], kappa[0], kappa[2], kappa[4]
        kick = _step_kick(sz, steps)
        overlaps.update((i, (row, kick)) for i, row in zip(rows, weights))
    for i, ((energy, *_), (next_level, *_)) in enumerate(grounds):
        if next_level - energy < DEGENERACY_TOL:
            p = XYParams(lam=points[i][0], gamma=points[i][1], n_sites=n_sites)
            out[0, i] = wrap_angle(pancharatnam_phase(loop_states(p, "ground", steps).vectors))
        else:
            chi = _step_overlap(*overlaps[i], steps)
            out[0, i] = _loop_angle(chi, steps, n_sites, False)
    return tuple(out)


def ed_ground_energy(params: XYParams) -> float:
    """Energy of the even-sector ground state (the paired-mode vacuum)."""
    return _lowest_level(params.n_sites, params.lam, params.gamma, +1).energy


def magnetization_ed(params: XYParams) -> float:
    """<sum_l sigma^z_l> on the even-sector ground vector.

    Warns if that level is degenerate within its sector, in which case the
    expectation value is basis dependent.
    """
    ground = _lowest_level(params.n_sites, params.lam, params.gamma, +1)
    if ground.splitting < DEGENERACY_TOL:
        warnings.warn(
            f"even-sector ground state degenerate (splitting {ground.splitting:.3e})",
            DegenerateLevelWarning,
            stacklevel=2,
        )
    return ground.cumulants[0]


def sz_cumulants(params: XYParams) -> tuple:
    """Cumulants (kappa_1, ..., kappa_5) of S^z on the even-sector ground vector.

    ln chi(delta) = sum_n kappa_n (i delta / 2)^n / n!, so the odd cumulants
    set the discrete loop phase: kappa_1 = <S^z> its limit, kappa_3 its
    leading discretization error and kappa_5 the next term.
    """
    return _lowest_level(params.n_sites, params.lam, params.gamma, +1).cumulants


@dataclass
class LoopTrace:
    """Tracked eigenvectors along a closed loop (parity-block coordinates).

    ``vectors`` holds one row per loop point.  The loop is an isospectral
    family, so the level's ``energy`` and its ``gap`` to the next level
    outside its degenerate cluster are one value each.
    """

    vectors: np.ndarray = field(repr=False)
    energy: float
    gap: float
    degenerate: bool


def pancharatnam_phase(vectors) -> float:
    """Phase of the closed overlap product, in (-pi, pi].

    The sign convention of every oracle loop phase: +arg prod_j <psi_j|psi_{j+1}>,
    under which the lower spin-1/2 level acquires +pi on the equatorial loop and
    the chain's ground level reproduces its closed-form phase (mod 2 pi).  Each
    factor is normalized to unit modulus, so long loops cannot underflow.
    """
    states = np.asarray(vectors)
    overlaps = np.einsum("ij,ij->i", states.conj(), np.roll(states, -1, axis=0))
    sizes = np.abs(overlaps)
    orthogonal = np.flatnonzero(sizes == 0.0)
    if orthogonal.size:
        raise DiscretizationError(
            f"orthogonal consecutive states at segment {orthogonal[0]}"
        )
    return float(np.angle(np.prod(overlaps / sizes)))


def _loop_parity(level, steps) -> int:
    """The parity sector of a loop request; ValueError on a bad ``level`` or ``steps``."""
    if level not in ("ground", "excited"):
        raise ValueError(f"level must be 'ground' or 'excited', got {level!r}")
    _require_count("steps", steps, 8)
    return +1 if level == "ground" else -1


def _step_kick(sz: np.ndarray, steps: int) -> np.ndarray:
    """U(delta) = exp(i delta S^z / 2), delta = pi / ``steps``, on basis states of S^z ``sz``."""
    delta = math.pi / steps
    return np.exp(0.5j * delta * sz)


def _step_overlap(weights: np.ndarray, kick: np.ndarray, steps: int) -> complex:
    """chi = <psi(0)|U(delta)|psi(0)>, delta = pi / ``steps``, from the |psi|^2
    ``weights`` and ``kick`` = ``_step_kick`` on the same basis states.

    Raises DiscretizationError when consecutive loop states overlap by
    |chi| < 0.5.
    """
    chi = complex(np.dot(weights, kick))
    if abs(chi) < 0.5:
        raise DiscretizationError(
            f"overlap {abs(chi):.3e} below 0.5 between consecutive loop states "
            f"(step {math.pi / steps:.6f}); refine the loop grid"
        )
    return chi


def _loop_angle(chi: complex, steps: int, n_sites: int, excited: bool) -> float:
    """The loop phase m arg chi - pi N / 2 (+ pi if ``excited``), wrapped to (-pi, pi].

    The closing constant is the sign (-1)^(N/2 + excited): N is even.
    """
    flips = (n_sites // 2 + excited) % 2
    return wrap_angle(steps * cmath.phase(chi) + math.pi * flips)


def loop_states(params: XYParams, level: str, steps: int) -> LoopTrace:
    """Transport one level of H(phi) around the closed circuit phi: 0 -> pi.

    The circuit is cut into ``steps`` equal segments, an integer >= 8: loop
    point j sits at phi_j = params.phi + j delta with delta = pi / steps,
    and the closing overlap reuses the j = 0 state, which makes the overlap
    product gauge invariant.

    level='ground' follows the lowest even-parity state, the paired-mode
    vacuum.  level='excited' follows the lowest odd-parity state.  For
    |lam| > 1 that is the minimum-gap single excitation; inside |lam| < 1 it
    is the ground state's quasi-degenerate parity partner of the ordered
    phase (its splitting closes exponentially in N), not the quasiparticle
    state whose phase the closed-form phi_eg describes.  Since parity
    commutes with H(phi), the level lives in one parity block.  The block's
    shared phi = 0 eigensolve gives the level's vector psi(0); the vector at
    phi_j = params.phi + j delta is U(phi_j) psi(0).  An exactly degenerate
    level is flagged and transported by projecting each vector onto the
    rotated degenerate subspace: in cluster coordinates D the coefficients
    step as a_{j+1} ~ (D^dagger U(-delta) D) a_j.  A +-k pair of crystal
    momentum is such a level; U(delta) commutes with the translation, so its
    kick is a multiple of the identity and the phase does not depend on the
    basis the pair comes in.
    """
    m = steps
    vals, vecs, _, sz = _sector_spectrum(
        params.n_sites, params.lam, params.gamma, _loop_parity(level, steps)
    )
    # Every level outside the cluster lies at least DEGENERACY_TOL above vals[0].
    cluster = vals - vals[0] < DEGENERACY_TOL
    rest = vals[~cluster]
    gap = float(rest[0] - vals[0]) if rest.size else math.inf
    kick = _step_kick(sz, m)
    phi0 = params.phi
    offsets = np.pi * np.arange(m) / m
    rotations = np.exp(0.5j * np.outer(phi0 + offsets, sz))  # row j: U(phi_j)
    degenerate = bool(np.count_nonzero(cluster) > 1)
    if not degenerate:
        _step_overlap(np.abs(vecs[:, 0]) ** 2, kick, m)  # DiscretizationError below 0.5
        vectors = rotations * vecs[:, 0]
    else:
        warnings.warn(
            f"tracked level degenerate at phi={phi0:.6f} "
            f"(splitting < {DEGENERACY_TOL:.0e}); loop phase is "
            "a best-effort subspace projection",
            DegenerateLevelWarning,
            stacklevel=2,
        )
        basis = vecs[:, cluster]
        kick = basis.conj().T @ (kick.conj()[:, None] * basis)
        coeffs = np.zeros((m, basis.shape[1]), dtype=complex)
        coeffs[0, 0] = 1.0
        for j in range(1, m):
            a = kick @ coeffs[j - 1]
            # |a| is the overlap of the previous vector with the projected one.
            norm = np.linalg.norm(a)
            if norm < 0.5:
                raise DiscretizationError(
                    f"overlap {norm:.3e} below 0.5 between steps {j - 1} and {j} "
                    f"(phi={phi0 + offsets[j]:.6f}); refine the loop grid"
                )
            coeffs[j] = a / norm
        vectors = rotations * (coeffs @ basis.T)
    return LoopTrace(vectors, float(vals[0]), gap, degenerate)


def discrete_loop_phase(params: XYParams, level: str, steps: int) -> PhaseResult:
    """Loop phase of one tracked level over one circuit, fixed modulo 2 pi.

    The m = ``steps`` loop states (an integer >= 8, as in ``loop_states``)
    are U(phi_j) psi(0), so each of the first m - 1 overlaps is
    chi = <psi(0)|exp(i delta S^z / 2)|psi(0)> with delta = pi / m.  The closing overlap is chi times exp(-i pi S^z / 2),
    which on one parity block is the constant exp(-i pi N / 2), times -1 in
    the odd block.  So

        phase = m arg chi - pi N / 2 (+ pi if odd)

    (mod 2 pi, signed as in ``pancharatnam_phase``), one sum over the
    level's |psi|^2 weights with no loop vectors, read by ``_lowest_level``
    (one per orbit of the level's momentum block).  Its m -> infinity limit is
    pi (N + <S^z>) / 2; the cumulant expansion of ln chi puts the
    discretization error at -pi^3 kappa_3 / (48 m^2)
    (``observables.phase_magnetization_identity``).  A level degenerate
    within DEGENERACY_TOL takes the stepped subspace projection of
    ``loop_states`` and ``pancharatnam_phase``.  The product determines the
    phase only up to whole turns, so ``value`` and ``wrapped`` coincide
    here; compare against closed forms with a circular distance.
    """
    parity = _loop_parity(level, steps)
    lowest = _lowest_level(params.n_sites, params.lam, params.gamma, parity)
    if lowest.splitting < DEGENERACY_TOL:
        trace = loop_states(params, level, steps)
        return PhaseResult.from_value(pancharatnam_phase(trace.vectors))
    chi = _step_overlap(lowest.weights, _step_kick(lowest.sz, steps), steps)
    return PhaseResult.from_value(_loop_angle(chi, steps, params.n_sites, parity < 0))


def spin_half_loop_phase(theta: float, steps: int, branch: str = "lower") -> PhaseResult:
    """Discrete loop phase of a single spin-1/2 in a precessing unit field.

    The field sits at polar angle theta while its azimuth sweeps 0 -> 2 pi
    over ``steps`` segments.  Serves as the two-level reference case for the
    overlap-product machinery.
    """
    _require_polar_angle(theta)
    _require_count("steps", steps, 8)
    if branch not in ("lower", "upper"):
        raise ValueError(f"branch must be 'lower' or 'upper', got {branch!r}")
    idx = 0 if branch == "lower" else 1
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    vectors = []
    for j in range(steps):
        az = 2.0 * math.pi * j / steps
        h = (
            sin_t * math.cos(az) * PAULI_X
            + sin_t * math.sin(az) * PAULI_Y
            + cos_t * PAULI_Z
        )
        _, vecs = eigh(h)
        vectors.append(vecs[:, idx])
    return PhaseResult.from_value(pancharatnam_phase(vectors))
