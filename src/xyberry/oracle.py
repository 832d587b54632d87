"""Exact-diagonalization ground truth for the rotated XY chain.

Solves the spin-flip parity blocks of the 2^N spin Hamiltonian for their
low eigenpairs, and computes discrete loop phases as the argument of the
closed product of successive state overlaps.  That product is gauge
invariant once the endpoint state is identified with the start state, so no
phase smoothing of eigenvectors is ever needed.  The full matrix
(``hamiltonian_phi_parts``) is built only as a reference for the tests.

Five structural facts are exploited throughout:

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
  eigenvector at phi is U(phi) psi(0).  Energy, magnetization and every
  loop state share ONE memoized, read-only solve of the real phi = 0
  block of a parity sector; the full matrices are off that path.
* That solve runs on crystal-momentum blocks.  The periodic chain also
  commutes with the one-site translation T, so a parity block splits into
  blocks k = 2 pi m / N spanned by the orbits of T (Sandvik, section 4), each
  about 1/N of its 2^(N-1) states.  H(0) is real and T a real
  permutation, so H(-k) = conj H(k): only m = 0 .. N/2 are solved, k = 0
  and pi as real blocks, and each level of a complex block stands for a
  +-k pair whose -k vector is the conjugate.  The lowest LOOP_LEVELS
  levels are expanded back to parity-block coordinates, so the vectors are
  complex.  The orbits and each block's sparsity pattern are built once
  per (N, parity) and cached; a point only scales three coefficient
  arrays by (lam, gamma, 1) and solves the N/2 + 1 small blocks in m
  order.  Once LOOP_LEVELS levels are known, a block of more than 16 rows
  is first tested by a Cholesky factorization of H_k - (tau + delta) I,
  tau the LOOP_LEVELS-th lowest level so far: by Sylvester's law of
  inertia it succeeds only if every level of H_k lies above tau + delta,
  and then the block holds none of the lowest levels and is not solved
  (about half the blocks at N = 10).  The margin delta covers rounding in
  the factorization and in the eigensolve, so the levels kept and their
  bits are those of solving every block.  Everything here works on spin
  states, never on the fermion momentum grid of the closed forms.
* So the overlap product has a closed form.  Over m = steps * windings
  segments every overlap but the closing one is the characteristic
  function chi(delta) = <psi|exp(i delta S^z / 2)|psi> at delta = pi w / m
  (w windings), and on one parity block the closing one differs by the
  constant exp(-i pi w S^z / 2).  The loop phase of a non-degenerate level
  is m arg chi - pi w N / 2 (+ pi w in the odd sector), one O(2^(N-1))
  pass with no loop vectors.  Expanding ln chi in the cumulants kappa_n of
  S^z gives the limit w pi (N + <S^z>) / 2 and the discretization error
  -pi^3 kappa_3 w^3 / (48 m^2).  Only a degenerate level is stepped around
  the loop, by subspace projection.

Every eigensolve goes through one entry point, ``eigh``.  It calls the
LAPACK driver scipy.linalg.eigh picks by default (?syevr for real blocks,
?heevr for complex ones) with the same arguments, so its eigenpairs are
bit-identical to scipy's, and it keeps the driver's workspace sizes per
(dtype, dim) instead of querying them on every call.  The blocks are small
(dim 1-8 at N = 6), and on them scipy's per-call work costs more than
LAPACK itself.

Dense matrices are capped at N = 10 sites by default; the environment
variable XYBERRY_MAX_N overrides the cap.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from numpy.linalg import LinAlgError

from .errors import (
    DegenerateLevelWarning,
    DiscretizationError,
    ResourceLimitError,
    TrackingError,
)
from .model import XYParams
from .phases import PhaseResult, wrap_angle

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "DEFAULT_MAX_SITES",
    "PANCHARATNAM_SIGN",
    "EigenPair",
    "LoopDiscretization",
    "LoopTrace",
    "max_sites",
    "check_sites",
    "hamiltonian_phi_parts",
    "parity_diagonal",
    "parity_indices",
    "total_sz_diagonal",
    "sector_ground",
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

# Sign of the overlap-product phase, fixed once: with +1 the tracked lower
# spin-1/2 level acquires +pi on the equatorial loop and the chain's ground
# level reproduces its closed-form phase (mod 2 pi).
PANCHARATNAM_SIGN = +1

# Eigenvalue distance below which two tracked levels are treated as one
# degenerate cluster (flagged, then tracked by subspace projection).
DEGENERACY_TOL = 1e-8

# Levels computed at the start of a loop: enough to hold the tracked level's
# degenerate cluster and the nearest level above it.
LOOP_LEVELS = 6

# Blocks of at most this many rows are solved whole (see ``_lowest_eigh``)
# and never tested by the Cholesky certificate of ``_holds_no_level_below``.
_SMALL_BLOCK_ROWS = 16

# Parity-block solves memoized by ``_sector_spectrum``: a verify point reads
# one three times (loop, energy, magnetization).  About 50 KB each at N = 10.
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
    runs, and a nonzero LAPACK ``info`` raises LinAlgError.
    """
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
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

    The pairs are bit-identical to scipy.linalg.eigh's.  The subset driver
    occasionally reports an internal error on small matrices with tightly
    clustered eigenvalues; fall back to the full decomposition in that
    case.  It is used outright for half the levels or more, and on blocks
    of at most ``_SMALL_BLOCK_ROWS`` = 16 rows, which the Cholesky
    certificate of ``_solve_sector`` skips too.  There the subset saves at
    most about 30 us per block, and moving the threshold would change the
    last bits of the levels that the artifacts are pinned to.
    """
    dim = mat.shape[0]
    if count < dim // 2 and dim > _SMALL_BLOCK_ROWS:
        try:
            return eigh(mat, subset_by_index=[0, count - 1])
        except LinAlgError:
            pass
    vals, vecs = eigh(mat)
    return vals[:count].copy(), vecs[:, :count].copy()  # no view pins the full set


@functools.lru_cache(maxsize=4)
def _potrf(dtype: np.dtype):
    """LAPACK's Cholesky factorization ?potrf for ``dtype``, looked up once."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("potrf",), dtype=dtype)[0]


def _holds_no_level_below(h: np.ndarray, tau: float, scale: float) -> bool:
    """True only if every level ``eigh`` computes for ``h`` lies above ``tau``.

    ``h`` is a finite real symmetric or complex Hermitian matrix of order n
    with ||h||_2 <= ``scale``.  The test is a Cholesky factorization
    (?potrf) of A = h - s I, s = fl(tau + delta), on a copy; by Sylvester's
    law of inertia it exists only if every eigenvalue of h exceeds s.  The
    margin is delta = 8 n^2 u (scale + |tau|), u = 2^-53, and it covers
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
    """Dense-matrix site cap; XYBERRY_MAX_N overrides the default of 10."""
    raw = os.environ.get("XYBERRY_MAX_N")
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
    if n_sites < 2 or n_sites % 2 != 0:
        raise ValueError(f"n_sites must be an even integer >= 2, got {n_sites}")
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


def parity_diagonal(n_sites: int) -> np.ndarray:
    """Diagonal of the spin-flip parity prod_l sigma^z_l (+/-1 entries)."""
    return _parity_of(total_sz_diagonal(n_sites), n_sites)


def _parity_of(sz: np.ndarray, n_sites: int) -> np.ndarray:
    """Parity (-1)^(down spins) of basis states from their S^z diagonal."""
    down = (n_sites - sz.astype(np.int64)) // 2
    return 1 - 2 * (down % 2)


def parity_indices(n_sites: int):
    """Basis indices of the even (+1) and odd (-1) parity sectors."""
    p = parity_diagonal(n_sites)
    return np.nonzero(p == 1)[0], np.nonzero(p == -1)[0]


def total_sz_diagonal(n_sites: int) -> np.ndarray:
    """Diagonal of sum_l sigma^z_l in the computational basis."""
    bits = np.arange(2**n_sites)
    pop = np.zeros(2**n_sites, dtype=np.int64)
    for b in range(n_sites):
        pop += (bits >> b) & 1
    return (n_sites - 2 * pop).astype(float)


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray


def _gauge_fix(vec: np.ndarray) -> np.ndarray:
    """Rotate the largest-magnitude component to the positive real axis.

    Cosmetic only: every reported phase is gauge invariant by construction
    (enforced by a property test), this just makes vectors reproducible.
    """
    k = int(np.argmax(np.abs(vec)))
    z = vec[k]
    if z == 0:
        return vec
    return vec * (abs(z) / z)


class _MomentumBlock(NamedTuple):
    """One crystal-momentum block k = 2 pi m / N of a parity sector.

    Its basis is the momentum states |r(k)> = sum_d e^{-ikd} T^d |r> / sqrt(L_r)
    of the orbit representatives r compatible with k (m L_r = 0 mod N).
    """

    reps: np.ndarray  # layout indices of the block's representatives
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
        dense = np.zeros((3, dim * dim), dtype=complex)
        dense[0, :: dim + 1] = sz[is_rep][compatible]
        for row, bonds in ((1, parallel[keep]), (2, ~parallel[keep])):
            terms = phase[bonds]  # bincount sums real weights only
            dense[row] = np.bincount(flat[bonds], terms.real, dim * dim)
            dense[row] += 1j * np.bincount(flat[bonds], terms.imag, dim * dim)
        pos = np.flatnonzero(dense.any(axis=0))
        coef = dense[:, pos]
        expand = roots[-m * shift % n_sites] / np.sqrt(length)
        if real:
            coef, expand = coef.real.copy(), expand.real.copy()
        blocks.append(_MomentumBlock(np.flatnonzero(compatible), pos, coef, expand))
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


@functools.lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def _solve_sector(n_sites, lam, gamma, parity):
    layout = _translation_layout(n_sites, parity)
    count = min(LOOP_LEVELS, layout.states.size)
    weights = np.array([-lam, -gamma, -1.0])
    # Each of the N bonds has norm at most |gamma| + 1 and the field |lam|
    # per site, so this bounds ||H(0)||_2 and that of each block of it.
    scale = n_sites * (abs(lam) + abs(gamma) + 1.0)
    values, levels = [], []  # levels: (block, eigenvectors, column, conjugate)
    for block in layout.blocks:
        dim = block.reps.size
        h = np.zeros((dim, dim), dtype=block.coef.dtype)
        h.flat[block.pos] = weights @ block.coef
        if dim > _SMALL_BLOCK_ROWS and len(levels) >= count:
            # A block with no level at or below the count-th lowest so far
            # (a +-k level counted twice) adds nothing to the stable argsort.
            tau = float(np.partition(np.concatenate(values), count - 1)[count - 1])
            if _holds_no_level_below(h, tau, scale):
                continue
        # H is real and T a real permutation, so H(-k) = conj H(k): each level
        # of a complex block is also a level of -k, with the conjugate
        # vector, and half the count suffices there.
        pair = np.iscomplexobj(h)
        vals, vecs = _lowest_eigh(h, min(-(-count // 2) if pair else count, dim))
        for conj in (False, True) if pair else (False,):
            values.append(vals)
            levels.extend((block, vecs, j, conj) for j in range(vals.size))
    values = np.concatenate(values)
    order = np.argsort(values, kind="stable")[:count]
    vectors = np.empty((layout.states.size, count), dtype=complex)
    coeffs = np.zeros(layout.n_reps, dtype=complex)
    for col, i in enumerate(order):
        block, vecs, j, conj = levels[i]
        coeffs[:] = 0.0  # a representative incompatible with k expands to 0
        coeffs[block.reps] = vecs[:, j]
        vec = coeffs[layout.state_rep] * block.expand
        vectors[:, col] = vec.conj() if conj else vec
    spectrum = (values[order], vectors, layout.states, layout.sz)
    for array in spectrum[:2]:
        array.setflags(write=False)
    return spectrum


def sector_ground(params: XYParams, parity: int = +1) -> EigenPair:
    """Lowest eigenpair within one spin-flip parity sector.

    parity=+1 is the sector of the paired-mode closed forms.  The vector is
    U(phi) psi(0), returned embedded in the full 2^N basis.
    """
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    vals, vecs, states, sz = _sector_spectrum(
        params.n_sites, params.lam, params.gamma, parity
    )
    full = np.zeros(2**params.n_sites, dtype=complex)
    full[states] = np.exp(0.5j * params.phi * sz) * vecs[:, 0]
    return EigenPair(float(vals[0]), _gauge_fix(full))


def ed_ground_energy(params: XYParams) -> float:
    """Energy of the even-sector ground state (the paired-mode vacuum)."""
    vals, _, _, _ = _sector_spectrum(params.n_sites, params.lam, params.gamma, +1)
    return float(vals[0])


def magnetization_ed(params: XYParams) -> float:
    """<sum_l sigma^z_l> on the even-sector ground vector.

    Warns if that level is degenerate within its sector, in which case the
    expectation value is basis dependent.
    """
    vals, vecs, _, sz = _sector_spectrum(params.n_sites, params.lam, params.gamma, +1)
    if vals[1] - vals[0] < DEGENERACY_TOL:
        warnings.warn(
            f"even-sector ground state degenerate (splitting {vals[1] - vals[0]:.3e})",
            DegenerateLevelWarning,
            stacklevel=2,
        )
    return float(np.sum(sz * np.abs(vecs[:, 0]) ** 2))


def sz_cumulants(params: XYParams) -> tuple:
    """Cumulants (kappa_1, ..., kappa_5) of S^z on the even-sector ground vector.

    ln chi(delta) = sum_n kappa_n (i delta / 2)^n / n!, so the odd cumulants
    set the discrete loop phase: kappa_1 = <S^z> its limit, kappa_3 its
    leading discretization error and kappa_5 the next term.
    """
    _, vecs, _, sz = _sector_spectrum(params.n_sites, params.lam, params.gamma, +1)
    weights = np.abs(vecs[:, 0]) ** 2
    mean = float(np.sum(sz * weights))
    mu2, mu3, mu4, mu5 = (float(np.sum(weights * (sz - mean) ** k)) for k in range(2, 6))
    return mean, mu2, mu3, mu4 - 3.0 * mu2 * mu2, mu5 - 10.0 * mu3 * mu2


@dataclass(frozen=True)
class LoopDiscretization:
    """Uniform grid phi_j = j pi / steps, j = 0..steps, endpoint identified.

    The closing overlap reuses the j = 0 state; the endpoint is never
    re-diagonalized, which is what makes the product gauge invariant.
    """

    steps: int

    def __post_init__(self):
        if self.steps < 8:
            raise ValueError(f"steps must be >= 8, got {self.steps}")

    @property
    def phis(self) -> np.ndarray:
        return np.pi * np.arange(self.steps + 1) / self.steps


@dataclass
class LoopTrace:
    """Tracked eigenvectors along a closed loop (block coordinates).

    ``vectors`` holds one row per loop point; ``energies`` and ``gaps`` are
    constant along the loop, which is an isospectral family.
    """

    params: XYParams
    level: str
    phis: np.ndarray
    vectors: np.ndarray = field(repr=False)
    energies: np.ndarray
    gaps: np.ndarray
    degenerate: bool


def pancharatnam_phase(vectors) -> float:
    """Phase of the closed overlap product, in (-pi, pi].

    Each factor is normalized to unit modulus before accumulating, so long
    loops cannot underflow; only the argument matters.
    """
    states = np.asarray(vectors)
    overlaps = np.einsum("ij,ij->i", states.conj(), np.roll(states, -1, axis=0))
    sizes = np.abs(overlaps)
    orthogonal = np.flatnonzero(sizes == 0.0)
    if orthogonal.size:
        raise DiscretizationError(
            f"orthogonal consecutive states at segment {orthogonal[0]}"
        )
    return PANCHARATNAM_SIGN * float(np.angle(np.prod(overlaps / sizes)))


class _LoopStart(NamedTuple):
    """A tracked level's checked start: its block spectrum and loop grid."""

    vals: np.ndarray
    vecs: np.ndarray
    sz: np.ndarray
    cluster: np.ndarray  # mask of the tracked level's degenerate cluster
    gap: float
    steps: int  # m = loop.steps * windings segments
    chi: Optional[complex]  # <psi(0)|U(delta)|psi(0)>; None for a degenerate cluster


def _loop_start(params, level, loop, windings, gap_tol) -> _LoopStart:
    """Validate a loop request and run the checks every loop readout shares.

    Raises ValueError on a bad ``level`` or ``windings``, TrackingError when
    the tracked level's cluster lies within ``gap_tol`` of the next level,
    and, for a non-degenerate level, DiscretizationError when consecutive
    loop states overlap by |chi| < 0.5.  A degenerate cluster's projection
    checks each of its steps itself.
    """
    if level not in ("ground", "excited"):
        raise ValueError(f"level must be 'ground' or 'excited', got {level!r}")
    if windings < 1:
        raise ValueError(f"windings must be >= 1, got {windings}")
    parity = +1 if level == "ground" else -1
    vals, vecs, _, sz = _sector_spectrum(params.n_sites, params.lam, params.gamma, parity)

    # Gap from the tracked level's degenerate cluster to the nearest level
    # outside it; below tolerance the adiabatic level is ill-defined.
    cluster = vals - vals[0] < DEGENERACY_TOL
    rest = vals[~cluster]
    gap = float(rest[0] - vals[0]) if rest.size else math.inf
    if gap < gap_tol:
        raise TrackingError(
            f"spectral gap {gap:.3e} below tolerance {gap_tol:.1e} at phi={params.phi:.6f}"
        )

    m = loop.steps * windings
    chi = None
    if np.count_nonzero(cluster) == 1:
        delta = math.pi * windings / m
        chi = complex(np.dot(np.abs(vecs[:, 0]) ** 2, np.exp(0.5j * delta * sz)))
        if abs(chi) < 0.5:
            raise DiscretizationError(
                f"overlap {abs(chi):.3e} below 0.5 between consecutive loop states "
                f"(step {delta:.6f}); refine the loop grid"
            )
    return _LoopStart(vals, vecs, sz, cluster, gap, m, chi)


def loop_states(
    params: XYParams,
    level: str,
    loop: LoopDiscretization,
    windings: int = 1,
    gap_tol: float = 1e-9,
) -> LoopTrace:
    """Transport one level of H(phi) around ``windings`` closed circuits.

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
    start = _loop_start(params, level, loop, windings, gap_tol)
    vals, vecs, sz, cluster, m = start.vals, start.vecs, start.sz, start.cluster, start.steps
    phi0 = params.phi
    offsets = np.pi * windings * np.arange(m) / m
    rotations = np.exp(0.5j * np.outer(phi0 + offsets, sz))  # row j: U(phi_j)
    degenerate = start.chi is None
    if not degenerate:
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
        step = np.exp(0.5j * offsets[1] * sz)  # U(delta)
        kick = basis.conj().T @ (step.conj()[:, None] * basis)
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
    energies = np.full(m, vals[0])
    gaps = np.full(m, start.gap)
    return LoopTrace(params, level, phi0 + offsets, vectors, energies, gaps, degenerate)


def discrete_loop_phase(
    params: XYParams,
    level: str,
    loop: LoopDiscretization,
    windings: int = 1,
    gap_tol: float = 1e-9,
) -> PhaseResult:
    """Loop phase of one tracked level, fixed modulo 2 pi.

    The m = loop.steps * windings loop states are U(phi_j) psi(0), so each
    of the first m - 1 overlaps is chi = <psi(0)|exp(i delta S^z / 2)|psi(0)>
    with delta = pi windings / m.  The closing overlap is chi times
    exp(-i pi windings S^z / 2), which on one parity block is the constant
    exp(-i pi windings N / 2), times (-1)^windings in the odd block.  So

        phase = m arg chi - pi windings N / 2 (+ pi windings if odd)

    (times PANCHARATNAM_SIGN, mod 2 pi), at O(2^(N-1)) cost and with no loop
    vectors.  Its m -> infinity limit is windings pi (N + <S^z>) / 2; the cumulant
    expansion of ln chi puts the discretization error at
    -pi^3 kappa_3 windings^3 / (48 m^2), kappa_3 the third cumulant of S^z.
    A degenerate level takes the stepped subspace projection of
    ``loop_states`` and ``pancharatnam_phase``.  The product determines the
    phase only up to whole turns, so ``value`` and ``wrapped`` coincide
    here; compare against closed forms with a circular distance.
    """
    start = _loop_start(params, level, loop, windings, gap_tol)
    if start.chi is None:
        trace = loop_states(params, level, loop, windings=windings, gap_tol=gap_tol)
        return PhaseResult.from_value(pancharatnam_phase(trace.vectors), winding=windings)
    # The closing constant is the sign (-1)^(windings (N/2 + odd)): N is even.
    flips = windings * (params.n_sites // 2 + (level == "excited")) % 2
    angle = start.steps * cmath.phase(start.chi) + math.pi * flips
    return PhaseResult.from_value(wrap_angle(PANCHARATNAM_SIGN * angle), winding=windings)


def spin_half_loop_phase(theta: float, steps: int, branch: str = "lower") -> PhaseResult:
    """Discrete loop phase of a single spin-1/2 in a precessing unit field.

    The field sits at polar angle theta while its azimuth sweeps 0 -> 2 pi
    over ``steps`` segments.  Serves as the two-level reference case for the
    overlap-product machinery.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if steps < 8:
        raise ValueError(f"steps must be >= 8, got {steps}")
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
