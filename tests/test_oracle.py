"""Full-matrix assembly, sector eigenpairs, and discrete loop phases."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigh

from xyberry import (
    DegenerateLevelWarning,
    DiscretizationError,
    ResourceLimitError,
    XYParams,
    circular_distance,
    discrete_loop_phase,
    ground_energy,
    ground_phase,
    loop_states,
    magnetization_analytic,
    magnetization_ed,
    pancharatnam_phase,
    relative_phase_finite,
    spin_half_loop_phase,
    spin_half_phase,
    wrap_angle,
)
from xyberry import cli, model, oracle
from xyberry.cli import (
    VERIFY_ENERGY_TOL,
    VERIFY_MAGNETIZATION_TOL,
    draw_noncritical_points,
)
from xyberry.oracle import (
    ed_ground_energy,
    hamiltonian_phi_parts,
    total_sz_diagonal,
)

import verify_reference
from oracle_reference import solve_every_block, translation_layout_dense


def params(lam, gamma, n, phi=0.0):
    return XYParams(lam=lam, gamma=gamma, n_sites=n, phi=phi)


def parity_states(n, parity):
    """Basis indices of one spin-flip parity block, ascending."""
    return np.flatnonzero(oracle._parity_of(total_sz_diagonal(n), n) == parity)


def dense_hamiltonian(n, lam, gamma, phi):
    """H(phi) = M0 + cos(2 phi) Mc + sin(2 phi) Ms from the oracle's full-matrix parts."""
    m0, mc, ms = hamiltonian_phi_parts(n, lam, gamma)
    return m0 + math.cos(2.0 * phi) * mc + math.sin(2.0 * phi) * ms


# Test-only references, independent of the oracle's bitwise assembly and of
# its one-eigensolve loop transport.
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _placed(ops, n):
    """Kronecker product over sites 0..n-1 (site 0 leftmost) of ops[site] or 1."""
    out = np.ones((1, 1), dtype=complex)
    for site in range(n):
        out = np.kron(out, ops.get(site, np.eye(2)))
    return out


def kronecker_parts(n, lam, gamma):
    """(M0, Mc, Ms) summed term by term from 2^N x 2^N Kronecker products."""
    d = 2**n
    m0, mc, ms = (np.zeros((d, d), dtype=complex) for _ in range(3))
    for l in range(n):
        nxt = (l + 1) % n
        xx = _placed({l: _X, nxt: _X}, n)
        yy = _placed({l: _Y, nxt: _Y}, n)
        xy = _placed({l: _X, nxt: _Y}, n)
        yx = _placed({l: _Y, nxt: _X}, n)
        m0 -= 0.5 * (xx + yy) + lam * _placed({l: _Z}, n)
        mc -= 0.5 * gamma * (xx - yy)
        ms += 0.5 * gamma * (xy + yx)
    return m0, mc, ms


def sector_hamiltonian(n, lam, gamma, parity):
    """(block, basis indices, S^z) of the real phi = 0 parity block H(0) = M0 + Mc.

    The dense reference for the oracle's momentum-block solve.  A bond flips
    both its bits (weight -gamma if parallel, -1 if not), so it keeps parity.
    2k and 2k + 1 lie in opposite sectors: index >> 1 is the row.
    """
    states = parity_states(n, parity)
    sz = total_sz_diagonal(n)[states]
    rows = np.arange(states.size)
    h0 = np.zeros((states.size, states.size))
    h0[rows, rows] = -lam * sz
    for l in range(n):
        mask = (1 << n - 1 - l) | (1 << n - 1 - (l + 1) % n)
        parallel = (states & mask) % mask == 0
        h0[(states ^ mask) >> 1, rows] -= np.where(parallel, gamma, 1.0)
    return h0, states, sz


def rediagonalized_loop_phase(p, level, steps):
    """Loop phase from an eigensolve at every step and argmax-overlap tracking."""
    n = p.n_sites
    popcount = np.array([bin(i).count("1") for i in range(2**n)])
    parity = 0 if level == "ground" else 1
    block = np.ix_(popcount % 2 == parity, popcount % 2 == parity)
    m0, mc, ms = (m[block] for m in kronecker_parts(n, p.lam, p.gamma))
    vectors = []
    for phi in p.phi + np.pi * np.arange(steps) / steps:
        vals, vecs = eigh(m0 + np.cos(2 * phi) * mc + np.sin(2 * phi) * ms)
        assert vals[1] - vals[0] > 1e-6, "reference needs a non-degenerate level"
        k = 0 if not vectors else int(np.argmax(np.abs(vecs[:, :4].conj().T @ vectors[-1])))
        vectors.append(vecs[:, k])
    prod = 1.0 + 0.0j
    for a, b in zip(vectors, vectors[1:] + vectors[:1]):
        ov = np.vdot(a, b)
        prod *= ov / abs(ov)
    return float(np.angle(prod))


class TestAssembly:
    def test_two_site_exchange_spectrum(self):
        # Periodic N=2 visits the single bond twice, so the matrix is the
        # doubled exchange -(XX + YY) with spectrum {-2, 0, 0, 2}.
        h = dense_hamiltonian(2, 0.0, 0.0, 0.0)
        vals = np.linalg.eigvalsh(h)
        assert vals == pytest.approx([-2.0, 0.0, 0.0, 2.0], abs=1e-12)

    def test_hermiticity(self):
        h = dense_hamiltonian(6, 0.7, 0.3, 0.9)
        dev = np.max(np.abs(h - h.conj().T))
        assert dev < 1e-13

    def test_isospectral_under_rotation(self):
        h0 = dense_hamiltonian(6, 0.5, 0.5, 0.0)
        h1 = dense_hamiltonian(6, 0.5, 0.5, 1.234)
        v0 = np.linalg.eigvalsh(h0)
        v1 = np.linalg.eigvalsh(h1)
        assert np.max(np.abs(v0 - v1)) < 1e-12

    def test_pi_periodicity_entrywise(self):
        for phi in (0.0, 0.4, 2.0):
            a = dense_hamiltonian(4, 0.8, 0.6, phi)
            b = dense_hamiltonian(4, 0.8, 0.6, phi + np.pi)
            assert np.max(np.abs(a - b)) < 1e-13

    def test_conjugation_equals_rotated_couplings(self):
        # H(phi) = U(phi) H(0) U(phi)^dagger with U(phi) = exp(i phi S^z / 2):
        # the identity behind the oracle's U(phi) psi(0) readouts.
        h0 = dense_hamiltonian(4, 0.5, 0.8, 0.0)
        for phi in (0.0, 0.3, 1.1, 2.9):
            u = np.exp(0.5j * phi * total_sz_diagonal(4))
            a = (u[:, None] * h0) * u.conj()[None, :]
            b = dense_hamiltonian(4, 0.5, 0.8, phi)
            assert np.max(np.abs(a - b)) < 1e-13

    def test_site_cap(self):
        with pytest.raises(ResourceLimitError):
            hamiltonian_phi_parts(12, 0.5, 0.5)

    def test_non_integer_sites_rejected(self):
        for bad in (4.0, np.float64(6.0), 4.5):
            with pytest.raises(ValueError, match="n_sites must be an even integer"):
                oracle.check_sites(bad)
            with pytest.raises(ValueError, match="n_sites must be an even integer"):
                hamiltonian_phi_parts(bad, 0.5, 0.5)
        oracle.check_sites(np.int64(4))

    def test_site_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("XYBERRY_MAX_N", "4")
        with pytest.raises(ResourceLimitError):
            hamiltonian_phi_parts(6, 0.5, 0.5)
        with pytest.raises(ResourceLimitError):
            ed_ground_energy(params(0.5, 0.5, 6))
        # A raised cap admits N = 12 through the parity-block solve (about
        # 120 MB, against 1.3 GB for the full complex matrix) and binds above.
        monkeypatch.setenv("XYBERRY_MAX_N", "12")
        p = params(0.5, 0.5, 12)
        assert abs(ed_ground_energy(p) - ground_energy(p)) < VERIFY_ENERGY_TOL
        with pytest.raises(ResourceLimitError):
            ed_ground_energy(params(0.5, 0.5, 14))

    def test_spectrum_symmetric_under_field_flip(self):
        # Global spin flip about x maps lam -> -lam.
        a = np.linalg.eigvalsh(dense_hamiltonian(6, 0.7, 0.6, 0.0))
        b = np.linalg.eigvalsh(dense_hamiltonian(6, -0.7, 0.6, 0.0))
        assert np.max(np.abs(a - b)) < 1e-12


class TestAssemblyReference:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_bitwise_matches_kronecker(self, n):
        for lam, gamma in ((0.3, 0.7), (-1.2, 0.4), (1.0, 1.3)):
            got = hamiltonian_phi_parts(n, lam, gamma)
            want = kronecker_parts(n, lam, gamma)
            for a, b in zip(got, want):
                assert np.max(np.abs(a - b)) <= 1e-14


class TestSectorSpectrum:
    """The one cached phi = 0 parity-block solve behind the sector readouts."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("parity", [+1, -1])
    def test_block_matches_full_assembly(self, n, parity):
        # N = 2 is where the periodic bond sum visits the single pair twice.
        # The dense block is the reference of TestMomentumBlocks; the
        # oracle's spectrum must report the same basis and S^z.
        idx = parity_states(n, parity)
        for lam, gamma in ((0.3, 0.7), (-1.2, 0.4), (1.0, 1.3)):
            m0, mc, _ = hamiltonian_phi_parts(n, lam, gamma)
            block, states, sz = sector_hamiltonian(n, lam, gamma, parity)
            assert block.dtype == np.float64
            assert np.array_equal(states, idx)
            assert np.array_equal(sz, total_sz_diagonal(n)[idx])
            assert np.max(np.abs(block - (m0 + mc)[np.ix_(idx, idx)])) <= 1e-14
            _, _, got_states, got_sz = oracle._sector_spectrum(n, lam, gamma, parity)
            assert np.array_equal(got_states, idx)
            assert np.array_equal(got_sz, sz)

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("parity", [+1, -1])
    def test_rotated_readouts_match_plain_eigh(self, n, parity):
        # Each readout at phi != 0 comes from the phi = 0 solve and U(phi);
        # the reference diagonalizes the parity slice of H(phi) itself.
        rng = np.random.default_rng(40 + n)
        idx = parity_states(n, parity)
        sz = total_sz_diagonal(n)[idx]
        for lam, gamma in draw_noncritical_points(rng, 3):
            phi = float(rng.uniform(0.1, np.pi - 0.1))
            p = params(lam, gamma, n, phi=phi)
            h = dense_hamiltonian(n, lam, gamma, phi)[np.ix_(idx, idx)]
            vals, vecs = eigh(h)
            assert vals[1] - vals[0] > 1e-6, "reference needs a non-degenerate level"
            level = "ground" if parity == +1 else "excited"
            trace = loop_states(p, level, 16)
            assert abs(trace.energy - vals[0]) <= 1e-12
            assert abs(np.vdot(trace.vectors[0], vecs[:, 0])) >= 1 - 1e-12
            if parity == +1:
                assert abs(ed_ground_energy(p) - vals[0]) <= 1e-12
                want = float(np.sum(sz * np.abs(vecs[:, 0]) ** 2))
                assert abs(magnetization_ed(p) - want) <= 1e-12

    def test_site_cap_checked_on_cache_hits(self, monkeypatch):
        p = params(0.4, 0.6, 6)
        monkeypatch.setenv("XYBERRY_MAX_N", "6")
        energy = ed_ground_energy(p)
        for level in ("ground", "excited"):
            loop_states(p, level, 16)
        readers = (oracle._solve_lowest, oracle._solve_sector, oracle._parse_max_sites)
        hits = [reader.cache_info().hits for reader in readers]
        assert ed_ground_energy(p) == energy
        loop_states(p, "ground", 16)
        assert [reader.cache_info().hits for reader in readers] == [
            hits[0] + 1, hits[1] + 1, hits[2] + 2
        ]
        monkeypatch.setenv("XYBERRY_MAX_N", "4")

        def no_solve(*args, **kwargs):
            raise AssertionError("solve before the site cap")

        def verify_pass(p):
            return oracle._even_ground_rows(np.array([p.lam]), np.array([p.gamma]), p.n_sites, 16)

        monkeypatch.setattr(oracle, "eigh", no_solve)
        for read in (ed_ground_energy, magnetization_ed, oracle.sz_cumulants, verify_pass):
            with pytest.raises(ResourceLimitError):
                read(p)
        for level in ("ground", "excited"):
            with pytest.raises(ResourceLimitError):
                loop_states(p, level, 16)
            with pytest.raises(ResourceLimitError):
                discrete_loop_phase(p, level, 16)

    def test_degenerate_warning_on_every_call(self):
        # Same in-sector crossing as TestMagnetizationED; the second call is a
        # cache hit and must warn again.
        p = params(float(np.cos(np.pi / 4)), 0.0, 4)
        with pytest.warns(DegenerateLevelWarning):
            first = magnetization_ed(p)
        hits = oracle._solve_lowest.cache_info().hits
        with pytest.warns(DegenerateLevelWarning):
            assert magnetization_ed(p) == first
        assert oracle._solve_lowest.cache_info().hits == hits + 1

    def test_returned_arrays_cannot_write_the_cache(self):
        p = params(0.5, 0.5, 4)
        spectrum = oracle._sector_spectrum(4, 0.5, 0.5, +1)
        for array in spectrum:
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            spectrum[1][0, 0] = 1.0
        for parity in (+1, -1):  # complex levels of +-k pairs included
            for array in oracle._sector_spectrum(6, 1.5, 0.6, parity):
                assert not array.flags.writeable
        magnetization = magnetization_ed(p)
        trace = loop_states(p, "ground", 16)
        trace.vectors[:] = 0.0
        again = loop_states(p, "ground", 16)
        assert np.linalg.norm(again.vectors[0]) == pytest.approx(1.0, abs=1e-12)
        assert magnetization_ed(p) == magnetization


def _read_lowest_from(monkeypatch, spectrum):
    """Make the lowest-level readings take the levels and vectors of ``spectrum``
    (in parity-block coordinates) as those of the one solve loop, uncached."""
    vals, vecs, _, sz = spectrum
    block = SimpleNamespace(sz=sz)  # the one field a reading takes from a block

    def levels(n, lam, gamma, parity, keep):
        one = [(vals[j], block, vecs[:, j], False) for j in range(min(keep, vals.size))]
        return [one for _ in lam]

    monkeypatch.setattr(oracle, "_sector_levels", levels)
    monkeypatch.setattr(oracle, "_lowest_level", oracle._solve_lowest.__wrapped__)


def _momentum_points(rng):
    """Seeded points with lam < 0, with |gamma| > 1 and with lam = 0."""
    return (
        (float(rng.uniform(-2.0, -0.1)), float(rng.uniform(-0.9, 0.9))),
        (float(rng.uniform(-2.0, 2.0)), float(rng.choice([-1, 1]) * rng.uniform(1.1, 3.0))),
        (0.0, float(rng.uniform(0.1, 0.9))),
    )


def _is_complex(vec):
    """True unless ``vec`` is a real vector times one global phase."""
    k = int(np.argmax(np.abs(vec)))
    return np.max(np.abs((vec * np.conj(vec[k]) / abs(vec[k])).imag)) > 1e-10


class TestMomentumBlocks:
    """The momentum-block solve against the dense parity block."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("parity", [+1, -1])
    def test_levels_and_vectors_match_dense_block(self, n, parity):
        rng = np.random.default_rng(100 + n + (parity > 0))
        complex_levels = 0
        for lam, gamma in _momentum_points(rng):
            vals, vecs, _, _ = oracle._sector_spectrum(n, lam, gamma, parity)
            block, _, _ = sector_hamiltonian(n, lam, gamma, parity)
            count = min(oracle.LOOP_LEVELS, block.shape[0])
            assert vals.shape == (count,) and vecs.shape == (block.shape[0], count)
            want = np.linalg.eigvalsh(block)[:count]
            where = (n, parity, lam, gamma)
            assert np.max(np.abs(vals - want)) <= 1e-13, where
            residual = np.linalg.norm(block @ vecs - vecs * vals, axis=0)
            assert np.max(residual) <= 1e-13, where
            gram = vecs.conj().T @ vecs
            assert np.max(np.abs(gram - np.eye(count))) <= 1e-13, where
            complex_levels += sum(_is_complex(v) for v in vecs.T)
        # k = 0 and pi are the only momenta at N = 2; from N = 4 on the
        # residuals must reach the expansion of some +-k pair.
        assert (complex_levels > 0) == (n >= 4)

    def test_pm_k_pair_is_projected_like_the_dense_path(self, monkeypatch):
        # No physical point has a +-k pair as its lowest odd level (the
        # lowest odd level sits at k = 0 or pi), so the pair above it is
        # exposed by dropping level 0, in both solves alike.
        n, lam, gamma = 6, 1.5, 0.6
        vals, vecs, states, sz = oracle._sector_spectrum(n, lam, gamma, -1)
        assert vals[1] == vals[2] and vals[2] - vals[0] > 1.0 and vals[3] - vals[2] > 1.0
        assert _is_complex(vecs[:, 1])
        assert np.max(np.abs(vecs[:, 2] - vecs[:, 1].conj())) <= 1e-15
        block, _, _ = sector_hamiltonian(n, lam, gamma, -1)
        dense_vals, dense_vecs = eigh(block)
        pair = (vals[1:], vecs[:, 1:], states, sz)
        p = params(lam, gamma, n, phi=0.4)
        steps = 200
        phases = []
        for spectrum in ((dense_vals[1:6], dense_vecs[:, 1:6], states, sz), pair):
            monkeypatch.setattr(oracle, "_sector_spectrum", lambda *args: spectrum)
            _read_lowest_from(monkeypatch, spectrum)
            with pytest.warns(DegenerateLevelWarning):
                assert loop_states(p, "excited", steps).degenerate
            with pytest.warns(DegenerateLevelWarning):
                phases.append(discrete_loop_phase(p, "excited", steps).wrapped)
        assert circular_distance(*phases) <= 1e-10
        # Readouts of one complex vector of the pair weigh it by |psi|^2,
        # in parity-block coordinates and in those of its momentum block.
        want = np.vdot(vecs[:, 1], sz * vecs[:, 1]).real
        with pytest.warns(DegenerateLevelWarning):
            assert magnetization_ed(p) == pytest.approx(want, abs=1e-12)
        assert oracle.sz_cumulants(p)[0] == pytest.approx(want, abs=1e-12)
        monkeypatch.undo()
        levels, = oracle._sector_levels(n, (lam,), (gamma,), -1, 3)
        # The pair is one vector of a complex block, read plain and conjugated.
        assert [level[3] for level in levels[1:]] == [False, True]
        assert np.iscomplexobj(levels[1][2]) and np.array_equal(levels[1][2], levels[2][2])
        monkeypatch.setattr(oracle, "_sector_levels", lambda *args: [levels[1:]])
        lowest = oracle._solve_lowest.__wrapped__(n, lam, gamma, -1)
        assert lowest.splitting == 0.0 and lowest.sz.size < sz.size
        assert lowest.cumulants[0] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("parity", [+1, -1])
    def test_sparse_layout_equals_the_dense_builder(self, n, parity):
        layout, want = oracle._translation_layout(n, parity), translation_layout_dense(n, parity)
        assert layout.n_reps == want.n_reps and len(layout.blocks) == len(want.blocks)
        pairs = list(zip(layout[:3], want[:3]))
        for block, ref in zip(layout.blocks, want.blocks):
            pairs += zip(block, ref)
        for got, ref in pairs:
            assert got.dtype == ref.dtype and got.shape == ref.shape, (n, parity)
            assert got.tobytes() == ref.tobytes(), (n, parity)

    def test_twelve_sites_match_the_closed_forms(self, monkeypatch):
        monkeypatch.setenv("XYBERRY_MAX_N", "12")
        for lam, gamma in ((0.3, 0.6), (-1.4, 0.3)):
            p = params(lam, gamma, 12)
            assert abs(ed_ground_energy(p) - ground_energy(p)) < VERIFY_ENERGY_TOL
            want = magnetization_analytic(p)
            assert abs(magnetization_ed(p) - want) < VERIFY_MAGNETIZATION_TOL


def _hermitian(rng, dim, dtype):
    a = rng.standard_normal((dim, dim))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


class TestEigensolveBinding:
    """``oracle.eigh``, the oracle's one eigensolve, against scipy.linalg.eigh."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bit_identical_to_scipy(self, dtype):
        rng = np.random.default_rng(17 if dtype is float else 18)
        for dim in range(1, 65):
            a = _hermitian(rng, dim, dtype)
            kept = a.copy()
            top = int(rng.integers(dim))
            for subset in (None, [0, top]):
                want_vals, want_vecs = eigh(a, subset_by_index=subset)
                vals, vecs = oracle.eigh(a, subset_by_index=subset)
                where = (dim, subset)
                assert vals.dtype == want_vals.dtype and vecs.dtype == want_vecs.dtype, where
                assert np.array_equal(vals, want_vals), where
                assert np.array_equal(vecs, want_vecs), where
            assert np.array_equal(a, kept), "the input must not be overwritten"

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_empty_and_non_square_input_as_scipy(self, dtype):
        # LAPACK's own argument checks would raise f2py errors on all three.
        empty = np.empty((0, 0), dtype=dtype)
        for subset in (None, [0, 0]):
            want = eigh(empty, subset_by_index=subset)
            got = oracle.eigh(empty, subset_by_index=subset)
            for array, want_array in zip(got, want):
                assert array.shape == want_array.shape, subset
                assert array.dtype == want_array.dtype, subset
        for shape in ((3,), (2, 3)):
            with pytest.raises(ValueError) as want:
                eigh(np.ones(shape, dtype=dtype))
            with pytest.raises(ValueError) as got:
                oracle.eigh(np.ones(shape, dtype=dtype))
            assert str(got.value) == str(want.value), shape

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_non_finite_input_raises_before_lapack(self, bad, dtype, monkeypatch):
        def no_lapack(*args):
            raise AssertionError("LAPACK reached")

        monkeypatch.setattr(oracle, "_evr_driver", no_lapack)
        a = _hermitian(np.random.default_rng(3), 20, dtype)
        a[4, 7] = a[7, 4] = bad
        for subset in (None, [0, 2]):
            with pytest.raises(ValueError, match="infs or NaNs"):
                oracle.eigh(a, subset_by_index=subset)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_failed_subset_falls_back_to_the_full_solve(self, dtype, monkeypatch):
        # A nonzero info from the subset driver is a LinAlgError, on which
        # _lowest_eigh takes the lowest pairs of the full decomposition.
        real_driver = oracle._evr_driver
        ranges = []

        def failing_subset(kind, dim):
            driver, label, work = real_driver(kind, dim)

            def call(a, **kwargs):
                ranges.append(kwargs.get("range", "A"))
                *out, info = driver(a, **kwargs)
                return (*out, 1 if kwargs.get("range") == "I" else info)

            return call, label, work

        monkeypatch.setattr(oracle, "_evr_driver", failing_subset)
        a = _hermitian(np.random.default_rng(5), 40, dtype)
        kept = a.copy()
        with pytest.raises(np.linalg.LinAlgError):
            oracle.eigh(a, subset_by_index=[0, 2])
        ranges.clear()
        vals, vecs = oracle._lowest_eigh(a, 3)
        assert ranges == ["I", "A"]
        want_vals, want_vecs = eigh(a)
        assert np.array_equal(vals, want_vals[:3])
        assert np.array_equal(vecs, want_vecs[:, :3])
        assert np.array_equal(a, kept)
        assert vals.flags.owndata and vecs.flags.owndata  # no view pins the full set

    def test_one_call_per_block_and_per_loop_step(self, monkeypatch):
        # The benchmark's eigensolve span wraps ``oracle.eigh``; this keeps
        # every eigensolve going through that one name: one call per block
        # that the certificate does not show to lie above the kept levels.
        events = []
        binding, certify = oracle.eigh, oracle._holds_no_level_below

        def counting(a, *args, **kwargs):
            events.append(("eigh", np.shape(a)[0]))
            return binding(a, *args, **kwargs)

        def testing(h, *args):
            events.append(("test", h.shape[0], certify(h, *args)))
            return events[-1][2]

        monkeypatch.setattr(oracle, "eigh", counting)
        monkeypatch.setattr(oracle, "_holds_no_level_below", testing)
        oracle._solve_sector.__wrapped__(6, 0.7, 0.4, +1)
        blocks = oracle._translation_layout(6, +1).blocks
        assert len(blocks) == 4
        it = iter(events)
        for block in blocks:
            event = next(it)
            if event[0] == "test":
                assert event[1] == block.reps.size
                if event[2]:
                    continue
                event = next(it)
            assert event == ("eigh", block.reps.size)
        assert next(it, None) is None
        assert ("test", 4, True) in events  # a certified block is not solved
        assert [b.reps.size for b in oracle._translation_layout(4, +1).blocks] == [4, 1, 2]
        # Six levels: the 1-row block, read from its entry with no eigensolve,
        # fills them with its +-k pair, and the 2-row block is tested.
        events.clear()
        oracle._solve_sector.__wrapped__(4, 0.7, 0.4, +1)
        assert events == [("eigh", 4), ("test", 2, False), ("eigh", 2)]
        # Two levels: the k = 0 block holds both, and the 1-row block (by its
        # entry) and the 2-row block (by a factorization) are left out.
        events.clear()
        oracle._solve_lowest.__wrapped__(4, 0.7, 0.4, +1)
        assert events == [("eigh", 4), ("test", 1, True), ("test", 2, True)]
        events.clear()
        oracle._solve_lowest.__wrapped__(4, 0.7, 0.4, -1)
        assert events == [("eigh", 2), ("test", 2, False), ("eigh", 2), ("test", 2, True)]
        events.clear()
        spin_half_loop_phase(1.0, 24)
        assert events == [("eigh", 2)] * 24


def _with_levels(rng, levels, dtype):
    """An exactly Hermitian matrix with ``levels`` in a random orthonormal basis."""
    dim = len(levels)
    q, _ = np.linalg.qr(_hermitian(rng, dim, dtype))
    h = (q * np.asarray(levels)) @ q.conj().T
    return (h + h.conj().T) / 2


# Points on lam = 0, |lam| = 1, gamma = 0 and gamma = 1, where levels of
# different blocks can tie and the stable argsort's block order decides.
_EDGE_POINTS = (
    (0.0, 0.5), (1.0, 0.5), (-1.0, 0.7), (0.6, 0.0), (-0.4, 1.0), (1.0, 1.0), (0.0, 0.0),
)

# At N = 10 in the odd sector, the sixth level here is one of a +-k pair and
# its partner is the seventh, so the pair is split at the LOOP_LEVELS cut.
_SPLIT_PAIR = (10, -1.54, 0.69, -1)


class TestBlockSkipping:
    """Blocks left out by the Cholesky certificate, against the every-block solve."""

    def test_spectrum_bit_identical_to_every_block_solve(self, monkeypatch):
        certify, solve = oracle._holds_no_level_below, oracle._lowest_eigh
        calls = {"certified": 0, "solved": 0}

        tested = set()

        def counting_certify(h, *args):
            tested.add(h.shape[0])
            certified = certify(h, *args)
            calls["certified"] += certified
            return certified

        def counting_solve(*args):
            calls["solved"] += 1
            return solve(*args)

        # The reference bound its own _lowest_eigh at import; only the
        # oracle's calls are counted.
        monkeypatch.setattr(oracle, "_holds_no_level_below", counting_certify)
        monkeypatch.setattr(oracle, "_lowest_eigh", counting_solve)
        monkeypatch.setenv("XYBERRY_MAX_N", "12")
        rng = np.random.default_rng(2016)
        cases = [_SPLIT_PAIR, (12, 0.35, 0.8, +1), (12, -1.3, 0.45, -1)]
        for n in (4, 6, 8, 10):
            drawn = tuple(tuple(rng.uniform((-2.0, -1.5), (2.0, 1.5))) for _ in range(6))
            points = _EDGE_POINTS + drawn
            cases += [(n, *point, parity) for parity in (+1, -1) for point in points]
        skipped = dict.fromkeys((4, 6, 8, 10, 12), 0)
        for case in cases:
            n, parity = case[0], case[3]
            oracle.check_sites(n)
            before = dict(calls)
            got = oracle._solve_sector.__wrapped__(*case)
            want = solve_every_block(*case)
            for got_array, want_array in zip(got, want):
                assert got_array.dtype == want_array.dtype, case
                assert np.array_equal(got_array, want_array), case
            certified = calls["certified"] - before["certified"]
            solved = calls["solved"] - before["solved"]
            # A certified block is never solved, and every other block is.
            assert certified + solved == len(oracle._translation_layout(n, parity).blocks), case
            skipped[n] += certified
        # Blocks of every size are tested once six levels are known, and small
        # ones are left out too: at N = 6 no block has more than 8 rows, and
        # at N = 4 none has more than 4.  A block of 1 row (the even k = pi/2
        # block at N = 4) comes before six levels are known, and is solved.
        assert min(tested) == 2
        assert all(skipped[n] > 0 for n in skipped), skipped
        vals, vecs, _, _ = oracle._sector_spectrum(*_SPLIT_PAIR)
        assert vals[4] < vals[5] and _is_complex(vecs[:, 5])

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("tau", [-3.7, 0.0, 2.5])
    def test_certifies_only_levels_beyond_the_margin(self, dtype, tau):
        rng = np.random.default_rng(31)
        dim, scale = 24, 10.0
        # The docstring's delta, written out again here.
        delta = 8.0 * dim * dim * 2.0**-53 * (scale + abs(tau))
        rest = rng.uniform(tau + 1.0, 8.0, dim - 1)
        for offset, certified in ((0.0, False), (delta / 2, False), (10 * delta, True)):
            h = _with_levels(rng, np.append(tau + offset, rest), dtype)
            kept = h.copy()
            assert oracle._holds_no_level_below(h, tau, scale) == certified, offset
            assert np.array_equal(h, kept), "the block must not be overwritten"

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_non_finite_block_is_never_certified(self, dtype):
        rng = np.random.default_rng(32)
        h = _with_levels(rng, np.linspace(1.0, 8.0, 24), dtype)
        h[0, 0] = np.inf
        # LAPACK itself factors this matrix; only the finiteness test refuses it.
        assert oracle._potrf(h.dtype)(h + 5.0 * np.eye(24), lower=True)[1] == 0
        assert not oracle._holds_no_level_below(h, -5.0, 10.0)

    def test_one_row_block_is_its_own_level(self, monkeypatch):
        # _lowest_eigh reads a block of 1 row from its entry: for order 1,
        # ?syevr and ?heevr return the real part of A(1,1) and the unit vector.
        rng = np.random.default_rng(33)
        blocks = [block for n in (4, 6, 8, 10) for parity in (+1, -1)
                  for block in oracle._translation_layout(n, parity).blocks
                  if block.reps.size == 1]
        assert blocks  # the even k = pi/2 block at N = 4
        for lam, gamma in draw_noncritical_points(rng, 400):
            for block in blocks:
                h = oracle._block_hamiltonian(block, np.array([-lam, -gamma, -1.0]))
                assert eigh(h)[0][0] == h[0, 0].real, (lam, gamma)
        for dtype in (float, complex):
            for exponent in range(-300, 301, 20):
                h = np.array([[rng.normal() * 10.0**exponent]], dtype=dtype)
                if dtype is complex:
                    h += 1j * rng.normal()  # ?heevr reads the real part alone
                assert eigh(h)[0][0] == h[0, 0].real, (dtype, exponent)
                for got, want in zip(oracle._lowest_eigh(h, 1), eigh(h)):
                    assert got.dtype == want.dtype and np.array_equal(got, want), exponent
        # A non-finite entry is not read: eigh rejects it.
        with pytest.raises(ValueError, match="infs or NaNs"):
            oracle._lowest_eigh(np.array([[np.inf]]), 1)
        # So its certificate is its entry above tau, and a non-finite entry
        # is never certified, with no factorization.
        monkeypatch.setattr(oracle, "_potrf", None)
        for entry, tau, certified in (
            (2.0, 1.0, True), (2.0, 2.0, False), (2.0 + 5j, 1.0, True), (2.0 + 5j, 2.0, False),
            (np.inf, 1.0, False), (np.nan, 1.0, False), (-np.inf, 1.0, False),
            (2.0 + np.inf * 1j, 1.0, False),
        ):
            h = np.array([[entry]])
            assert oracle._holds_no_level_below(h, tau, 3.0) is certified, (entry, tau)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_field_still_raises(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            oracle._solve_sector(10, 1e308, 0.5, 1)


def _moments(weights, sz):
    """(kappa_1, ..., kappa_5) of S^z from the central moments of ``weights``."""
    mean = float(np.sum(weights * sz))
    mu2, mu3, mu4, mu5 = (float(np.sum(weights * (sz - mean) ** k)) for k in range(2, 6))
    return [mean, mu2, mu3, mu4 - 3.0 * mu2**2, mu5 - 10.0 * mu3 * mu2]


# Points where a level of another block lies at or below the k = 0 block's
# second level, so the even reading solves that block too.
_TIE_POINTS = ((8, 0.0, 0.5), (10, 0.0, 1.0))

# lam = 0 at every N: there the same holds for gamma >= 1 (at N = 4 and 8
# for every gamma).
_LAMBDA_ZERO_POINTS = tuple((n, 0.0, gamma) for n in (4, 6, 8, 10) for gamma in (1.0, 1.3))


def _ties_the_k0_second_level(n, lam, gamma):
    """True if a block other than k = 0 has a level at or below (to rounding)
    the k = 0 block's second level, each block diagonalized in full."""
    weights = np.array([-lam, -gamma, -1.0])
    zero, *others = oracle._translation_layout(n, +1).blocks
    second = np.linalg.eigvalsh(oracle._block_hamiltonian(zero, weights))[1]
    lowest = min(np.linalg.eigvalsh(oracle._block_hamiltonian(b, weights))[0] for b in others)
    return lowest <= second + 1e-12


def _assert_same_levels(got, want, where):
    """Two readings of ``_sector_levels`` at one point hold the same levels,
    blocks, vectors and conjugation flags, bit for bit."""
    assert len(got) == len(want), where
    for (level, block, vector, conj), (level_w, block_w, vector_w, conj_w) in zip(got, want):
        assert level == level_w and block is block_w and conj is conj_w, where
        assert vector.dtype == vector_w.dtype and vector.tobytes() == vector_w.tobytes(), where


def _stack_points(n, rng):
    """Seeded draws, free draws, the tie and lam = 0 points at N = ``n``, the
    edge points, and points on lam = +-1 and on gamma = 0."""
    free = [tuple(rng.uniform((-2.0, -1.5), (2.0, 1.5)).tolist()) for _ in range(3)]
    ties = [(lam, gamma) for m, lam, gamma in _TIE_POINTS + _LAMBDA_ZERO_POINTS if m == n]
    edges = [(1.0, 0.4), (-1.0, 0.9), (0.5, 0.0), (-1.3, 0.0), (0.0, -0.7)]
    return draw_noncritical_points(rng, 5) + free + ties + list(_EDGE_POINTS) + edges


class TestStackedLoop:
    """``_sector_levels`` over a stack of points against one point at a time."""

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_stack_reads_each_point_as_alone(self, n):
        points = _stack_points(n, np.random.default_rng(2900 + n))
        lams, gammas = np.array(points).T
        for parity in (+1, -1):
            for keep in (2, 3, oracle.LOOP_LEVELS):
                stacked = oracle._sector_levels(n, lams, gammas, parity, keep)
                assert len(stacked) == len(points)
                for (lam, gamma), levels in zip(points, stacked):
                    alone, = oracle._sector_levels(n, (lam,), (gamma,), parity, keep)
                    _assert_same_levels(levels, alone, (n, parity, keep, lam, gamma))

    def test_stacked_assembly_has_the_one_point_bits(self):
        # A stacked product can leave -0.0 where the one-point product gives
        # +0.0 (on lam = 0 and gamma = 0); each matrix must have the bits of
        # its own product.
        rng = np.random.default_rng(2910)
        points = [(0.0, 0.5), (0.7, 0.0), (0.0, 0.0), (1.0, 1.0)]
        points += [tuple(rng.uniform((-2.0, -1.5), (2.0, 1.5)).tolist()) for _ in range(6)]
        weights = -np.array([(lam, gamma, 1.0) for lam, gamma in points])
        for n in (2, 4, 6, 8, 10):
            for parity in (+1, -1):
                for block in oracle._translation_layout(n, parity).blocks:
                    stack = oracle._block_hamiltonian(block, weights)
                    for row, h in zip(weights, stack):
                        alone = oracle._block_hamiltonian(block, row)
                        assert h.dtype == alone.dtype and h.tobytes() == alone.tobytes()
                        for part in (h.real, h.imag):
                            assert not np.signbit(part[part == 0]).any(), (n, parity)

    @pytest.mark.parametrize("limit", [1, 40, 300, 5000])
    def test_stacks_hold_at_most_the_block_elements(self, limit, monkeypatch):
        # Each stack holds at most MODE_BLOCK_ELEMENTS entries, one point at
        # least, and the readings do not depend on where the chunks fall.
        rng = np.random.default_rng(2920)
        points = _stack_points(8, rng) + draw_noncritical_points(rng, 9)
        lams, gammas = np.array(points).T
        want = {
            (n, parity, keep): oracle._sector_levels(n, lams, gammas, parity, keep)
            for n in (4, 8) for parity in (+1, -1) for keep in (2, oracle.LOOP_LEVELS)
        }
        rows = [oracle._even_ground_rows(lams, gammas, n, 2000) for n in (4, 8)]
        stacks = []
        assemble = oracle._block_hamiltonian

        def recording(block, weights):
            stack = assemble(block, weights)
            stacks.append(stack.shape)
            return stack

        monkeypatch.setattr(model, "MODE_BLOCK_ELEMENTS", limit)
        monkeypatch.setattr(oracle, "_block_hamiltonian", recording)
        for (n, parity, keep), levels in want.items():
            stacks.clear()
            got = oracle._sector_levels(n, lams, gammas, parity, keep)
            for point, got_levels, want_levels in zip(points, got, levels):
                _assert_same_levels(got_levels, want_levels, (limit, n, parity, keep, point))
            # Per block in m order, the points in chunks of as many as fit.
            expected = []
            for block in oracle._translation_layout(n, parity).blocks:
                dim = block.reps.size
                step = max(1, limit // (dim * dim))
                expected += [(min(step, len(points) - start), dim, dim)
                             for start in range(0, len(points), step)]
            assert stacks == expected, (limit, n, parity)
            assert all(size * dim * dim <= limit or size == 1 for size, dim, _ in stacks)
        for n, want_rows in zip((4, 8), rows):
            got_rows = oracle._even_ground_rows(lams, gammas, n, 2000)
            assert [row.tobytes() for row in got_rows] == [row.tobytes() for row in want_rows]


class TestEvenGroundReader:
    """The lowest-level reading against the every-block solve."""

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_matches_every_block_solve(self, n):
        rng = np.random.default_rng(2600 + n)
        points = draw_noncritical_points(rng, 8) + [
            (lam, float(rng.uniform(0.1, 1.5))) for lam in (1.0, -1.0, 1.0, -1.0)
        ]
        for lam, gamma in points:
            ground = oracle._solve_lowest.__wrapped__(n, lam, gamma, +1)
            vals, vecs, _, sz = solve_every_block(n, lam, gamma, +1)
            where = (n, lam, gamma)
            assert (ground.energy, ground.next_level) == (vals[0], vals[1]), where
            want = _moments(np.abs(vecs[:, 0]) ** 2, sz)
            assert abs(ground.cumulants[0] - want[0]) <= 1e-12, where
            # kappa_5 reaches about 200 at N = 10; its rounding is relative.
            scale = np.maximum(1.0, np.abs(want))
            assert np.all(np.abs(np.subtract(ground.cumulants, want)) <= 1e-12 * scale), where
            # One weight per k = 0 orbit: the ground state was read from that block.
            assert ground.weights.shape == ground.sz.shape == oracle._translation_layout(
                n, +1
            ).blocks[0].sz.shape, where
            for array in (ground.weights, ground.sz):
                assert not array.flags.writeable
            # magnetization_ed's reading forms kappa_1 alone, with the same bits.
            fresh = oracle._solve_lowest.__wrapped__(n, lam, gamma, +1)
            assert fresh.magnetization == ground.cumulants[0], where

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_tie_points_match_every_block_solve(self, n):
        # Where another block reaches the k = 0 block's second level, that
        # block is solved in the same loop: E_0 and E_1 keep the every-block
        # solve's bits, and the cumulants of the one-per-orbit weights match
        # the sector vector's.
        points = [(lam, gamma) for m, lam, gamma in _TIE_POINTS + _LAMBDA_ZERO_POINTS if m == n]
        assert points
        for lam, gamma in points:
            where = (n, lam, gamma)
            assert _ties_the_k0_second_level(n, lam, gamma), where
            ground = oracle._solve_lowest.__wrapped__(n, lam, gamma, +1)
            vals, vecs, _, sz = solve_every_block(n, lam, gamma, +1)
            assert (ground.energy, ground.next_level) == (vals[0], vals[1]), where
            assert ground.splitting >= oracle.DEGENERACY_TOL, where
            want = _moments(np.abs(vecs[:, 0]) ** 2, sz)
            scale = np.maximum(1.0, np.abs(want))
            assert np.all(np.abs(np.subtract(ground.cumulants, want)) <= 1e-12 * scale), where

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_odd_reading_matches_the_sector_solve(self, n):
        # The excited loop phase reads the odd sector's two lowest levels
        # from the same loop with keep = 2: they and the degeneracy decision
        # must be those of the LOOP_LEVELS solve that loop_states tracks.
        # On gamma = 0 the odd levels cross at the mode cosines cos(2 pi m / N).
        rng = np.random.default_rng(2630 + n)
        points = list(_EDGE_POINTS) + draw_noncritical_points(rng, 6) + [
            (lam, gamma) for m, lam, gamma in _TIE_POINTS + _LAMBDA_ZERO_POINTS if m == n
        ] + [(math.cos(2.0 * math.pi * m / n), 0.0) for m in range(1, n // 2)]
        decisions = set()
        for lam, gamma in points:
            where = (n, lam, gamma)
            lowest = oracle._solve_lowest.__wrapped__(n, lam, gamma, -1)
            vals = oracle._sector_spectrum(n, lam, gamma, -1)[0]
            assert (lowest.energy, lowest.next_level) == (vals[0], vals[1]), where
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateLevelWarning)
                degenerate = loop_states(params(lam, gamma, n), "excited", 64).degenerate
            assert (lowest.splitting < oracle.DEGENERACY_TOL) is degenerate, where
            decisions.add(degenerate)
        assert decisions == {False, True}

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_one_eigensolve_per_point(self, n, monkeypatch):
        # Every even-sector read of a verify point comes from one solve of
        # the k = 0 block; every other block, of 1 row (by its entry) or
        # more (by a factorization), is shown to hold no lower level.
        dims = []
        binding = oracle.eigh

        def counting(a, *args, **kwargs):
            dims.append(np.shape(a)[0])
            return binding(a, *args, **kwargs)

        def no_sector_solve(*args):
            raise AssertionError("sector solve reached")

        monkeypatch.setattr(oracle, "eigh", counting)
        monkeypatch.setattr(oracle, "_solve_sector", no_sector_solve)
        zero = oracle._translation_layout(n, +1).blocks[0]
        points = draw_noncritical_points(np.random.default_rng(2610 + n), 4)
        for lam, gamma in points:
            p = params(lam, gamma, n)
            dims.clear()
            ed_ground_energy(p)
            magnetization_ed(p)
            oracle.sz_cumulants(p)
            discrete_loop_phase(p, "ground", 2000)
            assert dims == [zero.reps.size], (lam, gamma)
        # The whole verify pass at one N, oracle and closed forms, solves
        # each point's k = 0 block once and nothing else.
        dims.clear()
        cli._verify_points(points, [n], 2000)
        assert dims == [zero.reps.size] * len(points)

    def test_verify_pass_matches_the_per_point_reference(self, monkeypatch):
        # The tie points, where the reading solves a second block at N = 8
        # and 10 respectively, sit among seeded draws; their rows must land
        # in their own slots.
        draws = draw_noncritical_points(np.random.default_rng(2620), 6)
        ties = [(lam, gamma) for _, lam, gamma in _TIE_POINTS]
        points = draws[:2] + ties[:1] + draws[2:5] + ties[1:] + draws[5:]
        solved = []
        binding = oracle.eigh
        monkeypatch.setattr(oracle, "eigh", lambda a, **kw: solved.append(a) or binding(a, **kw))
        for n, lam, gamma in _TIE_POINTS:
            assert _ties_the_k0_second_level(n, lam, gamma)
            solved.clear()
            oracle._solve_lowest.__wrapped__(n, lam, gamma, +1)
            assert len(solved) > 1, (n, lam, gamma)
        monkeypatch.undo()
        for steps in (8, 2000):
            got = cli._verify_points(points, [8, 10], steps)
            want = verify_reference.verify_points(points, [8, 10], steps)
            assert list(got) == list(want)
            for key, rows in got.items():
                assert rows.shape == want[key].shape == (2, len(points)), (steps, key)
                assert rows.tobytes() == want[key].tobytes(), (steps, key)

    @pytest.mark.parametrize("floor", [0.9, 0.95])
    def test_discretization_error_at_the_same_point(self, floor, monkeypatch):
        # No draw at N <= 10 overlaps by less than 0.5 at 8 steps (the least
        # |chi| is about 0.78), so a stricter floor stands in for a coarser
        # loop; both sides must raise the per-point reader's error first.
        # The first point to fail is the second tie point at 0.9 and the
        # second draw at 0.95.
        overlap = oracle._step_overlap

        def stricter(weights, kick, steps):
            chi = overlap(weights, kick, steps)
            if abs(chi) < floor:
                raise DiscretizationError(f"overlap {abs(chi)!r} below {floor}")
            return chi

        monkeypatch.setattr(oracle, "_step_overlap", stricter)
        draws = draw_noncritical_points(np.random.default_rng(2621), 8)
        points = draws[:3] + [(lam, gamma) for _, lam, gamma in _TIE_POINTS] + draws[3:]
        errors = []
        for verify in (cli._verify_points, verify_reference.verify_points):
            with pytest.raises(DiscretizationError) as raised:
                verify(points, [8, 10], 8)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("n, lam, gamma", _TIE_POINTS)
    def test_tie_point_reads_without_the_sector_solve(self, n, lam, gamma, monkeypatch):
        calls = []
        solve = oracle._solve_sector

        def spy(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(oracle, "_solve_sector", spy)
        ground = oracle._solve_lowest.__wrapped__(n, lam, gamma, +1)
        assert calls == []
        vals, vecs, _, _ = solve.__wrapped__(n, lam, gamma, +1)
        assert (ground.energy, ground.next_level) == (vals[0], vals[1])
        # The weights are the sector vector's |psi|^2 summed over each orbit
        # of the k = 0 block, where the ground state lies.
        layout = oracle._translation_layout(n, +1)
        zero = layout.blocks[0]
        assert ground.sz is zero.sz
        per_orbit = np.bincount(layout.state_rep, np.abs(vecs[:, 0]) ** 2, layout.n_reps)
        assert np.max(np.abs(ground.weights - per_orbit[zero.reps])) <= 1e-15
        # The cumulants are formed as sz_cumulants forms them from the weights.
        assert ground.cumulants[0] == float(np.sum(zero.sz * ground.weights))


class TestLowestStates:
    """The lowest levels of the full 2^N spectrum, both parity sectors merged."""

    def test_global_lowest_matches_closed_form_n6(self):
        # At this point the paired-mode state is the global ground state,
        # so the plain lowest eigenvalue equals the gap-sum energy.
        p = params(0.5, 0.5, 6)
        lowest = np.linalg.eigvalsh(dense_hamiltonian(6, 0.5, 0.5, 0.0))[0]
        assert lowest == pytest.approx(ground_energy(p), abs=1e-10)

    def test_level_crossing_degeneracy_flagged(self):
        # On the gamma = 0 critical segment the two lowest levels actually
        # cross as lam varies; at N=4 the crossing sits at lam = sqrt(2) - 1
        # (the constant paired-sector energy -2*sqrt(2) meets -2 - 2*lam).
        # The two levels are the even and the odd sector's ground states.
        lam = math.sqrt(2.0) - 1.0
        vals = np.linalg.eigvalsh(dense_hamiltonian(4, lam, 0.0, 0.0))
        assert abs(vals[0] - vals[1]) < 1e-12
        assert vals[0] == pytest.approx(-2 * math.sqrt(2.0), abs=1e-12)
        for parity in (+1, -1):
            levels = oracle._sector_spectrum(4, lam, 0.0, parity)[0]
            assert levels[0] == pytest.approx(vals[0], abs=1e-12)


class TestSectorGround:
    """The lowest level of a parity sector, read through ``loop_states``."""

    def test_even_vector_har_even_parity_support(self):
        # The block-coordinate state, placed on the even-parity indices of
        # the full basis, is an eigenvector of the full H(phi).
        p = params(0.5, 0.5, 4, phi=0.7)
        trace = loop_states(p, "ground", 16)
        full = np.zeros(16, dtype=complex)
        full[parity_states(4, +1)] = trace.vectors[0]
        h = dense_hamiltonian(4, 0.5, 0.5, 0.7)
        assert np.max(np.abs(h @ full - trace.energy * full)) <= 1e-12

    def test_ground_energy_is_the_sector_ground_value(self):
        # ed_ground_energy reads the cached level without building the vector.
        rng = np.random.default_rng(12)
        for n in (4, 6, 8, 10):
            for lam, gamma in draw_noncritical_points(rng, 3):
                p = params(lam, gamma, n, phi=float(rng.uniform(0.0, np.pi)))
                energy = ed_ground_energy(p)
                assert type(energy) is float
                trace = loop_states(p, "ground", 8)
                assert energy == trace.energy, (n, lam, gamma)

    def test_even_state_can_sit_above_global_ground(self):
        # Inside lam^2 + gamma^2 < 1 the odd sector can dip below at small
        # N; the closed forms describe the even state, so the oracle is
        # sector-resolved.  This pins one such pocket.
        p = params(0.5, 0.5, 4)
        steps = 16
        even = loop_states(p, "ground", steps)
        odd = loop_states(p, "excited", steps)
        assert odd.energy < even.energy


class TestMagnetizationED:
    def test_polarized(self):
        # Saturation deficit is second order in gamma/lam: the exact value
        # at lam = 10 is 3.997465, so "within 1e-3 of 4" is not achievable
        # at this field; 5e-3 is.
        assert magnetization_ed(params(10.0, 0.5, 4)) == pytest.approx(4.0, abs=5e-3)
        assert magnetization_ed(params(100.0, 0.5, 4)) == pytest.approx(4.0, abs=1e-4)

    def test_zero_field(self):
        assert magnetization_ed(params(0.0, 0.3, 6)) == pytest.approx(0.0, abs=1e-10)

    def test_degenerate_sector_ground_flagged(self):
        # In-sector level crossing on the gamma = 0 segment: the paired
        # vacuum meets a pair-flipped state where lam equals a mode cosine.
        with pytest.warns(DegenerateLevelWarning):
            magnetization_ed(params(float(np.cos(np.pi / 4)), 0.0, 4))

    def test_total_sz_diagonal(self):
        d = total_sz_diagonal(2)
        assert sorted(d) == [-2.0, 0.0, 0.0, 2.0]


class TestPancharatnamProduct:
    def test_constant_family_gives_zero(self):
        # gamma = 0 makes the rotation a symmetry: H(phi) is constant and
        # the loop does nothing.
        r = discrete_loop_phase(params(2.0, 0.0, 4), "ground", 64)
        assert abs(r.wrapped) < 1e-12

    def test_orthogonal_states_rejected(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(DiscretizationError):
            pancharatnam_phase([e1, e2])

    def test_gauge_invariance(self):
        trace = loop_states(params(0.5, 0.5, 4), "ground", 200)
        base = pancharatnam_phase(trace.vectors)
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(1, len(trace.vectors)))
            perturbed = list(trace.vectors)
            perturbed[k] = perturbed[k] * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert abs(pancharatnam_phase(perturbed) - base) < 1e-12


class TestSpinHalfLoop:
    def test_equatorial_matches_closed_form(self):
        r = spin_half_loop_phase(np.pi / 2, 2000)
        target = spin_half_phase(np.pi / 2).wrapped
        assert circular_distance(r.wrapped, target) < 1e-4

    def test_off_equator_lower_branch(self):
        theta = np.pi / 3
        r = spin_half_loop_phase(theta, 2000, branch="lower")
        target = spin_half_phase(theta, branch="lower").wrapped
        assert circular_distance(r.wrapped, target) < 1e-4

    def test_upper_branch_negates(self):
        theta = 1.0
        lo = spin_half_loop_phase(theta, 1000, branch="lower")
        up = spin_half_loop_phase(theta, 1000, branch="upper")
        assert circular_distance(up.wrapped, -lo.wrapped) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            spin_half_loop_phase(5.0, 100)
        with pytest.raises(ValueError):
            spin_half_loop_phase(1.0, 4)
        with pytest.raises(ValueError, match="steps must be an integer"):
            spin_half_loop_phase(1.0, "16")


class TestChainLoop:
    def test_matches_closed_form_n6(self):
        p = params(0.5, 0.5, 6)
        r = discrete_loop_phase(p, "ground", 2000)
        assert circular_distance(r.wrapped, ground_phase(p).wrapped) < 1e-3

    def test_matches_closed_form_in_odd_favored_pocket(self):
        # Even at points where the odd sector holds the global ground state
        # the tracked paired-mode level reproduces the closed form.
        p = params(0.5, 0.5, 4)
        r = discrete_loop_phase(p, "ground", 1000)
        assert circular_distance(r.wrapped, ground_phase(p).wrapped) < 1e-3

    def test_loop_start_angle_irrelevant(self):
        steps = 600
        a = discrete_loop_phase(params(0.5, 0.5, 4, phi=0.0), "ground", steps)
        b = discrete_loop_phase(params(0.5, 0.5, 4, phi=0.7), "ground", steps)
        assert circular_distance(a.wrapped, b.wrapped) < 1e-6

    def test_discretization_error_decreases(self):
        p = params(0.5, 0.5, 4)
        target = ground_phase(p).wrapped
        errs = [
            circular_distance(
                discrete_loop_phase(p, "ground", m).wrapped, target
            )
            for m in (250, 500, 1000, 2000)
        ]
        assert all(b <= a for a, b in zip(errs, errs[1:]))

    def test_loop_validation(self):
        p = params(0.5, 0.5, 4)
        for readout in (loop_states, discrete_loop_phase):
            with pytest.raises(ValueError, match="steps must be an integer >= 8, got 4"):
                readout(p, "ground", 4)
            with pytest.raises(ValueError, match="level must be"):
                readout(p, "sideways", 16)

    def test_degenerate_tracked_level_flagged(self):
        # Exact in-sector degeneracy (the paired vacuum crosses a
        # pair-flipped state on the gamma = 0 segment): the loop phase is a
        # flagged best-effort subspace projection, not an error.
        p = params(float(np.cos(np.pi / 4)), 0.0, 4)
        with pytest.warns(DegenerateLevelWarning):
            trace = loop_states(p, "ground", 32)
        assert trace.degenerate

    def test_excited_level_unique_in_pocket(self):
        # The lowest odd-parity level stays non-degenerate even on the
        # branch lam < 1 - gamma^2 (the would-be +-k pair sits above a
        # unique zero-momentum state), so excited tracking is clean there.
        trace = loop_states(params(0.3, 0.5, 6), "excited", 64)
        assert not trace.degenerate

    def test_excited_level_clean_outside(self):
        # For |lam| > 1 the lowest odd level is the unique zero-momentum
        # excitation: tracking is clean and the relative phase approaches
        # the closed form as the loop and chain refine (grid mismatch is
        # O(1/N), so only a loose agreement is asserted).
        p = params(1.5, 0.6, 8)
        steps = 800
        ground = discrete_loop_phase(p, "ground", steps)
        excited = discrete_loop_phase(p, "excited", steps)
        measured = circular_distance(excited.wrapped, ground.wrapped)
        expected = abs(relative_phase_finite(p).wrapped)
        assert abs(measured - expected) < 0.2


class TestTransportReference:
    @pytest.mark.parametrize("n", [4, 6])
    def test_matches_rediagonalizing_tracker(self, n):
        rng = np.random.default_rng(20 + n)
        for lam, gamma in draw_noncritical_points(rng, 3):
            p = params(lam, gamma, n, phi=float(rng.uniform(0.0, np.pi)))
            for level in ("ground", "excited"):
                got = discrete_loop_phase(p, level, 200).wrapped
                want = rediagonalized_loop_phase(p, level, 200)
                assert circular_distance(got, want) <= 1e-10, (p, level)


class TestCharacteristicFunctionPath:
    """The closed form m arg chi against the overlap product of the loop vectors."""

    @staticmethod
    def _outcome(fn):
        try:
            return fn()
        except DiscretizationError as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_matches_overlap_product(self, n):
        rng = np.random.default_rng(60 + n)
        for lam, gamma in draw_noncritical_points(rng, 2):
            p = params(lam, gamma, n, phi=float(rng.uniform(0.0, np.pi)))
            for level in ("ground", "excited"):
                for steps in (8, 200, 2000):
                    got = discrete_loop_phase(p, level, steps)
                    trace = loop_states(p, level, steps)
                    assert not trace.degenerate
                    want = pancharatnam_phase(trace.vectors)
                    assert got.value == got.wrapped
                    where = (p, level, steps)
                    assert circular_distance(got.wrapped, want) <= 1e-12, where

    def test_no_loop_vectors_on_the_closed_form_path(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("stepped path taken")

        monkeypatch.setattr(oracle, "loop_states", fail)
        monkeypatch.setattr(oracle, "pancharatnam_phase", fail)
        for level in ("ground", "excited"):
            discrete_loop_phase(params(0.5, 0.5, 6), level, 2000)

    def test_discretization_error_from_both(self, monkeypatch):
        # No physical point trips |chi| < 0.5 at steps >= 8, so hand-build a
        # spectrum: (|up...up> + |down...down>) / sqrt 2 at N = 8, whose
        # chi(pi / 8) = cos(pi / 2) = 0.
        n = 8
        states = parity_states(n, 1)
        sz = total_sz_diagonal(n)[states]
        vecs = np.zeros((states.size, 2))
        vecs[[0, -1], 0] = math.sqrt(0.5)
        vecs[1, 1] = 1.0
        spectrum = (np.array([0.0, 1.0]), vecs, states, sz)
        monkeypatch.setattr(oracle, "_sector_spectrum", lambda *args: spectrum)
        p = params(0.5, 0.5, n)
        _read_lowest_from(monkeypatch, spectrum)
        steps = 8
        a = self._outcome(lambda: loop_states(p, "ground", steps))
        b = self._outcome(lambda: discrete_loop_phase(p, "ground", steps))
        assert a[0] is DiscretizationError and a == b
        assert "below 0.5 between consecutive loop states" in a[1]
        # Sixteen steps halve the angle: chi = cos(pi / 4) passes the check.
        steps = 16
        got = discrete_loop_phase(p, "ground", steps).wrapped
        want = pancharatnam_phase(loop_states(p, "ground", steps).vectors)
        assert circular_distance(got, want) <= 1e-12

    def test_degenerate_level_takes_the_stepped_path(self, monkeypatch):
        calls = []
        stepped = oracle.loop_states

        def spy(*args, **kwargs):
            calls.append(args)
            return stepped(*args, **kwargs)

        p = params(float(np.cos(np.pi / 4)), 0.0, 4)
        steps = 32
        with pytest.warns(DegenerateLevelWarning):
            want = pancharatnam_phase(loop_states(p, "ground", steps).vectors)
        monkeypatch.setattr(oracle, "loop_states", spy)
        with pytest.warns(DegenerateLevelWarning):
            got = discrete_loop_phase(p, "ground", steps)
        assert len(calls) == 1
        assert got.value == want


class TestSzCumulants:
    @pytest.mark.parametrize("n", [4, 6])
    def test_against_moments_of_the_parity_slice(self, n):
        rng = np.random.default_rng(80 + n)
        idx = parity_states(n, 1)
        sz = total_sz_diagonal(n)[idx]
        for lam, gamma in draw_noncritical_points(rng, 3):
            _, vecs = eigh(dense_hamiltonian(n, lam, gamma, 0.0)[np.ix_(idx, idx)])
            prob = np.abs(vecs[:, 0]) ** 2
            raw = [float(np.sum(prob * sz**k)) for k in range(6)]
            # kappa_n from the raw moments by the recursion
            # kappa_n = m_n - sum_{k=1}^{n-1} C(n-1, k-1) kappa_k m_{n-k}.
            kappa = [0.0]
            for order in range(1, 6):
                lower = sum(
                    math.comb(order - 1, k - 1) * kappa[k] * raw[order - k]
                    for k in range(1, order)
                )
                kappa.append(raw[order] - lower)
            got = oracle.sz_cumulants(params(lam, gamma, n))
            assert got[0] == pytest.approx(magnetization_ed(params(lam, gamma, n)), abs=1e-12)
            assert np.allclose(got, kappa[1:], rtol=1e-9, atol=1e-9)

    def test_discretization_error_is_the_kappa3_term(self):
        # m arg chi - pi <S^z> / 2 falls off as -pi^3 kappa_3 / (48 m^2).
        p = params(0.4, 0.9, 8)
        mean, _, k3, _, _ = oracle.sz_cumulants(p)
        assert abs(k3) > 0.1
        for steps in (50, 100, 200):
            got = discrete_loop_phase(p, "ground", steps).wrapped
            error = wrap_angle(got - math.pi * (p.n_sites + mean) / 2)
            assert error == pytest.approx(-math.pi**3 * k3 / (48 * steps**2), rel=1e-3)


class TestEnergiesAlongLoop:
    def test_energies_constant_and_gap_positive(self):
        trace = loop_states(params(0.5, 0.5, 6), "ground", 32)
        assert trace.gap > 0

    @pytest.mark.parametrize(
        "splitting, degenerate",
        [
            (np.nextafter(oracle.DEGENERACY_TOL, 0.0), True),
            (oracle.DEGENERACY_TOL, False),
            (np.nextafter(oracle.DEGENERACY_TOL, 1.0), False),
        ],
    )
    def test_cluster_leaves_a_gap_of_at_least_the_tolerance(
        self, monkeypatch, splitting, degenerate
    ):
        # A hand-built spectrum puts the second level just below, at and just
        # above DEGENERACY_TOL from the first: the cluster takes it exactly
        # below the tolerance, so the gap to the rest is never smaller.
        n = 4
        states = parity_states(n, 1)
        sz = total_sz_diagonal(n)[states]
        vecs = np.eye(states.size)[:, :3]
        spectrum = (np.array([0.0, splitting, 1.0]), vecs, states, sz)
        monkeypatch.setattr(oracle, "_sector_spectrum", lambda *args: spectrum)
        p = params(0.5, 0.5, n)
        if degenerate:
            with pytest.warns(DegenerateLevelWarning):
                trace = loop_states(p, "ground", 16)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trace = loop_states(p, "ground", 16)
        assert trace.degenerate is degenerate
        assert trace.gap >= oracle.DEGENERACY_TOL
        assert trace.gap == (1.0 if degenerate else splitting)
