"""The CSV row formatter and atomic writer, and the grid artifacts against the row-by-row
references."""

import numpy as np
import pytest

from xyberry import model, tables
from xyberry.cli import parse_range
from xyberry.model import grid_points
from xyberry.phases import phase_surface, relative_phase_thermo_arrays, write_phase_surface_csv
from xyberry.scaling import gap_map, step_detect, write_gap_map_csv, write_step_trace_csv
from grid_reference import (
    phase_surface_reference,
    write_gap_map_reference,
    write_phase_surface_reference,
    write_step_trace_reference,
)

# (lam values, gamma values): a -0.0 axis value on each axis, repeated axis
# values, negative gamma, the gamma = 0 XX column with |lam| = 1 rows, one
# point, and an all-critical grid.
GRIDS = {
    "signed-zero": ([-0.0, 0.0, 0.5, -0.5], [-0.0, 0.0, 0.3]),
    "repeated": ([0.3, 0.3, 1.5, 0.3], [0.5, 0.5, 0.2, 0.5]),
    "negative-gamma": ([-1.6, -0.45, 0.3, 1.25], [-1.2, -0.5, -0.05]),
    "xx-column-ising-rows": ([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5], [0.0, 0.4, 1.0, 1.5]),
    "single-point": ([0.3], [0.7]),
    "all-critical": ([1.0, -1.0], [0.0, 0.7]),
}


def surface_bytes(tmp_path, lams, gammas, n_sites):
    """(package artifact, reference artifact) of one phase surface."""
    write_phase_surface_csv(phase_surface(lams, gammas, n_sites), tmp_path / "s.csv")
    write_phase_surface_reference(phase_surface_reference(lams, gammas, n_sites), tmp_path / "r.csv")
    return (tmp_path / "s.csv").read_bytes(), (tmp_path / "r.csv").read_bytes()


def gap_map_bytes(tmp_path, lams, gammas, n_sites):
    data = gap_map(lams, gammas, n_sites)
    write_gap_map_csv(data, tmp_path / "g.csv")
    lam, gamma = grid_points(lams, gammas)
    write_gap_map_reference(lam, gamma, data.gap, data.codes, data.distance, tmp_path / "r.csv")
    return (tmp_path / "g.csv").read_bytes(), (tmp_path / "r.csv").read_bytes()


class TestSurfaceBytes:
    @pytest.mark.parametrize("n_sites", [4, 10, 1000])
    @pytest.mark.parametrize("grid", GRIDS)
    def test_grids(self, grid, n_sites, tmp_path):
        new, ref = surface_bytes(tmp_path, *GRIDS[grid], n_sites)
        assert new == ref

    def test_readme_grid(self, tmp_path):
        lams, gammas = parse_range("0:2:0.02"), parse_range("0:1:0.02")
        new, ref = surface_bytes(tmp_path, lams, gammas, 1000)
        assert new == ref

    @pytest.mark.parametrize("grid", GRIDS)
    def test_more_modes_than_block_elements(self, grid, monkeypatch, tmp_path):
        # N/2 = 10 modes over a bound of 8: every tile is one point.
        monkeypatch.setattr(model, "MODE_BLOCK_ELEMENTS", 8)
        new, ref = surface_bytes(tmp_path, *GRIDS[grid], 20)
        assert new == ref

    def test_more_modes_than_the_default_block(self, tmp_path):
        n_sites = 2 * (model.MODE_BLOCK_ELEMENTS + 1)
        new, ref = surface_bytes(tmp_path, [-0.5, 0.3, 1.5], [0.0, 0.2], n_sites)
        assert new == ref


class TestGapMapBytes:
    @pytest.mark.parametrize("n_sites", [None, 8, 1000])
    @pytest.mark.parametrize("grid", GRIDS)
    def test_grids(self, grid, n_sites, tmp_path):
        new, ref = gap_map_bytes(tmp_path, *GRIDS[grid], n_sites)
        assert new == ref

    @pytest.mark.parametrize("n_sites", [None, 1000])
    def test_readme_grid(self, n_sites, tmp_path):
        lams, gammas = parse_range("0:2:0.02"), parse_range("0:1:0.02")
        new, ref = gap_map_bytes(tmp_path, lams, gammas, n_sites)
        assert new == ref


def test_step_trace_bytes(tmp_path):
    lams = parse_range("0:2:0.005")
    gammas = [0.05, 0.2, 0.5, -0.3]
    stars = [step_detect(lams, relative_phase_thermo_arrays(lams, g)) for g in gammas]
    write_step_trace_csv((gammas, stars), tmp_path / "t.csv")
    write_step_trace_reference(zip(gammas, stars), tmp_path / "r.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()


class TestWriteCsv:
    def test_blocks_do_not_change_the_bytes(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 37))
        cells = tables.Cells(["x", "y%z", "-0"], rng.integers(0, 3, 37))
        texts = set()
        for block in (1, 3, 7, 2**14):
            monkeypatch.setattr(model, "MODE_BLOCK_ELEMENTS", block)
            tables.write_csv(tmp_path / "t.csv", "h", [a, cells, b])
            texts.add((tmp_path / "t.csv").read_text(encoding="utf-8"))
        want = "h\n" + "".join(
            f"{format(x, '.12g')},{cells.table[k]},{format(y, '.12g')}\n"
            for x, k, y in zip(a, cells.index, b)
        )
        assert texts == {want}

    @pytest.mark.parametrize("old", [None, b"old\n"], ids=["absent", "present"])
    @pytest.mark.parametrize("error", [OSError("disk full"), MemoryError("no room")])
    @pytest.mark.parametrize("writer", ["phase-surface", "gap-map", "step-trace"])
    def test_public_writers_are_atomic(self, writer, error, old, monkeypatch, tmp_path):
        # A library caller gets the CLI's guarantee: a failure after the first
        # block leaves the target as it was and no temporary file beside it.
        lams, gammas = [0.5, 0.6, 0.7], [0.5, 0.6]
        data = {
            "phase-surface": (write_phase_surface_csv, phase_surface(lams, gammas, 8)),
            "gap-map": (write_gap_map_csv, gap_map(lams, gammas, 8)),
            "step-trace": (write_step_trace_csv, ([0.05, 0.2, 0.5], [0.95, 0.8, 0.25])),
        }
        write, columns = data[writer]
        out = tmp_path / "a.csv"
        if old is not None:
            out.write_bytes(old)
        monkeypatch.setattr(model, "MODE_BLOCK_ELEMENTS", 4)  # two blocks or more each
        format_rows, blocks = tables._format_rows, []

        def fail_after_first(*args):
            if blocks:
                raise error
            blocks.append(format_rows(*args))
            return blocks[-1]

        monkeypatch.setattr(tables, "_format_rows", fail_after_first)
        with pytest.raises(type(error)):
            write(columns, out)
        assert len(blocks) == 1 and blocks[0]
        assert list(tmp_path.iterdir()) == ([] if old is None else [out])
        if old is not None:
            assert out.read_bytes() == old

    def test_no_rows_leaves_the_header(self, tmp_path):
        tables.write_csv(tmp_path / "t.csv", "a,b", [np.array([]), tables.Cells([], np.array([], int))])
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"

    def test_cells_format_each_value_by_position_and_bits(self):
        lam, gamma = tables.grid_cells([0.0, -0.0, 0.0], [2.5, 2.5])
        assert lam.table == ["0", "-0", "0"] and gamma.table == ["2.5", "2.5"]
        assert lam.index.tolist() == [0, 0, 1, 1, 2, 2]
        assert gamma.index.tolist() == [0, 1, 0, 1, 0, 1]
        distinct = tables.distinct_cells([0.0, -0.0, 0.1, 0.0, -0.0])
        assert sorted(distinct.table) == ["-0", "0", "0.1"]
        assert [distinct.table[k] for k in distinct.index] == ["0", "-0", "0.1", "0", "-0"]
