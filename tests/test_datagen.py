import numpy as np
import pytest
from scipy import stats

from evoscm import (
    DataError,
    default_machine_types,
    gen_hfs,
    gen_makeorbuy,
    load_hfs,
    load_machine_types,
    load_makeorbuy,
    save_hfs,
    save_makeorbuy,
)
from evoscm.datagen import D4_GROUP_WINDOWS, HFS_VARIANTS
from evoscm.flowshop import ALL_MACHINE_TYPES, LT7_FAMILY, LT8_FAMILY

ALPHA = 0.01


class TestGenMakeorbuy:
    def test_ranges(self):
        orders = gen_makeorbuy(500, seed=0)
        assert len(orders) == 500
        assert [o.id for o in orders] == list(range(500))
        for o in orders:
            for q in (o.qty_a, o.qty_b, o.qty_c):
                assert 0 <= q <= 20 and isinstance(q, int)
            assert 800 <= o.deadline_day <= 1500
            assert o.deadline_day == int(o.deadline_day)

    def test_deterministic(self):
        assert gen_makeorbuy(40, seed=9) == gen_makeorbuy(40, seed=9)
        assert gen_makeorbuy(40, seed=9) != gen_makeorbuy(40, seed=10)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            gen_makeorbuy(0, seed=0)

    def test_quantity_uniformity(self):
        orders = gen_makeorbuy(100_000, seed=1)
        counts = np.bincount([o.qty_a for o in orders], minlength=21)
        assert stats.chisquare(counts).pvalue >= ALPHA

    def test_deadline_uniformity(self):
        orders = gen_makeorbuy(100_000, seed=2)
        counts = np.bincount([int(o.deadline_day) - 800 for o in orders],
                             minlength=701)
        assert stats.chisquare(counts).pvalue >= ALPHA


class TestGenHfs:
    def test_variant_and_n_validated(self):
        with pytest.raises(ValueError):
            gen_hfs("d9", 5, seed=0)
        with pytest.raises(ValueError):
            gen_hfs("d1", 0, seed=0)

    def test_d1_ranges(self):
        inst = gen_hfs("d1", 400, seed=0)
        assert len(inst.jobs) == 400
        for job in inst.jobs:
            assert job.machine_type in ALL_MACHINE_TYPES
            assert 1 <= job.basement_day <= 20
            assert 1 <= job.panel_day <= 20
            assert 20 <= job.due_day - job.basement_day <= 50

    def test_d2_is_lt7_family_only(self):
        inst = gen_hfs("d2", 300, seed=1)
        seen = {job.machine_type for job in inst.jobs}
        assert seen <= set(LT7_FAMILY)
        assert seen == set(LT7_FAMILY)

    def test_d3_is_lt8_family_only(self):
        inst = gen_hfs("d3", 400, seed=2)
        seen = {job.machine_type for job in inst.jobs}
        assert seen <= set(LT8_FAMILY)
        assert seen == set(LT8_FAMILY)

    def test_d4_arrivals_share_a_group_window(self):
        inst = gen_hfs("d4", 500, seed=3)
        hits = [0] * len(D4_GROUP_WINDOWS)
        for job in inst.jobs:
            windows = [k for k, (lo, hi) in enumerate(D4_GROUP_WINDOWS)
                       if lo <= job.basement_day <= hi and lo <= job.panel_day <= hi]
            assert windows, (job.basement_day, job.panel_day)
            hits[windows[0]] += 1
            assert 20 <= job.due_day - job.basement_day <= 50
        assert all(h > 0 for h in hits)

    def test_machine_type_uniform_within_family(self):
        inst = gen_hfs("d1", 100_000, seed=4)
        idx = {mt: k for k, mt in enumerate(ALL_MACHINE_TYPES)}
        counts = np.bincount([idx[j.machine_type] for j in inst.jobs],
                             minlength=12)
        assert stats.chisquare(counts).pvalue >= ALPHA

    def test_defaults(self):
        inst = gen_hfs("d1", 3, seed=0)
        assert inst.capacities == {"M": 5, "E": 5, "R": 5}
        assert inst.assembly_areas == 20
        assert inst.transport_days == 2.0
        assert inst.type_specs == default_machine_types()

    def test_overrides_pass_through(self):
        caps = {"M": 1, "E": 2, "R": 3}
        inst = gen_hfs("d2", 3, seed=0, capacities=caps, assembly_areas=4,
                       transport_days=0.5)
        assert inst.capacities == caps
        assert inst.assembly_areas == 4
        assert inst.transport_days == 0.5

    def test_deterministic(self):
        a = gen_hfs("d4", 50, seed=11)
        b = gen_hfs("d4", 50, seed=11)
        assert a.jobs == b.jobs
        assert a.jobs != gen_hfs("d4", 50, seed=12).jobs

    def test_all_variants_exposed(self):
        assert HFS_VARIANTS == ("d1", "d2", "d3", "d4")


class TestMakeorbuyIo:
    def test_round_trip(self, tmp_path):
        orders = gen_makeorbuy(25, seed=0)
        path = tmp_path / "orders.csv"
        save_makeorbuy(orders, path)
        assert load_makeorbuy(path) == orders

    def test_header_written(self, tmp_path):
        path = tmp_path / "orders.csv"
        save_makeorbuy(gen_makeorbuy(1, seed=0), path)
        header = path.read_text().splitlines()[0]
        assert header == "id,qty_a,qty_b,qty_c,deadline_day"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_makeorbuy(tmp_path / "nope.csv")

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text("id,qty_a,qty_b,qty_c\n0,1,2,3\n")
        with pytest.raises(DataError, match="deadline_day"):
            load_makeorbuy(path)

    def test_bad_value_cites_line(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text("id,qty_a,qty_b,qty_c,deadline_day\n"
                        "0,1,2,3,900\n"
                        "1,x,2,3,900\n")
        with pytest.raises(DataError, match="line 3"):
            load_makeorbuy(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text("id,qty_a,qty_b,qty_c,deadline_day\n")
        with pytest.raises(DataError, match="no orders"):
            load_makeorbuy(path)


class TestHfsIo:
    def test_round_trip(self, tmp_path):
        inst = gen_hfs("d1", 30, seed=0)
        path = tmp_path / "jobs.csv"
        save_hfs(inst, path)
        back = load_hfs(path)
        assert back.jobs == inst.jobs
        assert back.type_specs == inst.type_specs

    def test_load_parameters_apply(self, tmp_path):
        path = tmp_path / "jobs.csv"
        save_hfs(gen_hfs("d2", 5, seed=0), path)
        caps = {"M": 2, "E": 2, "R": 2}
        back = load_hfs(path, capacities=caps, assembly_areas=3,
                        transport_days=1.0)
        assert back.capacities == caps
        assert back.assembly_areas == 3
        assert back.transport_days == 1.0

    def test_unknown_machine_type_cites_line_seven(self, tmp_path):
        rows = ["id,machine_type,due_day,basement_day,panel_day"]
        for i in range(5):
            rows.append(f"{i},LT7,40,5,5")
        rows.append("5,LT99,40,5,5")
        path = tmp_path / "jobs.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="line 7.*LT99"):
            load_hfs(path)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text("id,machine_type,due_day,basement_day\n0,LT7,40,5\n")
        with pytest.raises(DataError, match="panel_day"):
            load_hfs(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_hfs(tmp_path / "nope.csv")

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text("id,machine_type,due_day,basement_day,panel_day\n")
        with pytest.raises(DataError, match="no jobs"):
            load_hfs(path)


SHORT_TABLES = {
    load_makeorbuy: "id,qty_a,qty_b,qty_c,deadline_day\n0,1,2,3,900\n1,1,2\n",
    load_hfs: "id,machine_type,due_day,basement_day,panel_day\n0,LT7,40,5,5\n1,LT7\n",
    load_machine_types: "machine_type,phase_index,category,duration_days\n"
                        "T1,0,M,2\nT1,1\n",
}


class TestShortRows:
    """A row short of a value names the file, the line and the columns."""

    @pytest.mark.parametrize("load", SHORT_TABLES, ids=lambda load: load.__name__)
    def test_short_row_is_a_data_error(self, tmp_path, load):
        path = tmp_path / "table.csv"
        path.write_text(SHORT_TABLES[load])
        with pytest.raises(DataError, match=r"table\.csv, line 3: no value for \["):
            load(path)

    def test_blank_lines_keep_line_numbers(self, tmp_path):
        path = tmp_path / "orders.csv"
        path.write_text("id,qty_a,qty_b,qty_c,deadline_day\n0,1,2,3,900\n\n1,x,2,3,900\n")
        with pytest.raises(DataError, match="line 4"):
            load_makeorbuy(path)


LONG_TABLES = {
    load_makeorbuy: "id,qty_a,qty_b,qty_c,deadline_day\n0,1,2,3,900\n1,1,2,3,900,77\n",
    load_hfs: "id,machine_type,due_day,basement_day,panel_day\n0,LT7,40,5,5\n"
              "1,LT7,40,5,5,9\n",
    load_machine_types: "machine_type,phase_index,category,duration_days\n"
                        "T1,0,M,2\nT1,1,E,3,4\n",
}


class TestLongRows:
    """A row with more values than the header names the file and the line,
    instead of dropping the surplus."""

    @pytest.mark.parametrize("load", LONG_TABLES, ids=lambda load: load.__name__)
    def test_long_row_is_a_data_error(self, tmp_path, load):
        path = tmp_path / "table.csv"
        path.write_text(LONG_TABLES[load])
        with pytest.raises(DataError, match=r"table\.csv, line 3: 1 more value"):
            load(path)


class TestMachineTypeTable:
    def test_default_table_complete(self):
        specs = default_machine_types()
        assert set(specs) == set(ALL_MACHINE_TYPES)
        for phases in specs.values():
            assert len(phases) >= 1
            for cat, dur in phases:
                assert cat in {"M", "E", "R"}
                assert dur > 0

    def test_load_custom_table(self, tmp_path):
        path = tmp_path / "types.csv"
        path.write_text("machine_type,phase_index,category,duration_days\n"
                        "T1,0,M,2\n"
                        "T1,1,E,3\n"
                        "T2,0,R,1.5\n")
        specs = load_machine_types(path)
        assert specs == {"T1": (("M", 2.0), ("E", 3.0)), "T2": (("R", 1.5),)}

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "types.csv"
        path.write_text("machine_type,category,duration_days\nT1,M,2\n")
        with pytest.raises(DataError, match="phase_index"):
            load_machine_types(path)

    def test_duplicate_phase(self, tmp_path):
        path = tmp_path / "types.csv"
        path.write_text("machine_type,phase_index,category,duration_days\n"
                        "T1,0,M,2\n"
                        "T1,0,E,3\n")
        with pytest.raises(DataError, match="duplicate phase"):
            load_machine_types(path)

    def test_gapped_phase_indices(self, tmp_path):
        path = tmp_path / "types.csv"
        path.write_text("machine_type,phase_index,category,duration_days\n"
                        "T1,0,M,2\n"
                        "T1,2,E,3\n")
        with pytest.raises(DataError, match="not 0..k-1"):
            load_machine_types(path)

    def test_bad_duration_cites_line(self, tmp_path):
        path = tmp_path / "types.csv"
        path.write_text("machine_type,phase_index,category,duration_days\n"
                        "T1,0,M,abc\n")
        with pytest.raises(DataError, match="line 2"):
            load_machine_types(path)

    def test_gen_accepts_custom_table(self):
        specs = {mt: (("M", 1.0), ("E", 1.0)) for mt in ALL_MACHINE_TYPES}
        inst = gen_hfs("d1", 5, seed=0, type_specs=specs)
        assert inst.type_specs is specs
