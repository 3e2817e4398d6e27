"""The shared CSV reader and atomic writer, and the error contract of every input parser on any bytes."""

import dataclasses
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from transient_kinetics.cli import _read_fit_table, _read_schedule_csv
from transient_kinetics.config import load_calibration_file
from transient_kinetics.dscfit import read_trace_csv
from transient_kinetics.errors import ConfigError, LineError
from transient_kinetics.fileio import atomic_write, atomic_writer, parse_csv, read_text
from transient_kinetics.mission import load_mission


class TestReadCsv:
    def test_rows_carry_file_lines_and_comments_fill_metadata(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# temperature_K = 300\n\n  # note\n a,b \n#uv_on=true\n1,2\n")
        meta, rows = parse_csv(read_text(path, "trace"), path)
        assert meta == {"temperature_K": "300", "uv_on": "true"}
        assert rows == [(4, ["a", "b"]), (6, ["1", "2"])]

    def test_cell_count_differs_from_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2,3\n\n1,2\n")
        with pytest.raises(LineError) as err:
            parse_csv(read_text(path, "trace"), path)
        assert err.value.line_number == 4
        assert str(err.value) == f"{path}:4: expected 3 columns, got 2"


class TestAtomicWriter:
    def test_a_write_that_raises_midway_keeps_the_old_bytes(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old bytes\n")
        with pytest.raises(OSError, match="disk gone"):
            with atomic_writer(target) as fh:
                fh.write("first chunk\n" * 1000)
                fh.flush()  # the chunk is on disk, in the temp file
                raise OSError("disk gone")
        assert target.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_success_renames_the_file_into_place(self, tmp_path):
        target = tmp_path / "out.jsonl"
        with atomic_writer(target) as fh:
            fh.write("a\n")
            fh.flush()
            # until the block ends, only the temp file exists
            (tmp,) = tmp_path.iterdir()
            assert tmp.name.startswith("out.jsonl.") and tmp.name.endswith(".tmp")
            fh.writelines(["b\r\n", "\u00e9\n"])
        assert target.read_bytes() == "a\nb\r\n\u00e9\n".encode()
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_bits_are_those_of_a_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain", "w"):
                pass
            atomic_write(tmp_path / "whole", "text\n")
            with atomic_writer(tmp_path / "streamed") as fh:
                fh.write("text\n")
        finally:
            os.umask(old)
        modes = {name: stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("plain", "whole", "streamed")}
        assert modes == dict.fromkeys(modes, 0o666 & ~umask)


# Files are drawn as blocks: a head line (a header, a metadata line or a
# [section]) followed by lines drawn from that head's own pool, valid and
# broken, plus junk that every format must survive. Drawn files thus often
# get past the first checks and reach the deeper ones.
JUNK = ["", "   ", "  # note", "#", "\t", "\x00", ",", "= value", "é,ü"]
TRACE_ROWS = ["0,1", "1,0.5", "2,0.25", "1,1", "nan,inf", "-1,1", "a,b", "0,1,2"]
SCHEDULE_ROWS = [
    "100,25,true", "10,120,off", "0,25,true", "inf,25,true", "1e400,25,true", "nan,nan,false",
    "-5,25,true", "100,25,maybe", "100,-300,true", "100,25",
]
FIT_ROWS = [
    "r,353.15,1e-4,10.0,0.0,3,true,", "r,393.15,6.7e-4,10.0,0.0,3,yes,", "r,393.15,,,,0,false,x",
    "r,0,-1,10.0,0.0,3,true,", "r,393.15,1e-3,10.0,0.0,3,maybe,", "r,80,393.15,1e-3,10,0,3,true,",
    "r,nan,inf,10.0,0.0,3,1,",
]
ZONE_ENTRIES = [
    "name = a", "x_min = 0", "x_max = 1", "x_min = 1", "x_max = 2", "temperature_c = 25",
    "temperature_k = 300", "temperature_k = -1", "uv_on = true", "uv_on = maybe",
]
BLOCKS = {
    "trace": {
        "# temperature_K=393.15": [], "# temperature_K=nan": [], "# uv_on=true": [],
        "# uv_on=maybe": [], "# label=a,b": [],
        "time_s,heat_flow_W": TRACE_ROWS, "time_s , heat_flow_W": TRACE_ROWS, "a,b": TRACE_ROWS,
    },
    "schedule": {
        "duration_s,temperature_C,uv_on": SCHEDULE_ROWS,
        "duration_s,temperature_K,uv_on": SCHEDULE_ROWS,
        "duration_s,x,uv_on": SCHEDULE_ROWS, "duration_s,temperature_C": SCHEDULE_ROWS,
    },
    "fit-table": {
        "label,temperature_K,k_per_s,total_enthalpy_J,residual_rms_W,iterations,converged,error":
            FIT_ROWS,
        "label,temperature_K,k_per_s": FIT_ROWS,
    },
    "config": {
        "[kinetics]": ["pre_exponential_per_s = 0.1703", "activation_energy_kj_per_mol = nan"],
        "[actuator]": [
            "max_pressure_kpa = 0", "max_pressure_kpa = 12", "angle_at_max_deg = 90",
            "strain_at_max = 0.3", "angle_table = 0:0, 6:20, 12:35", "angle_table = 0:0, x",
            "wall_material = ecoflex-20wt", "wall_material = nowhere",
        ],
        "[material.m]": ["modulus_pa = 5e4", "poisson = 0.5", "fracture_strain = -1"],
        "[sensor.strain]": ["capacitance_table = 0:10, 35:11", "capacitance_table = 1:2:3"],
        "[simulation]": ["dt_s = 0", "timeout_s = inf"],
        "[": [], "[nowhere]": [],
    },
    "mission": {
        "[zone.a]": ZONE_ENTRIES, "[zone.b]": ZONE_ENTRIES,
        "[script]": [
            "move_to = 0.5", "move_to = 9", "dwell = 5", "dwell = 0", "await_uv_dose = 0.5",
            "await_uv_dose = 2", "self_destruct", "jump = 1",
        ],
        "[robot]": ["position = 0.5", "position = x"],
        "[alarms]": [
            "rule = alpha >= 0.5 -> half", "rule = abs(t) > 1e999 -> big", "rule = t ->",
            "rule = zz > 1 -> no",
        ],
        "[]": [],
    },
}
# One input per format that holds a NaN or infinite number. The drawn files
# reach such a case only now and then, so each is also tried on every run.
NON_FINITE = {
    "trace": b"# temperature_K=393.15\ntime_s,heat_flow_W\n0,1\nnan,inf\n",
    "schedule": b"duration_s,temperature_C,uv_on\ninf,25,true\n",
    "fit-table": b"label,temperature_K,k_per_s,converged\nr,nan,inf,1\nq,393.15,1e-3,1\n",
    "config": b"[simulation]\ntimeout_s = inf\n",
    "mission": b"[zone.a]\nx_max = 1\nx_min = 0\ntemperature_c = 25\n[script]\ndwell = 5\n"
    b"[alarms]\nrule = abs(t) > 1e999 -> big\n",
}
READERS = {
    "trace": read_trace_csv,
    "schedule": _read_schedule_csv,
    "fit-table": _read_fit_table,
    "config": load_calibration_file,
    "mission": load_mission,
}


def file_bytes(blocks):
    """Arbitrary bytes, or a file of blocks drawn from ``blocks`` (head -> body lines)."""
    block = st.sampled_from(sorted(blocks.items())).flatmap(
        lambda item: st.lists(st.sampled_from(item[1] + JUNK), max_size=6).map(
            lambda body: [item[0], *body]
        )
    )
    drawn = st.lists(block, min_size=1, max_size=4).map(
        lambda blocks: "\n".join(line for lines in blocks for line in lines).encode()
    )
    return st.one_of(st.binary(max_size=64), drawn)


def non_finite_numbers(value) -> list:
    """Every NaN or infinite number held in ``value``, through dataclass fields,
    tuples, lists, dict values and numpy arrays."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [value]
    if isinstance(value, np.ndarray):
        return value[~np.isfinite(value)].tolist()
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [x for item in value for x in non_finite_numbers(item)]
    return []


@pytest.mark.parametrize("kind", sorted(READERS))
def test_any_bytes_give_a_value_or_a_config_error(kind, tmp_path):
    path = tmp_path / "input"

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=file_bytes(BLOCKS[kind]))
    @example(data=NON_FINITE[kind])
    def check(data):
        path.write_bytes(data)
        try:
            value = READERS[kind](path)
        except ConfigError:
            return
        assert non_finite_numbers(value) == []

    check()
