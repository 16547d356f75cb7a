"""Dataset generators and CSV IO for both problems.

Make-or-buy order lists: component quantities uniform on {0..20}, deadlines
uniform on {800..1500} days. Flow-shop job lists come in four variants:

* d1: all twelve machine types, arrivals in days 1..20
* d2: the LT7 family only
* d3: the LT8 family only
* d4: all types, with each job assigned to one of five 73-day groups of the
  year and its basement/panel arrivals drawn inside that group's window

Due dates are always basement day + uniform {20..50}. Every table is read
by ``_read_rows``, which reports a bad file as a ``DataError`` naming the
file, the line and the column or value, and written by ``write_csv``, which
the benchmark's artifacts share.
"""

from __future__ import annotations

import csv
import importlib.resources
import itertools
from pathlib import Path

import numpy as np

from .flowshop import (ALL_MACHINE_TYPES, LT7_FAMILY, LT8_FAMILY, HfsInstance,
                       Job, validate_type_specs)
from .makeorbuy import Order
from .tree import fmt_num

HFS_VARIANTS = ("d1", "d2", "d3", "d4")
_ORDER_COLUMNS = ("id", "qty_a", "qty_b", "qty_c", "deadline_day")
_JOB_COLUMNS = ("id", "machine_type", "due_day", "basement_day", "panel_day")

# The most orders or jobs a generator draws: far past the paper's instances,
# and few enough that the dataset fits in memory as objects.
MAX_N = 10**5

# d4 splits the year into five equal 73-day groups.
D4_GROUP_WINDOWS = ((1, 73), (74, 146), (147, 219), (220, 292), (293, 365))


class DataError(ValueError):
    """A dataset file problem, with enough context to fix it."""


def gen_makeorbuy(n: int, seed) -> list:
    """n orders: quantities ~ U{0..20} per component, deadline ~ U{800..1500}."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in [1, {MAX_N}], got {n}")
    rng = np.random.default_rng(seed)
    qty = rng.integers(0, 21, size=(n, 3))
    deadline = rng.integers(800, 1501, size=n)
    return [Order(id=i, qty_a=int(qty[i, 0]), qty_b=int(qty[i, 1]),
                  qty_c=int(qty[i, 2]), deadline_day=float(deadline[i]))
            for i in range(n)]


def default_machine_types() -> dict:
    """The packaged machine-type table: name -> ((category, duration), ...)."""
    path = importlib.resources.files("evoscm").joinpath("data/machine_types.csv")
    with path.open("r", encoding="utf-8") as fh:
        return _read_machine_types(fh, "evoscm/data/machine_types.csv")


def load_machine_types(path) -> dict:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return _read_machine_types(fh, str(path))


def _read_machine_types(fh, name) -> dict:
    phases = {}

    def add(row):
        mt, idx = row["machine_type"].strip(), int(row["phase_index"])
        phase = (row["category"].strip(), float(row["duration_days"]))
        if idx in phases.setdefault(mt, {}):
            raise ValueError(f"duplicate phase {idx} for {mt!r}")
        phases[mt][idx] = phase

    _read_rows(fh, name, ("machine_type", "phase_index", "category", "duration_days"), add)
    specs = {}
    for mt, by_index in phases.items():
        if sorted(by_index) != list(range(len(by_index))):
            raise DataError(f"{name}: phase indices for {mt!r} are not 0..k-1")
        specs[mt] = tuple(by_index[k] for k in range(len(by_index)))
    try:
        validate_type_specs(specs)
    except ValueError as exc:
        raise DataError(f"{name}: {exc}") from None
    return specs


def gen_hfs(variant: str, n: int, seed, type_specs: dict = None, **shop) -> HfsInstance:
    """Generate a flow-shop instance for variants d1..d4; ``shop`` keywords
    (``capacities``, ``assembly_areas``, ``transport_days``) go to ``HfsInstance``."""
    if variant not in HFS_VARIANTS:
        raise ValueError(f"variant must be one of {HFS_VARIANTS}, got {variant!r}")
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in [1, {MAX_N}], got {n}")
    rng = np.random.default_rng(seed)
    if type_specs is None:
        type_specs = default_machine_types()
    families = {"d1": ALL_MACHINE_TYPES, "d2": LT7_FAMILY,
                "d3": LT8_FAMILY, "d4": ALL_MACHINE_TYPES}
    family = families[variant]
    jobs = []
    for i in range(n):
        mt = family[int(rng.integers(0, len(family)))]
        if variant == "d4":
            lo, hi = D4_GROUP_WINDOWS[int(rng.integers(0, len(D4_GROUP_WINDOWS)))]
            basement = int(rng.integers(lo, hi + 1))
            panel = int(rng.integers(lo, hi + 1))
        else:
            basement = int(rng.integers(1, 21))
            panel = int(rng.integers(1, 21))
        due = basement + int(rng.integers(20, 51))
        jobs.append(Job(id=i, machine_type=mt, due_day=float(due),
                        basement_day=float(basement), panel_day=float(panel)))
    return HfsInstance(jobs=tuple(jobs), type_specs=type_specs, **shop)


def save_makeorbuy(orders, path):
    write_csv(path, (), _ORDER_COLUMNS,
              ([o.id, o.qty_a, o.qty_b, o.qty_c, fmt_num(o.deadline_day)] for o in orders))


def load_makeorbuy(path) -> list:
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such file")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        orders = _read_rows(fh, path, _ORDER_COLUMNS, lambda row: Order(
            id=int(row["id"]), qty_a=int(row["qty_a"]), qty_b=int(row["qty_b"]),
            qty_c=int(row["qty_c"]), deadline_day=float(row["deadline_day"])))
    if not orders:
        raise DataError(f"{path}: no orders")
    return orders


def save_hfs(instance: HfsInstance, path):
    """Write the job list; capacities/areas/transport are load parameters."""
    write_csv(path, (), _JOB_COLUMNS,
              ([job.id, job.machine_type, fmt_num(job.due_day), fmt_num(job.basement_day),
                fmt_num(job.panel_day)] for job in instance.jobs))


def load_hfs(path, type_specs: dict = None, **shop) -> HfsInstance:
    """Read ``save_hfs``'s job list; ``shop`` keywords as in ``gen_hfs``."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such file")
    if type_specs is None:
        type_specs = default_machine_types()

    def job(row):
        mt = row["machine_type"].strip()
        if mt not in type_specs:
            raise ValueError(f"unknown machine type {mt!r}")
        return Job(id=int(row["id"]), machine_type=mt, due_day=float(row["due_day"]),
                   basement_day=float(row["basement_day"]),
                   panel_day=float(row["panel_day"]))

    with open(path, "r", encoding="utf-8", newline="") as fh:
        jobs = _read_rows(fh, path, _JOB_COLUMNS, job)
    if not jobs:
        raise DataError(f"{path}: no jobs")
    return HfsInstance(jobs=tuple(jobs), type_specs=type_specs, **shop)


def _read_rows(fh, name, columns, make) -> list:
    """``make(row)`` for each row of the CSV table in ``fh``, in order,
    after any leading ``#`` lines (``write_csv``'s header lines). A header
    that lacks one of ``columns``, a row with no value for one of them or
    with more values than the header, or a row on which ``make`` raises
    TypeError or ValueError is a DataError that names ``name`` and, for a
    row, its line in the file."""
    skipped, first = 0, fh.readline()
    while first.startswith("#"):
        skipped, first = skipped + 1, fh.readline()
    reader = csv.DictReader(itertools.chain((first,), fh))
    missing = sorted(set(columns) - set(reader.fieldnames or ()))
    if missing:
        raise DataError(f"{name}: missing columns {missing}")
    made = []
    for row in reader:
        try:
            empty = [c for c in columns if row[c] is None]
            if empty:
                raise ValueError(f"no value for {empty}")
            if None in row:  # DictReader files surplus values under None
                raise ValueError(f"{len(row[None])} more value(s) than the header")
            made.append(make(row))
        except (TypeError, ValueError) as exc:
            raise DataError(f"{name}, line {skipped + reader.line_num}: {exc}") from None
    return made


def write_csv(path, header_lines, columns, rows):
    """Write ``header_lines`` (``#`` comment lines), then the CSV table of
    ``columns`` and ``rows``: the layout that datasets and benchmark CSV
    artifacts share."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
