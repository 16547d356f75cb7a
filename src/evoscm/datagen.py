"""Dataset generators and CSV IO for both problems.

Make-or-buy order lists: component quantities uniform on {0..20}, deadlines
uniform on {800..1500} days. Flow-shop job lists come in four variants:

* d1: all twelve machine types, arrivals in days 1..20
* d2: the LT7 family only
* d3: the LT8 family only
* d4: all types, with each job assigned to one of five 73-day groups of the
  year and its basement/panel arrivals drawn inside that group's window

Due dates are always basement day + uniform {20..50}. Every CSV table file,
the benchmark's ``finals.csv`` too, is read by ``read_table``, which reports
a bad file as a ``DataError`` naming the file and, for a line, its number,
and written by ``write_csv``, which the benchmark's artifacts share.
"""

from __future__ import annotations

import csv
import importlib.resources
import io
import itertools
from pathlib import Path

import numpy as np

from .flowshop import (ALL_MACHINE_TYPES, LT7_FAMILY, LT8_FAMILY, HfsInstance,
                       Job, Schedule, validate_type_specs)
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
    return load_machine_types(importlib.resources.files("evoscm") / "data/machine_types.csv")


def load_machine_types(path) -> dict:
    phases = {}

    def add(row):
        mt, idx = row["machine_type"].strip(), int(row["phase_index"])
        phase = (row["category"].strip(), float(row["duration_days"]))
        if idx in phases.setdefault(mt, {}):
            raise ValueError(f"duplicate phase {idx} for {mt!r}")
        phases[mt][idx] = phase

    read_table(path, ("machine_type", "phase_index", "category", "duration_days"), add,
               "phases")
    specs = {}
    for mt, by_index in phases.items():
        if sorted(by_index) != list(range(len(by_index))):
            raise DataError(f"{path}: phase indices for {mt!r} are not 0..k-1")
        specs[mt] = tuple(by_index[k] for k in range(len(by_index)))
    try:
        validate_type_specs(specs)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
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
    return read_table(path, _ORDER_COLUMNS, lambda row: Order(
        id=int(row["id"]), qty_a=int(row["qty_a"]), qty_b=int(row["qty_b"]),
        qty_c=int(row["qty_c"]), deadline_day=float(row["deadline_day"])), "orders")


def save_hfs(instance: HfsInstance, path):
    """Write the job list; capacities/areas/transport are load parameters."""
    write_csv(path, (), _JOB_COLUMNS,
              ([job.id, job.machine_type, fmt_num(job.due_day), fmt_num(job.basement_day),
                fmt_num(job.panel_day)] for job in instance.jobs))


def load_hfs(path, type_specs: dict = None, **shop) -> HfsInstance:
    """Read ``save_hfs``'s job list; ``shop`` keywords as in ``gen_hfs``."""
    if type_specs is None:
        type_specs = default_machine_types()

    def job(row):
        mt = row["machine_type"].strip()
        if mt not in type_specs:
            raise ValueError(f"unknown machine type {mt!r}")
        return Job(id=int(row["id"]), machine_type=mt, due_day=float(row["due_day"]),
                   basement_day=float(row["basement_day"]),
                   panel_day=float(row["panel_day"]))

    return HfsInstance(jobs=tuple(read_table(path, _JOB_COLUMNS, job, "jobs")),
                       type_specs=type_specs, **shop)


def save_schedule(schedule: Schedule, path):
    """Write one CSV row per phase: job_id,phase_index,category,start,end."""
    write_csv(path, (), ("job_id", "phase_index", "category", "start", "end"),
              ([job_id, k, category, repr(float(start)), repr(float(end))]
               for job_id, spans in zip(schedule.job_ids, schedule.phases)
               for k, (category, start, end) in enumerate(spans)))


def read_table(path, columns, make, what) -> list:
    """``make(row)`` for each row of the UTF-8 CSV table file at ``path``
    (a byte-order mark is dropped), in order, after any leading ``#`` lines.
    A missing file, bytes that are not UTF-8, a header that lacks one of
    ``columns``, a row short of one of them or longer than the header, a row
    on which ``make`` raises TypeError or ValueError, and a table with no rows
    ("no ``what``") are each a DataError naming ``path`` and any line at fault."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise DataError(f"{path}: no such file") from None
    try:
        fh = io.StringIO(data.decode("utf-8-sig"), newline="")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}, line {line}: byte {data[exc.start]:#04x} is not UTF-8") from None
    skipped, first = 0, fh.readline()
    while first.startswith("#"):
        skipped, first = skipped + 1, fh.readline()
    reader = csv.DictReader(itertools.chain((first,), fh))
    missing = sorted(set(columns) - set(reader.fieldnames or ()))
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
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
            raise DataError(f"{path}, line {skipped + reader.line_num}: {exc}") from None
    if not made:
        raise DataError(f"{path}: no {what}")
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
