"""Pinned outputs of the console script, one row per command: run them
with `python -m pytest -q ci`.

Each row runs one command in a fresh child, a `cantor-hankel` command
line found on PATH or a Python snippet under this interpreter, and pins
its exit code, its stdout (the bytes, or their sha256 hex digest), a
timeout (JOB_S, the CI job's own, where the row sets none) and a bound
on the child's peak RSS.  Its note says what the row pins and why.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
VERIFY = (ROOT / "bench" / "expected_verify.txt").read_bytes()
KERNEL_DFAO = b"".join(line for line in VERIFY.splitlines(keepends=True)
                       if re.match(rb"ok   (kernel-soundness|dfao-grid):", line))
JOB_S = 20 * 60
CAP = 3 ** 200 - 1  # 200 base-3 digits, the digit cap


@dataclass(frozen=True)
class Row:
    name: str
    note: str
    argv: tuple[str, ...]
    expect: bytes | str  # stdout, or its sha256 hex digest
    code: int = 0
    timeout: float = JOB_S
    rss_mb: float = math.inf


def step(name: str, note: str, *commands: tuple, **limits) -> list[Row]:
    """One row per (command, expect) pair; a command given as a string is
    split on spaces.  Rows of a step share its note and limits."""
    return [Row(name if len(commands) == 1 else f"{name} #{i + 1}", note,
                tuple(command.split()) if isinstance(command, str) else command, expect,
                **limits) for i, (command, expect) in enumerate(commands)]


def snippet(code: str) -> tuple[str, ...]:
    """code run under this interpreter, with the checkout's src appended to
    sys.path: after site-packages, so that an installed package wins and a
    checkout that is not installed still runs."""
    return (sys.executable, "-c", f"import sys\nsys.path.append({str(ROOT / 'src')!r})\n" + code)


def checks_ok(*calls: str) -> tuple[str, ...]:
    """A snippet that fails unless each checks.<call>, in turn, is ok."""
    return snippet("from cantor_hankel import checks\n" + "".join(
        f"result = checks.{call}\nassert result.ok, result.line()\n" for call in calls))


# The SHA-256 of engine.tables, both kinds, at seeded offsets: 13-digit
# rows by columns below 3^6 and by 13-digit columns, in blocks of sides 1,
# 10, 30 and 120, and 3 x 3 tables at 200 digits, ten of each.
FAR_TABLES = snippet("""import hashlib, random
from cantor_hankel import engine
rng, digest = random.Random(52), hashlib.sha256()
for _ in range(10):
    for side, digits in ((1, 13), (10, 13), (30, 13), (120, 13), (3, 200)):
        n = rng.randrange(3 ** (digits - 1), 3 ** digits - side)
        for p in (rng.randrange(3 ** 6), rng.randrange(3 ** (digits - 1), 3 ** digits - side)):
            for table in engine.tables(n, n + side - 1, p, p + side - 1):
                digest.update(table.tobytes())
print(digest.hexdigest())
""")


# det_mod3 of a seeded dense order-500 matrix with no zero residue, its
# slowest input: every row below the pivot takes a sum at every step.  The
# value is held to minors_mod3_stack before it is printed.
DENSE_MOD3 = snippet("""import numpy as np
from cantor_hankel.hankel import det_mod3, minors_mod3_stack
rng = np.random.default_rng(500)
m = rng.integers(1, 3, (500, 500)) + 3 * rng.integers(-4, 4, (500, 500))
value = det_mod3(m)
assert value == minors_mod3_stack([m])[0, -1]
print(value)
""")


ROWS = [
    *step("Installed console script",
          """The kernel evaluator slices numpy tables, so the verify report is pinned on the numpy
          floor too.  The harness checks the exit code itself, so a failing verify fails the row
          even when its output matches.""",
          ("cantor-hankel verify", VERIFY)),
    *step("Kernel and automaton checks alone",
          """The kernel closure and both automata against the lattice engine, which gathers by the
          compiled splitting identities while the closure reads SPLIT_RULES: about 0.3-0.4 s cold
          on a 2-core VM. The harness kills the child at the timeout and fails the row.""",
          ("cantor-hankel verify --kernel --dfao", KERNEL_DFAO), timeout=5),
    *step("Automaton grid at the cell cap",
          """checks.dfao_grid over the largest window the table cap admits, 2000 x 2000 cells,
          walked in blocks of engine._GATHER_BYTES // 8 cells: about 2 s and 51 MB peak RSS on a
          2-core VM (seven runs, 35 MB of it imports and closures), against 352 MB when every cell
          was walked at once.  80 MB leaves room for other Python and numpy builds; the harness
          kills the child at the timeout and fails the row.""",
          (checks_ok("dfao_grid(2000, 1999)"), b""), timeout=20, rss_mb=80),
    *step("Structure sweep at the call cap",
          """checks.structure_identities over the largest window at n = 1 that
          checks.STRUCTURE_CALL_CAP admits, 2000 verify_structure calls: 1.9-2.6 s and 30.4-30.6 MB
          peak RSS on a 2-core VM (seven runs, imports included, 0.2 s of the time).  20 s leaves
          room for a slower runner; 40 MB leaves 9 MB for other Python and numpy builds.  The
          harness kills the child at the timeout and fails the row.""",
          (checks_ok("structure_identities(1, 1999)"), b""), timeout=20, rss_mb=40),
    *step("Oracle sweep over the acceptance window",
          """Two stacked eliminations of order 40 per family, whose leading minors give every
          order; under a second on a 2-core VM.""",
          ("cantor-hankel verify --oracle --n-max 40 --p-max 81",
           b"ok   oracle-equivalence: 1 <= n <= 40, 0 <= p <= 81, both families\n")),
    *step("Deep oracle sweep at one offset",
          """One order-277 matrix per family gives every order's determinant: about 0.35 s on a
          2-core VM, against 3.4 s eliminating every order on its own.  The harness kills the child
          at the timeout and fails the row.""",
          ("cantor-hankel verify --oracle --n-max 277 --p-max 0",
           b"ok   oracle-equivalence: 1 <= n <= 277, 0 <= p <= 0, both families\n"), timeout=10),
    *step("Deep splitting replays",
          """Both replays at (2, 20, 40): left sides up to order 62 at offsets up to 122, which
          takes hankel.minors_exact_stack from int64 to numpy object arrays of Python ints and
          back part way (1 and 24 of the 206 steps), whose arithmetic differs between numpy 1.x
          and 2.x.  About 0.1-0.13 s each on a 2-core VM, against 1.5-2.4 s eliminating each read
          matrix on its own; the harness kills the child at the timeout and fails the row.""",
          (checks_ok("splitting_exact(2, 20, 40)", "splitting_mod3(2, 20, 40)"), b""),
          timeout=30),
    *step("Oracle sweep over the cell cap",
          """One engine table of 4,000,001 cells, under checks.ORACLE_WORK_CAP but over
          engine.DEFAULT_GRID_CELL_CAP: refused with exit 2 before any cell or elimination, with
          nothing on stdout.""",
          ("cantor-hankel verify --oracle --n-max 1 --p-max 4000000", b""), code=2, timeout=10),
    *step("Oracle sweep over the work cap",
          """6.25e10 units of elimination work, 2 * (p_max + 1) * n_max^3, over
          checks.ORACLE_WORK_CAP: refused with exit 2 before any cell or elimination, with nothing
          on stdout.""",
          ("cantor-hankel verify --oracle --n-max 500 --p-max 249", b""), code=2, timeout=10),
    *step("Automaton table digests",
          """The printed table export of each 1632-state automaton; its bytes are pinned
          (tests/test_kernel.py holds TABLE_DIGESTS and the closure state and witness digests).
          The closure is built from int64 packed terms in numpy, whose promotion rules differ
          between numpy 1.x and 2.x.""",
          ("cantor-hankel dfao --start gamma --export table",
           "509e360925f16d066105db7de61425d9367f298f03eff4f5b818f1070de78f2f"),
          ("cantor-hankel dfao --start delta --export table",
           "8b739eedaf23944d72cdf4ee6b3b1cc2f88c93a85c41ea84160375a5b79c2ea5")),
    *step("Automaton walk past 2^64",
          """dfao-eval walks Python ints past int64 as numpy object arrays, whose arithmetic
          differs between numpy 1.x and 2.x; both values were read with the per-digit walk the
          array walk replaced.""",
          ("cantor-hankel dfao-eval -n 656513934792560939660 -p 218837978263024718436", b"2\n"),
          ("cantor-hankel dfao-eval --start delta -n 72945992757828357212"
           " -p 218837978263024718420", b"2\n")),
    *step("Cells past 2^64, at the digit cap and at delta's row -1",
          """cell walks the minimal automata checked in as the module cantor_hankel._minimal, so
          the installed package must ship it. The values were read with the splitting recursion the
          walk replaced; n = 3^200 - 1 has 200 base-3 digits, the cap.""",
          ("cantor-hankel cell -n 700 -p 24315330925087426404", b"2\n"),
          ("cantor-hankel cell --kind delta -n 700 -p 24315330925087426404", b"1\n"),
          (f"cantor-hankel cell -n {CAP} -p 0", b"2\n"),
          (f"cantor-hankel cell --kind delta -n {CAP} -p {CAP}", b"2\n"),
          ("cantor-hankel cell --kind delta -n -1 -p 0", b"1\n"),
          ("cantor-hankel cell --kind delta -n -1 -p 24315330925087426404", b"0\n")),
    *step("Exact determinant digest",
          """An order-150 determinant whose products outgrow int64 at step 48: its elimination
          takes 115 int64 steps and 34 on Python ints (tests/test_hankel.py pins 900 more past
          order 60).""",
          ("cantor-hankel det --kind delta -p 0 -n 150", b"-2448063749897360204068028416\n")),
    *step("Huge-offset slice and determinant digests",
          """Runs of c read far from 0: a slice of d at 3^60 + 12345 (every term 0 there, as the
          top base-3 digit is 1), one at 2 * 3^60 + 12345, and an order-60 determinant of d at 2 *
          3^40 + 1.  The digests were taken from the per-term build the runs replaced.""",
          ("cantor-hankel seq --kind d --start 42391158275216203514294445546 --count 3000"
           " --format raw", "232893b72dcd974d8d99ac7b04568746b03f5bf8d6a8f0a67c2abed89ba4cdef"),
          ("cantor-hankel seq --kind d --start 84782316550432407028588878747 --count 3000"
           " --format raw", "a7b63abeb2814df846883d1b163ca7646e56e56bb69bf8b569f21dabd7424f1e"),
          ("cantor-hankel det --kind delta -p 24315330918113857603 -n 60",
           "636693b6bd62871d17777c0637bb7ab147024f10e6e6d2bfa2d29d2ca8141168")),
    *step("Order-500 mod-3 determinants",
          """The widest matrices the CLI builds (hankel.MAX_HANKEL_ORDER), eliminated over GF(3)
          on bit-sliced rows, two Python ints per row; both values agree with det_exact mod 3.""",
          ("cantor-hankel det --kind gamma -p 5 -n 500 --mod3", b"1\n"),
          ("cantor-hankel det --kind delta -p 2 -n 500 --mod3", b"2\n")),
    *step("Order-500 mod-3 determinants at p = 0",
          """det --mod3 at hankel.MAX_HANKEL_ORDER, both kinds; the values are the printed columns
          at n mod 4.  In seven fresh children of each kind on a 2-core VM they took 0.28-0.39 s at
          33.6-33.9 MB peak RSS (30 MB of it imports; 0.24-0.37 s and 34.1-34.6 MB with the int16
          loop det_mod3 replaced).  5 s leaves room for a slower runner; 43 MB leaves 9 MB for
          other Python and numpy builds.  Hitting the timeout fails the row.""",
          ("cantor-hankel det --mod3 -n 500 -p 0", b"2\n"),
          ("cantor-hankel det --kind delta --mod3 -n 500 -p 0", b"1\n"),
          timeout=5, rss_mb=43),
    *step("Dense order-500 mod-3 determinant",
          """DENSE_MOD3: det_mod3 on bit-sliced rows at hankel.MAX_HANKEL_ORDER, on the input it is
          slowest on, no zero residue, whose elimination takes a Python-level sum per row and step
          (no CLI command builds such a matrix): about 0.05 s in process against 0.03 s for the
          int16 loop it replaced.  In seven fresh children on a 2-core VM the row took 0.33-0.51 s
          at 40.7-40.9 MB peak RSS (30 MB of it imports).  5 s leaves room for a slower runner;
          49 MB leaves 8 MB for other Python and numpy builds.  Hitting the timeout fails the
          row.""",
          (DENSE_MOD3, b"1\n"), timeout=5, rss_mb=49),
    *step("Exact order-500 determinants",
          """The widest exact determinants the CLI builds, each in a fresh child process.  Of the
          499 steps, det_exact takes 127 and 151 on int64 and 372 and 348 on Python ints.  In six
          runs of each on a 2-core VM they took 3.4-5.0 s (delta) and 2.8-4.2 s (gamma), at
          39.6-43.0 MB peak RSS (30 MB of it imports).  20 s leaves room for a slower runner; 52 MB
          leaves 9 MB for other Python and numpy builds. Hitting the timeout fails the row.""",
          ("cantor-hankel det --kind delta -p 0 -n 500 --exact",
           "5ffe7fea55970934eed14dcb9e0d557f05e50023fc0e630ef75257dec4479f3c"),
          ("cantor-hankel det --kind gamma -p 1 -n 500 --exact",
           "faef35b7aae967f85cc9262034429e35f2c3725d9354e56b98609c82177179e6"),
          timeout=20, rss_mb=52),
    *step("Rendered grid digest",
          """The grid command formats its int8 table through one fixed-width byte lookup and writes
          it in blocks of whole rows; its bytes are pinned (tests/test_cli.py holds all eight
          kind/format digests). The table levels gather int8 factor planes through strided window
          views and reduce them mod 3 in place with engine._apply_rules, mixing int8 arrays with
          Python ints, whose promotion rules differ between numpy 1.x and 2.x.""",
          ("cantor-hankel grid --n-max 300 --p-max 299 --format ppm",
           "bcbaffb6a31f5536fcf4c765fbb1f5ea73d2a4545fabdb9875c7a910e71c9294")),
    *step("Rendered 1000x1000 grid digest",
          """About 2 MB of CSV, so several row blocks of the writer; the digest was taken from the
          per-cell formatter it replaced.""",
          ("cantor-hankel grid --n-max 1000 --p-max 999 --format csv",
           "9fdadd334544818fe10de69a915a1bba2a4fa9167cd72ce869253fc423785b80")),
    *step("Grid digest across the corner's edge",
          """The first level of this table, rows -1 .. 407 by columns 0 .. 135, just overshoots
          engine._CORNER (rows -1 .. 404 by columns 0 .. 134) on both sides, so it is split once
          more and ends in the corner; the digest was taken when the corner was rows -1 .. 14 by
          columns 0 .. 4.  In seven fresh children on a 2-core VM it took 0.42-0.49 s at
          32.8-32.9 MB peak RSS (30 MB of it imports).  5 s leaves room for a slower runner; 42 MB
          leaves 9 MB for other Python and numpy builds.  Hitting the timeout fails the row.""",
          ("cantor-hankel grid --n-max 1215 --p-max 404 --format csv",
           "f2eae4d3a56a296d1173091a1d8508475cc7ccbc0905cac600392720ce3a8589"),
          timeout=5, rss_mb=42),
    *step("Table digest far from the origin",
          """engine.tables of both kinds at seeded 13- and 200-digit offsets (FAR_TABLES), which no
          CLI command reads: each read splits one level per base-3 digit, and the small levels
          take one flat gather through a cached plan, mixing int8 and int32 arrays, whose
          promotion rules differ between numpy 1.x and 2.x.  The digest was taken when every level
          was built from windows.  In seven fresh children on a 2-core VM it took 0.38-0.53 s at
          34.3-34.5 MB peak RSS (0.52-0.81 s and 34.3-34.4 MB with windows only; 30 MB of it
          imports).  5 s leaves room for a slower runner; 43 MB leaves 8.5 MB for other Python and
          numpy builds.  Hitting the timeout fails the row.""",
          (FAR_TABLES, b"22379e86c6e5c7f3a1eb54051387dc0d954e87cc8e3bf7cabb8c1d28c35909f3\n"),
          timeout=5, rss_mb=43),
    *step("Grid at the cell cap",
          """The square table at engine.DEFAULT_GRID_CELL_CAP, 2000 x 2000 cells as ascii; the
          digest was taken before the table levels and the witness lattices shared one factor
          stack and one rule applier.  In seven fresh children on a 2-core VM it took 0.23-0.34 s
          at 37.2-37.4 MB peak RSS (30 MB of it imports).  5 s leaves room for a slower runner;
          46 MB leaves 8.5 MB for other Python and numpy builds.  Hitting the timeout fails the
          row.""",
          ("cantor-hankel grid --n-max 2000 --p-max 1999",
           "a1912e411370634e88f1ece521bc180343a97bbbb23b396572da6875dabf2ed2"),
          timeout=5, rss_mb=46),
    *step("Short wide grid digest",
          """Two rows at the 4,000,000-cell cap, built by blocked gathers like any other table,
          each level keeping only the residue classes of its rows: about 0.1 s here. Reading rows n
          >= 2 cell by cell through the scalar memo took about 9 s and 680 MB; the harness kills
          the child at the timeout and fails the row.""",
          ("cantor-hankel grid --n-max 2 --p-max 1999999 --format csv",
           "8903c10d388f2bbd30fa808da45a9f752f5aedc0b0f1c53195236557beff3e14"), timeout=5),
    *step("Tall grid at the cell cap",
          """Two columns of 2,000,000 rows, the tallest table the cap admits, built in the one
          row-major layout of every level; the digest is the printed columns at n mod 4.  The
          harness kills the child at the timeout and fails the row.""",
          ("cantor-hankel grid --n-max 2000000 --p-max 1 --format csv",
           "bc75c2558561f311eedb505c84ae2aa58263bb48acae2a7450a57923058b4db9"), timeout=5),
    *step("Row-1 wide grid digest",
          """One row at the 4,000,000-cell cap: rows 0 and 1 are split by the identities like any
          other down to a few cells of engine._anchor; the digest was taken when the row was one
          run of c.  The console script runs in a fresh child process, whose peak RSS was 64.0-64.1
          MB in seven runs on a 2-core VM (30.3 MB of it imports); a level built without
          engine._residues took 80 MB, so 72 MB catches that and leaves 8 MB for other Python and
          numpy builds.  Hitting the 5 s timeout fails the row.""",
          ("cantor-hankel grid --n-max 1 --p-max 3999999 --format csv",
           "f7f9f048fe679fdf73f14dc8f5d67e6cfcac076181640d3112d24cdc7209a6a3"),
          timeout=5, rss_mb=72),
    *step("Column period at the scan cap",
          """p = 3^11 = 177147 is the largest column engine.column scans without k_hint:
          three candidate periods of 12 * 3^10 rows, 2,125,764 cells of one kind, whose minimal
          period is the candidate itself.  In seven fresh children on a 2-core VM each kind took
          0.23-0.29 s at 47.1-47.4 MB peak RSS (30 MB of it imports), against 0.24-0.30 s and
          61.2-61.5 MB when the scan returned all three periods as Python ints, and 63.1-63.3 MB
          when both kinds were split at the top level.  5 s leaves room for a slower runner;
          70 MB leaves room for other Python and numpy builds.  Hitting the timeout fails the
          row.""",
          ("cantor-hankel period --kind gamma -p 177147", b"708588\n"),
          ("cantor-hankel period --kind delta -p 177147", b"708588\n"),
          timeout=5, rss_mb=70),
    *step("Column series at the scan cap",
          """The largest column series admits, p = 3^11 = 177147: one minimal period of 708,588
          coefficients, 1,417,176 bytes of output, written by the csv row formatter of grid; the
          digests were taken when the scan returned all three periods as Python ints and the
          output was one comma-joined string.  In seven fresh children of each kind on a 2-core VM
          it took 0.53-0.78 s at 47.3-47.5 MB peak RSS (30 MB of it imports), against 90.5-90.7 MB
          with the joined string.  5 s leaves room for a slower runner; 56 MB leaves 8.5 MB for
          other Python and numpy builds.  Hitting the timeout fails the row.""",
          ("cantor-hankel series --kind gamma -p 177147 --format coeffs",
           "8ab75986fff5603896c746149258982693ea7ff8049b3522c96ec56f462cf7cc"),
          ("cantor-hankel series --kind delta -p 177147 --format coeffs",
           "0b7d6651a020ea63e1c8efd090f1307df0f87be9d45d3a4adf187528a8458bd5"),
          timeout=5, rss_mb=56),
    *step("Irrationality table digest",
          """irr reads every order from one J-fraction pass; its bytes are pinned
          (tests/test_cli.py holds this and three more irr digests).  In seven fresh children on
          a 2-core VM it took 0.30-0.45 s at 33.8-33.9 MB peak RSS (30 MB of it imports); 42 MB
          leaves 8 MB for other Python, numpy and mpmath builds.""",
          ("cantor-hankel irr -b 2 --n-max 100",
           "4380f3b66da645570e071e31aa042e1c35410f0e4b247f928fa0923d1c467c05"), rss_mb=42),
    *step("Irrationality table at the base cap",
          """b = 2**32 (pade.MAX_BASE) at the order cap (pade.MAX_IRR_ORDER), 0.05-0.09 s in
          process on a 2-core VM (the first call in each of five fresh processes, mpmath imported
          before).  The window highs are rounded up to floats, so rows 13 and 21 print 2.164063 and
          2.101563 where a truncated high printed 2.164062 and 2.101562.  In seven fresh children
          on a 2-core VM the row took 0.31-0.34 s at 33.8-34.0 MB peak RSS (30 MB of it imports);
          42 MB leaves 8 MB for other Python, numpy and mpmath builds.  The harness kills the
          child at the timeout and fails the row.""",
          ("cantor-hankel irr -b 4294967296 --n-max 100",
           "40ccb6e2df61f92abd8f401593b0a056df5dae9cb4cb8a436801cb477fc5ddeb"),
          timeout=10, rss_mb=42),
    *step("Pade approximant digest",
          """pade reads the last entry of one J-fraction pass, and --verify checks its error law
          to degree 400; the first three lines hash to 2f02539d..., the digest of pade -n 200
          alone (tests/test_cli.py holds that and three more pade digests).  In seven fresh
          children on a 2-core VM it took 0.35-0.50 s at 32.0-32.2 MB peak RSS (30 MB of it
          imports).  5 s leaves room for a slower runner; 41 MB leaves 9 MB for other Python and
          numpy builds.  Hitting the timeout fails the row.""",
          ("cantor-hankel pade -n 200 --verify",
           "a7ec819cf34aebe90c7a4b3737589350d04b6be2651bcbc2f571d18f5822daa0"),
          timeout=5, rss_mb=41),
    *step("Functional equation at the degree cap",
          """feq at pade.MAX_FEQ_DEGREE reads 10^6 + 1 coefficients of c in one run.  In fourteen
          fresh children on a 2-core VM it took 0.36-0.59 s at 54.3-54.5 MB peak RSS (30 MB of it
          imports).  5 s leaves room for a slower runner; 63 MB leaves 8 MB for other Python and
          numpy builds.  Hitting the timeout fails the row.""",
          ("cantor-hankel feq --deg 1000000",
           "45be4420ef6d21fcc41b3d5c28305aed23ae7305d710fb37629aff001861bdf8"),
          timeout=5, rss_mb=63),
    *step("Eta identity at the depth and base caps",
          """eta at pade.MAX_ETA_DEPTH with b = 2^32 - 1, just under pade.MAX_BASE: 10,003 terms
          of d against a truncated xi in base b^3.  In fourteen fresh children on a 2-core VM it
          took 0.25-0.47 s at 31.0-31.1 MB peak RSS (30 MB of it imports).  5 s leaves room for a
          slower runner; 40 MB leaves 9 MB for other Python and numpy builds.  Hitting the timeout
          fails the row.""",
          ("cantor-hankel eta -b 4294967295 --depth 10000",
           "069c5eee86d214b768ec9c997341bd0bbf80d3700c1c5a2e21e5e9f832753b10"),
          timeout=5, rss_mb=40),
    *step("Sequence slice at the count cap",
          """seq at sequences.MAX_SLICE_COUNT: 10^6 terms of c, 2,000,000 bytes of output.  In
          fourteen fresh children on a 2-core VM it took 0.20-0.38 s at 33.4-33.6 MB peak RSS
          (30 MB of it imports).  5 s leaves room for a slower runner; 42 MB leaves 8 MB for other
          Python and numpy builds.  Hitting the timeout fails the row.""",
          ("cantor-hankel seq --kind c --count 1000000",
           "e8f4cd74b0d57aee5e5f4083eaf40d0a7c8c2a76fe484e334d054bc14559d048"),
          timeout=5, rss_mb=42),
]


# Forks row's command (argv[2:]) and waits for it, writing its peak RSS
# in KiB to the descriptor argv[1] and exiting with its exit code.  On
# Linux a process forked from this harness would count the harness's own
# peak RSS, which grows with the output of the rows it has read; this
# fresh interpreter holds about 10 MB.
LAUNCHER = """import os, sys
pid = os.fork()
if pid == 0:
    os.execvp(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]), b"%d" % usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))"""


def run(row: Row) -> tuple[float, float]:
    """Run row's command in a fresh child; fail, naming the row, unless it
    ends within the timeout with the row's exit code and stdout and a peak
    RSS under the bound.  Returns the wall time in s and the peak in MB:
    the command's own, from os.wait4 in LAUNCHER."""
    start = time.monotonic()
    peak_in, peak_out = os.pipe()
    child = subprocess.Popen((sys.executable, "-c", LAUNCHER, str(peak_out), *row.argv),
                             stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                             start_new_session=True, pass_fds=(peak_out,))
    os.close(peak_out)
    # The whole session, so that no grandchild keeps stdout open.
    timer = threading.Timer(row.timeout, os.killpg, (child.pid, signal.SIGKILL))
    timer.start()
    with child.stdout:
        out = child.stdout.read()
    timer.cancel()
    timer.join()  # a kill under way lands before the child is reaped
    code = child.wait()
    with open(peak_in, "rb") as peak:
        peak_mb = int(peak.read() or 0) / 1024
    wall = time.monotonic() - start
    assert wall < row.timeout, f"{row.name}: timed out after {row.timeout} s"
    assert code == row.code, f"{row.name}: exit {code}, expected {row.code}"
    got = out if isinstance(row.expect, bytes) else hashlib.sha256(out).hexdigest()
    assert got == row.expect, f"{row.name}: stdout differs"
    assert peak_mb < row.rss_mb, f"{row.name}: peak RSS {peak_mb:.1f} MB, bound {row.rss_mb} MB"
    return wall, peak_mb


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_row(row):
    run(row)


# Each check of the harness on its own, each on a row that passes as pinned.
BY_NAME = {row.name: row for row in ROWS}
BROKEN = [
    (replace(BY_NAME["Pade approximant digest"], expect="0" * 64), "stdout differs"),
    (replace(BY_NAME["Oracle sweep over the work cap"], code=0), "exit 2, expected 0"),
    (replace(BY_NAME["Exact determinant digest"], rss_mb=1), "peak RSS"),
    (replace(BY_NAME["Kernel and automaton checks alone"], timeout=0.05), "timed out"),
]


@pytest.mark.parametrize("row, problem", BROKEN, ids=[problem for _, problem in BROKEN])
def test_a_broken_row_fails_naming_itself(row, problem):
    with pytest.raises(AssertionError, match=re.escape(f"{row.name}: {problem}")):
        run(row)
