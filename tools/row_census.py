"""Count what one process keeps of its matrices: the rows they hold, and how
many bytes of those rows repeat a row of equal content.

The default workload is the corpus-cli benchmark's: N passes, in this
process, of the CLI commands that perfbench/workloads.corpus_argv_list(seed)
lists, with stdout captured.  With --mv it is instead the Mayer-Vietoris
steps on the two-band cover of the 24 x 24 grid Klein bottle over Z with the
orientation system (mv_homology, mv_cohomology and splitting_holds, as the
--mv child of tools/snf_scaling.py runs them); the complex, the system and
the cover are built before tracing starts, so what is traced is what the
steps build and keep.

After the workload and a full collection it prints, tab-separated:
- `traced_mb`: the memory tracemalloc still traces, started once the
  library is imported, so what the workload retains;
- `matrices`: the number of live ExactMatrix objects, the kept ones;
- one `rows` line for all rings and one per ring: the row dicts those
  matrices hold (each object once), their bytes (sys.getsizeof of the
  dict), the bytes of one row per distinct content, and the difference, the
  bytes that repeat a row of equal content.  A row that matrices over two
  rings hold counts in both rings' lines and once in `all`.

With --sites it prints instead, for the same workload, what each call
site of `ExactMatrix.shared` does with the tables of shared rows, read by
wrapping the method from outside: per site (module, enclosing function), the
nonempty rows it inserts into a table, the rows it takes from one (an equal
row already there), the rows it hands in that already are the table's, and
its empty rows; then one `from` line per pair of sites, the rows the first
took that the second had inserted.  The census keeps every table and
inserted row alive, so it reports no memory.

Run from the root of a checkout (stdlib only):
    python3 tools/row_census.py --passes 1 --seed 1
    python3 tools/row_census.py --mv
    python3 tools/row_census.py --sites [--mv]
"""

import argparse
import collections
import contextlib
import gc
import io
import os
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from twistcap.cli import main  # noqa: E402
from twistcap.complexes import _grid_klein  # noqa: E402
from twistcap.localsystems import orientation_system  # noqa: E402
from twistcap.matrices import ExactMatrix  # noqa: E402
from twistcap.mv import (CoverPair, _strips, mv_cohomology,  # noqa: E402
                         mv_homology, splitting_holds)
from twistcap.rings import Z  # noqa: E402
from workloads import corpus_argv_list  # noqa: E402

MB = 1024 * 1024


def corpus_passes(passes, seed):
    """Run `passes` passes of the corpus-cli commands; every one exits 0."""
    argv_list = corpus_argv_list(seed)

    def run():
        for _ in range(passes):
            for argv in argv_list:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(list(argv))
                if code != 0:
                    raise SystemExit(f"exit {code}: {' '.join(argv)}")
    return run


def mv_cover(n=24):
    """The Mayer-Vietoris steps on the two-band cover of the n x n Klein
    bottle over Z; what they keep hangs on the returned complex."""
    cx = _grid_klein(n, n)
    G = orientation_system(cx, Z)
    h = n // 2
    pair = CoverPair(cx, *_strips(cx, (n, n, True), 0, set(range(h + 1)),
                                  set(range(h, n)) | {0}))

    def run():
        if not (mv_homology(pair, G).all_exact
                and mv_cohomology(pair, G).all_exact
                and splitting_holds(pair, G)):
            raise SystemExit("a Mayer-Vietoris check failed")
    return run, cx


def row_lines(matrices):
    """(label, rows, bytes, distinct bytes, redundant bytes) for all rings
    and for each ring."""
    groups = {"all": {}}
    for m in matrices:
        ring = groups.setdefault(str(m.ring), {})
        for row in m.sparse_rows:
            groups["all"][id(row)] = ring[id(row)] = row
    for label, rows in groups.items():
        total = sum(map(sys.getsizeof, rows.values()))
        distinct = {}
        for row in rows.values():
            distinct.setdefault(frozenset(row.items()), sys.getsizeof(row))
        kept = sum(distinct.values())
        yield label, len(rows), total, kept, total - kept


class SiteCensus:
    """`ExactMatrix.shared` wrapped from outside, counting per call site."""

    COLUMNS = ("inserted", "taken", "held", "empty")

    def __init__(self):
        self.counts = collections.defaultdict(collections.Counter)
        self.sources = collections.Counter()   # (taker, inserter) -> rows
        # (id(table), id(row)) -> (table, row, inserting site); holding the
        # table and the row keeps both ids their own
        self.inserter = {}

    def wrap(self):
        shared = ExactMatrix.shared

        def counted(matrix, table):
            caller = sys._getframe(1)
            site = (caller.f_globals["__name__"].rpartition(".")[2] + "."
                    + caller.f_code.co_qualname.replace("<locals>.", "")
                    .removesuffix(".<lambda>"))
            result = shared(matrix, table)
            self.record(site, table, matrix.sparse_rows, result.sparse_rows)
            return result
        ExactMatrix.shared = counted

    def record(self, site, table, before, after):
        counts = self.counts[site]
        for old, new in zip(before, after):
            key = (id(table), id(new))
            if not old:
                counts["empty"] += 1
            elif new is not old:
                counts["taken"] += 1
                self.sources[site, self.inserter[key][2]] += 1
            elif key in self.inserter:
                counts["held"] += 1
            else:
                counts["inserted"] += 1
                self.inserter[key] = (table, new, site)

    def print(self):
        print("sites\tsite\t" + "\t".join(self.COLUMNS))
        for site in sorted(self.counts):
            print(f"sites\t{site}\t"
                  + "\t".join(str(self.counts[site][c]) for c in self.COLUMNS))
        print("from\ttaker\tinserter\trows")
        for (taker, inserter), rows in sorted(self.sources.items()):
            print(f"from\t{taker}\t{inserter}\t{rows}")


def main_census():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mv", action="store_true",
                   help="the Mayer-Vietoris steps on the n = 24 Klein cover")
    p.add_argument("--sites", action="store_true",
                   help="per call site of ExactMatrix.shared, the rows it "
                   "inserts into and takes from the tables")
    args = p.parse_args()
    census = SiteCensus()
    if args.sites:
        # before the workload is built, so every row in a table is seen
        census.wrap()
    # with --mv, the complex, which keeps what the steps build, stays alive
    run, _complex = (mv_cover() if args.mv
                     else (corpus_passes(args.passes, args.seed), None))
    if args.sites:
        run()
        census.print()
        return
    gc.collect()
    tracemalloc.start()
    run()
    gc.collect()
    traced = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    matrices = [o for o in gc.get_objects() if isinstance(o, ExactMatrix)]
    print(f"traced_mb\t{traced / MB:.2f}")
    print(f"matrices\t{len(matrices)}")
    print("rows\tring\tobjects\tmb\tdistinct_mb\tredundant_mb")
    for label, count, total, kept, redundant in row_lines(matrices):
        print(f"rows\t{label}\t{count}\t{total / MB:.2f}\t{kept / MB:.2f}\t"
              f"{redundant / MB:.2f}")


if __name__ == "__main__":
    main_census()
