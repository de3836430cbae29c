package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{DatasetSpec, VersionedDataGen}

import java.lang.management.ManagementFactory

/** Allocation budgets for the offline ingest kernels, so boxing cannot
  * creep back into them: each bound is derived from the arrays the
  * algorithm has to build, and a boxed element (16 B) or a copied
  * membership row pushes the call past it.
  */
class AllocationBudgetSpec extends AnyFunSuite {

  // 400 versions × 500 records: ≈ 200 K membership entries, ≈ 18 K items
  private lazy val ds = VersionedDataGen.generate(
    DatasetSpec("alloc", 400, 500, 0.10, skewed = false, numBranches = 40, seed = 9))

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes the calling thread allocates in `f`: the least of five warm
    * calls, so JIT compilation during the first calls does not count.
    */
  private def allocated(f: => Any): Long = {
    f
    (1 to 5).map { _ =>
      val before = threads.getCurrentThreadAllocatedBytes
      f
      threads.getCurrentThreadAllocatedBytes - before
    }.min
  }

  private def entries: Long = ds.membersItems.iterator.map(_.length.toLong).sum

  test("BottomUp allocates at most 4 B per membership entry and 64 B per item") {
    val in = SubChunker.build(ds, 1).input
    val bytes = allocated(new BottomUpPartitioner().partition(in, 32 * 1024))
    // the one per-entry array is π_v, an Int per record of v; per item: its
    // dying run, its chunk, its batch key (8 B) and batch slot, and its
    // place in a dying list, with room for builder growth
    val budget = 4 * entries + 64L * in.numItems
    info(s"$bytes B allocated; budget $budget B ($entries entries, ${in.numItems} items)")
    assert(bytes <= budget)
  }

  test("SubChunker at k = 1 allocates nothing per membership entry") {
    ds.itemSizes
    val bytes = allocated(SubChunker.build(ds, 1))
    // per item: the identity record→sub-chunk map (4 B) and sizes (8 B);
    // per version: the transformed tree's arrays and child lists
    val budget = 16L * ds.uniqueCks.length + 256L * ds.tree.size
    info(s"$bytes B allocated; budget $budget B ($entries entries, ${ds.uniqueCks.length} items)")
    assert(bytes <= budget)
  }

  test("SubChunker at k = 10 allocates at most 8 B per membership entry and 96 B per item") {
    ds.itemSizes
    val bytes = allocated(SubChunker.build(ds, 10))
    // per entry: the rows of sub-chunk ids, at most one Int per record;
    // per item: its lineage lookup (a boxed key, and a `Some` if modified),
    // its lineage parent, child slot and offset, bag links, stack slot and
    // sub-chunk id (4 B each), a presized representative and size (8 B
    // each) and their trimmed copies
    val items = ds.uniqueCks.length
    val budget = 8 * entries + 96L * items
    info(s"$bytes B allocated; budget $budget B ($entries entries, $items items)")
    assert(bytes <= budget)
  }

  test("Shingle's driver order allocates at most 8·l + 64 B per item") {
    val in = SubChunker.build(ds, 3).input
    val l = 4
    val p = new ShinglePartitioner(numShingles = l)
    val bytes = allocated(p.driverOrder(in))
    // per item: its l shingles (8 B each), one shingle column and one sort
    // key (8 B each) and two order arrays (4 B each), with room to spare
    val budget = (8L * l + 64) * in.numItems
    info(s"$bytes B allocated; budget $budget B (${in.numItems} items, l = $l)")
    assert(bytes <= budget)
  }
}
