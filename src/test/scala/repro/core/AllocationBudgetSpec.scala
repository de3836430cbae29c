package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{DatasetSpec, VersionedDataGen}
import repro.kvs.SimulatedKVS
import repro.query.QueryProcessor

import java.lang.management.ManagementFactory
import scala.util.Random

/** Allocation budgets for the offline ingest kernels and the query paths,
  * so boxing cannot creep back into them: each bound is derived from the
  * arrays the algorithm has to build, and a boxed element (16 B) or a
  * copied membership row pushes the call past it.
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

  test("SubChunker at k = 10 allocates at most 4 B per membership entry and 72 B per item") {
    ds.itemSizes
    val bytes = allocated(SubChunker.build(ds, 10))
    // per entry: the rows of sub-chunk ids, at most one Int per record;
    // per item: its lineage parent, child slot and offset, bag links, stack
    // slot and sub-chunk id (4 B each), a presized representative and size
    // (8 B each) and their trimmed copies
    val items = ds.uniqueCks.length
    val budget = 4 * entries + 72L * items
    info(s"$bytes B allocated; budget $budget B ($entries entries, $items items)")
    assert(bytes <= budget)
  }

  test("generation allocates at most 20 B per membership entry and 64 B per record") {
    val bytes = allocated(VersionedDataGen.generate(ds.spec))
    // per entry: each version's row of cks, presized to the parent's row
    // plus the adds and trimmed when the delta deletes (8 B twice, less the
    // deletes); per record: its add and the delete it replaces (8 B each),
    // its parent version (4 B, in a doubling builder), its victim pick,
    // and the dataset's sorted `uniqueCks` (8 B)
    val records = ds.uniqueCks.length
    val budget = 20 * entries + 64L * records
    info(s"$bytes B allocated; budget $budget B ($entries entries, $records records)")
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

  /** A populated BottomUp layout (k = 1, 32 KB chunks) and a seeded query
    * mix over it: Q2 ranges of 10 % of the key space, live point keys.
    */
  private lazy val queries = {
    val sub = SubChunker.build(ds, 1)
    val qp = new QueryProcessor(ds, sub, new BottomUpPartitioner().partition(sub.input, 32 * 1024),
      new SimulatedKVS(4))
    qp.populate()
    val rnd = new Random(12)
    val keys = qp.indexes.keys
    val width = (keys.last - keys.head) / 10
    val ranges = Array.fill(400) {
      val lo = keys.head + (rnd.nextDouble() * (keys.last - keys.head - width)).toLong
      (rnd.nextInt(ds.tree.size), lo, lo + width)
    }
    val points = Array.fill(400) {
      val v = rnd.nextInt(ds.tree.size)
      (v, Ck.key(ds.members(v)(rnd.nextInt(ds.members(v).length))))
    }
    (qp, ranges, points)
  }

  // the RetrievalCost and the result tuple, with room to spare (a tuple
  // pattern such as `val (v, key) = points(i)` would re-box its fields, so
  // the loops below read them with `_1`, `_2`)
  private val perQuery = 128L

  private def longArrayBytes(length: Int): Long = 16L + 8L * length

  private def checkQueries(kind: String, n: Int, bytes: Long, budget: Long): Unit = {
    info(s"$kind: $bytes B allocated over $n queries; budget $budget B")
    assert(bytes <= budget)
  }

  test("Q1 and Q3 allocate a constant per query besides the answer, whatever the span") {
    val (qp, _, _) = queries
    val versions = ds.tree.size
    val q1 = allocated { var v = 0; while (v < versions) { qp.fullVersion(v); v += 1 } }
    checkQueries("Q1", versions, q1, perQuery * versions)
    val keys = qp.indexes.keys
    val q3 = allocated { var i = 0; while (i < keys.length) { qp.evolution(keys(i)); i += 1 } }
    // the answer is a fresh array of the key's records
    val answers = keys.iterator.map(k => longArrayBytes(ds.recordsOfKey(k).length)).sum
    checkQueries("Q3", keys.length, q3, perQuery * keys.length + answers)
  }

  test("SimulatedKVS.fetch allocates nothing") {
    val (qp, _, _) = queries
    val rows = qp.indexes.versionToChunks
    val bytes = allocated {
      var i = 0
      while (i < 10000) { val r = rows(i % rows.length); qp.kvs.fetch(r, 0, r.length); i += 1 }
    }
    checkQueries("fetch", 10000, bytes, 0)
  }

  test("Q2 and point allocate at most 4 B per chunk of the version besides a constant and the answer") {
    val (qp, ranges, points) = queries
    val q2 = allocated {
      var i = 0
      while (i < ranges.length) { val r = ranges(i); qp.range(r._1, r._2, r._3); i += 1 }
    }
    val q2Budget = ranges.iterator.map { case (v, lo, hi) =>
      perQuery + 4L * qp.versionSpan(v) + longArrayBytes(qp.range(v, lo, hi)._1.length)
    }.sum
    checkQueries("Q2", ranges.length, q2, q2Budget)
    val pt = allocated {
      var i = 0
      while (i < points.length) { val p = points(i); qp.point(p._1, p._2); i += 1 }
    }
    // the answer is a `Some` of a boxed record
    val ptBudget = points.iterator.map { case (v, _) => perQuery + 4L * qp.versionSpan(v) }.sum
    checkQueries("point", points.length, pt, ptBudget)
  }
}
