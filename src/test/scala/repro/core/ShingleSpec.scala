package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle
import repro.data.{DatasetSpec, VersionedDataGen}

import scala.util.Using

class ShingleSpec extends AnyFunSuite {

  private lazy val ds = VersionedDataGen.generate(
    DatasetSpec.tiny("shingle", 25, 80, skewed = false, 3, seed = 71))
  private lazy val in = PartitionInput(ds.tree, ds.membersItems, ds.itemSizes)

  /** The shape `partition` serves in production: the k = 10 sub-chunk input
    * (transformed tree) of a branched, skewed dataset.
    */
  private lazy val subChunkIn = {
    val bds = VersionedDataGen.generate(
      DatasetSpec("shingle-branched", 100, 400, 0.05, skewed = true, numBranches = 9, seed = 73))
    SubChunker.build(bds, 10).input
  }

  /** Asserts that `p`'s shingle order of `in`, computed in SQL over the
    * `(item, version)` relation, is `order`: per item the min-hash of each
    * shingle, left-joined to every item id, so that an item in no version
    * has no hashes and sorts last, then ordered by shingles and item id.
    */
  private def checkSqlOrder(p: ShinglePartitioner, in: PartitionInput, order: Seq[Int]): Unit = {
    val hs = (0 until p.numShingles).map(i => s"h$i")
    val sql =
      s"""WITH sh AS (
         |  SELECT item, ${hs.indices.map(i => s"MIN(hash) FILTER (WHERE i = $i) AS h$i").mkString(", ")}
         |  FROM items JOIN hashes USING (version) GROUP BY item)
         |SELECT ROW_NUMBER() OVER (ORDER BY ${hs.map(h => s"coalesce($h, 9223372036854775807)").mkString(", ")}, item) - 1
         |         AS pos, item
         |FROM (SELECT range::INTEGER AS item FROM range(${in.numItems})) LEFT JOIN sh USING (item)""".stripMargin
    Using.resource(Oracle.open(Oracle.items(in), Oracle.hashes(in.members.length, p.numShingles, p.seed))) {
      _.check(sql, Seq("pos", "item"), order.zipWithIndex.map(_.swap))
    }
  }

  /** 400 items in 9 classes over 12 versions: the items of a class share
    * one version set, and 13 items belong to no version.
    */
  private lazy val tiedIn = {
    val n = 400
    def cls(item: Int): Int = (Hash64.nonNeg(item.toLong, 9) % 9).toInt
    val members = Array.tabulate(12)(v => (0 until n).filter(i => i >= 13 && (v * 7 + cls(i)) % 3 != 0).toArray)
    PartitionInput(VersionTree.chain(12), members, Array.fill(n)(100L))
  }

  /** The shingle order as a boxed lexicographic comparator over per-item
    * shingle vectors, then item id.
    */
  private def referenceOrder(in: PartitionInput, l: Int, seed: Long = 0x5417L): Seq[Int] = {
    val sh = Array.fill(in.numItems, l)(Long.MaxValue)
    for (v <- in.members.indices; i <- 0 until l; item <- in.members(v))
      sh(item)(i) = math.min(sh(item)(i), Hash64(v.toLong, seed + i))
    val lex = new Ordering[Int] {
      def compare(a: Int, b: Int): Int =
        (0 until l).map(i => java.lang.Long.compare(sh(a)(i), sh(b)(i))).find(_ != 0).getOrElse(Integer.compare(a, b))
    }
    (0 until in.numItems).sorted(lex)
  }

  test("driver order breaks shingle ties by item id, as the lexicographic comparator does") {
    for (l <- Seq(1, 4, 6)) {
      val p = new ShinglePartitioner(numShingles = l)
      assert(p.driverOrder(tiedIn).toSeq == referenceOrder(tiedIn, l), s"l = $l")
      assert(p.driverOrder(in).toSeq == referenceOrder(in, l), s"l = $l")
    }
    // items in no version sort last in SQL too
    checkSqlOrder(new ShinglePartitioner(), tiedIn, referenceOrder(tiedIn, 4))
  }

  test("SQL order equals the driver order") {
    for (l <- Seq(1, 4); input <- Seq(in, subChunkIn, tiedIn)) {
      val p = new ShinglePartitioner(numShingles = l)
      checkSqlOrder(p, input, p.driverOrder(input).toSeq)
    }
  }

  test("order is a permutation of all items") {
    for (input <- Seq(in, subChunkIn, tiedIn))
      assert(new ShinglePartitioner().driverOrder(input).sorted.toSeq == (0 until input.numItems))
  }

  test("items with identical version sets sort into one shingle-equal run") {
    val p = new ShinglePartitioner()
    val order = p.driverOrder(in)
    val versionSets = Array.fill(in.numItems)(Set.empty[Int])
    for (v <- in.members.indices; it <- in.members(v)) versionSets(it) += v
    def shingles(it: Int): Seq[Long] =
      (0 until 4).map(i => versionSets(it).map(v => Hash64(v.toLong, 0x5417L + i)).min)
    val pos = new Array[Int](in.numItems)
    order.zipWithIndex.foreach { case (it, i) => pos(it) = i }
    versionSets.zipWithIndex.groupBy(_._1).values.foreach { grp =>
      // identical version sets → identical shingle vectors; anything sorted
      // between them must carry the same shingle vector (min-hash ties)
      val vec = shingles(grp.head._2)
      grp.foreach(g => assert(shingles(g._2) == vec))
      val ps = grp.map(g => pos(g._2)).sorted
      (ps.head to ps.last).foreach(i => assert(shingles(order(i)) == vec,
        "a non-tied item interleaves an identical-set run"))
    }
  }

  test("more shingles refine the ordering deterministically") {
    val p1 = new ShinglePartitioner(numShingles = 2)
    val p2 = new ShinglePartitioner(numShingles = 6)
    assert(p1.driverOrder(in).toSeq != p2.driverOrder(in).toSeq || in.numItems < 2)
    assert(p2.driverOrder(in).toSeq == p2.driverOrder(in).toSeq)
  }

  test("seed changes the order but not completeness") {
    val pa = new ShinglePartitioner(seed = 1)
    val pb = new ShinglePartitioner(seed = 2)
    val oa = pa.driverOrder(in)
    val ob = pb.driverOrder(in)
    assert(oa.sorted.toSeq == ob.sorted.toSeq)
  }
}
