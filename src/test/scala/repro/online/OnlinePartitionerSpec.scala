package repro.online

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.{DatasetSpec, RecordModel, VersionedDataGen}

class OnlinePartitionerSpec extends AnyFunSuite {
  private val capacity = 2048L
  private val spec = DatasetSpec.tiny("online", 40, 120, skewed = false, 3, seed = 111)
  private lazy val ds = VersionedDataGen.generate(spec)

  /** Offline BottomUp over the first 40 versions, packing records by the same
    * stored (k = 1 sub-chunk) sizes as the online partitioner.
    */
  private lazy val offline: Long = {
    val sizes = ds.uniqueCks.map(RecordModel.subChunkCompressedSize(_, Nil, spec))
    val in = PartitionInput(ds.tree, ds.membersItems, sizes)
    Span.total(in.members, new BottomUpPartitioner().partition(in, capacity))
  }

  /** Total span of an online placement over the first `n` versions. */
  private def onlineSpan(st: OnlinePartitioner#State, n: Int): Long = {
    val pre = ds.prefix(n)
    Span.total(pre.membersItems, Assignment(pre.uniqueCks.map(st.ckChunk), st.numChunks))
  }

  test("every record of the ingested prefix is placed") {
    for (batch <- Seq(5, 10, 40)) {
      val st = new OnlinePartitioner(ds, capacity, batch).run(40)
      (0 until 40).foreach { v =>
        ds.members(v).foreach(ck => assert(st.ckChunk(ck) >= 0, Ck.show(ck)))
      }
    }
  }

  test("records are never repartitioned by later batches") {
    val p1 = new OnlinePartitioner(ds, capacity, 10)
    val firstHalf = p1.run(20)
    val full = p1.run(40)
    // chunks assigned to the first 20 versions' records must be identical
    (0 until 20).foreach { v =>
      ds.deltas(v).adds.foreach { ck =>
        assert(full.ckChunk(ck) == firstHalf.ckChunk(ck))
      }
    }
  }

  test("a single batch covering everything matches offline BottomUp span closely") {
    val online = onlineSpan(new OnlinePartitioner(ds, capacity, 40).run(40), 40)
    assert(online <= offline * 1.2 + 4, s"online=$online offline=$offline")
  }

  test("online quality ratio is near or above 1 and no worse for smaller batches") {
    val ratios = Seq(5, 10, 20, 40).map { b =>
      b -> onlineSpan(new OnlinePartitioner(ds, capacity, b).run(40), 40).toDouble / offline
    }
    ratios.foreach { case (b, r) => assert(r > 0.85, s"batch=$b ratio=$r") }
    val small = ratios.head._2
    val large = ratios.last._2
    assert(large <= small + 0.15, s"quality should improve with batch size: $ratios")
  }

  test("small batches do not fragment much more than a single batch") {
    val st5 = new OnlinePartitioner(ds, capacity, 5).run(40)
    val st40 = new OnlinePartitioner(ds, capacity, 40).run(40)
    // per-batch partial-chunk merging keeps fragmentation within a few
    // chunks of the single-batch layout (either direction: small batches
    // merge their partials more aggressively)
    assert(math.abs(st5.numChunks - st40.numChunks) <= 8,
      s"${st5.numChunks} vs ${st40.numChunks}")
  }

  test("online Span.total equals a direct per-version distinct count") {
    val st = new OnlinePartitioner(ds, capacity, 10).run(30)
    val direct = (0 until 30).map(v => ds.members(v).map(st.ckChunk(_)).distinct.length.toLong).sum
    assert(onlineSpan(st, 30) == direct)
  }

  test("online chunks stay within 1.25·C as stored (k = 1 sub-chunks)") {
    // the layout that serves an online placement: one record per sub-chunk
    val sc = SubChunker.build(ds, 1)
    for (batch <- Seq(5, 10, 40)) {
      val st = new OnlinePartitioner(ds, capacity, batch).run(40)
      val bytes = Assignment(sc.scRepCk.map(st.ckChunk), st.numChunks).chunkBytes(sc.scSizes)
      assert(bytes.max <= capacity + capacity / 4, s"batch=$batch: largest chunk ${bytes.max}")
    }
  }
}
