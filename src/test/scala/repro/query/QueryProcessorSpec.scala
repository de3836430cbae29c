package repro.query

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.{DatasetSpec, VersionedDataGen}
import repro.index.ChunkIndexes
import repro.kvs.{RecordingStore, SimulatedKVS}

import scala.util.Random

class QueryProcessorSpec extends AnyFunSuite {
  private val capacity = 2048L
  private lazy val ds = VersionedDataGen.generate(
    DatasetSpec.tiny("qp", 25, 100, skewed = false, 3, seed = 81))

  private lazy val algos: Seq[Partitioner] =
    Seq(new BottomUpPartitioner(), TraversalPartitioner.dfs, new ShinglePartitioner())

  private def processor(p: Partitioner, k: Int): QueryProcessor = {
    val sub = SubChunker.build(ds, k)
    val a = p.partition(sub.input, capacity)
    val qp = new QueryProcessor(ds, sub, a, new SimulatedKVS(2))
    qp.populate()
    qp
  }

  /** Chunks holding a record of `key`, from the assignment, not the index. */
  private def chunksOfKey(qp: QueryProcessor, key: Long): Set[Int] =
    ds.recordsOfKey(key).map(ck => qp.assignment.itemChunk(qp.sc.recordSc(ds.itemOf(ck)))).toSet

  /** |versionToChunks(v) ∩ ⋃_{key ∈ [lo, hi]} chunks(key)|, key by key. */
  private def andSetSize(qp: QueryProcessor, v: Int, lo: Long, hi: Long): Int = {
    val keyChunks = (lo to hi).flatMap(chunksOfKey(qp, _)).toSet
    qp.indexes.versionToChunks(v).count(keyChunks)
  }

  /** Q2 ranges: single live keys, random widths, ranges past or beyond
    * the last key, and single keys that are not live in the version.
    */
  private lazy val andRanges: Seq[(Int, Long, Long)] = {
    val maxKey = ds.uniqueCks.map(Ck.key).max
    val rnd = new Random(8)
    (0 until 40).flatMap { _ =>
      val v = rnd.nextInt(ds.tree.size)
      val m = ds.members(v)
      val key = Ck.key(m(rnd.nextInt(m.length)))
      val dead = (0L to maxKey).filterNot(ds.isLive(v, _))
      Seq(
        (v, key, key),                             // single live key
        (v, key, key + rnd.nextInt(30)),           // random width
        (v, maxKey - 3, maxKey + 20),              // past the last key
        (v, maxKey + 1, maxKey + 10),              // beyond every key
      ) ++ dead.headOption.map(d => (v, d, d))     // no live key of v
    }
  }

  for (algoIdx <- 0 until 3; k <- Seq(1, 3)) {
    test(s"algo #$algoIdx k=$k: Q1 returns the exact version membership") {
      val qp = processor(algos(algoIdx), k)
      (0 until ds.tree.size).foreach { v =>
        val (records, cost) = qp.fullVersion(v)
        assert(records.toSeq == ds.members(v).toSeq)
        assert(cost.queries == qp.versionSpan(v))
        assert(cost.bytes > 0)
      }
    }

    test(s"algo #$algoIdx k=$k: both index projections equal brute-force chunk sets") {
      val qp = processor(algos(algoIdx), k)
      def chunkOf(ck: Long): Int = qp.assignment.itemChunk(qp.sc.recordSc(ds.itemOf(ck)))
      (0 until ds.tree.size).foreach { v =>
        assert(qp.indexes.versionToChunks(v).toSeq == ds.members(v).map(chunkOf).distinct.sorted.toSeq, s"v=$v")
      }
      ds.uniqueCks.map(Ck.key).distinct.foreach { key =>
        assert(qp.indexes.keyToChunks(key).toSeq == ds.recordsOfKey(key).map(chunkOf).distinct.sorted.toSeq,
          s"key=$key")
      }
    }

    test(s"algo #$algoIdx k=$k: Q2 returns exactly the in-range records") {
      val qp = processor(algos(algoIdx), k)
      val rnd = new Random(5)
      (0 until 10).foreach { _ =>
        val v = rnd.nextInt(ds.tree.size)
        val keys = ds.members(v).map(Ck.key)
        val lo = keys(rnd.nextInt(keys.length))
        val hi = lo + 20
        val (records, cost) = qp.range(v, lo, hi)
        val expect = ds.members(v).filter(ck => Ck.key(ck) >= lo && Ck.key(ck) <= hi)
        assert(records.toSeq == expect.toSeq)
        assert(cost.queries <= qp.versionSpan(v), "index-ANDing can only shrink the fetch set")
      }
    }

    test(s"algo #$algoIdx k=$k: Q2 fetches exactly the AND of the two projections") {
      val qp = processor(algos(algoIdx), k)
      val maxKey = ds.uniqueCks.map(Ck.key).max
      assert(andRanges.exists { case (v, lo, hi) => lo <= maxKey && !(lo to hi).exists(ds.isLive(v, _)) })
      andRanges.foreach { case (v, lo, hi) =>
        val (records, cost) = qp.range(v, lo, hi)
        assert(records.toSeq == ds.members(v).filter(ck => Ck.key(ck) >= lo && Ck.key(ck) <= hi).toSeq)
        assert(cost.queries == andSetSize(qp, v, lo, hi), s"v=$v [$lo, $hi]")
      }
    }

    test(s"algo #$algoIdx k=$k: each query requests its chunk set in one read, in order, at the same cost") {
      val sub = SubChunker.build(ds, k)
      val a = algos(algoIdx).partition(sub.input, capacity)
      val rec = new RecordingStore(new SimulatedKVS(2))
      val recQp = new QueryProcessor(ds, sub, a, rec)
      val qp = new QueryProcessor(ds, sub, a, new SimulatedKVS(2))
      recQp.populate()
      qp.populate()
      val idx = qp.indexes
      def check(what: String, expect: Array[Int], cost: QueryProcessor => RetrievalCost): Unit = {
        val recCost = cost(recQp)
        assert(rec.calls.length == 1, what)
        assert(rec.take() == expect.map(_.toLong).toSeq, what)
        assert(recCost == cost(qp), what)
      }
      (0 until ds.tree.size).foreach { v =>
        check(s"Q1 v=$v", idx.versionToChunks(v), _.fullVersion(v)._2)
      }
      val maxKey = idx.keys.last
      (idx.keys :+ (maxKey + 1)).foreach(key => check(s"Q3 key=$key", idx.keyToChunks(key), _.evolution(key)._2))
      val edges = (0 until ds.tree.size by 5).flatMap { v =>
        Seq((v, 10L, 5L), (v, -7L, 12L), (v, maxKey / 2, Long.MaxValue), (v, Long.MinValue, Long.MaxValue))
      }
      (andRanges ++ edges).foreach { case (v, lo, hi) =>
        val (rlo, rhi) = (idx.rankFrom(lo), idx.rankAfter(hi))
        check(s"Q2 v=$v [$lo, $hi]", idx.versionToChunks(v).filter(idx.chunkHoldsRankIn(_, rlo, rhi)),
          _.range(v, lo, hi)._2)
      }
      val rnd = new Random(9)
      (0 until 200).foreach { _ =>
        val v = rnd.nextInt(ds.tree.size)
        val key = Ck.key(ds.members(v)(rnd.nextInt(ds.members(v).length)))
        val kChunks = idx.keyToChunks(key)
        check(s"point v=$v key=$key",
          idx.versionToChunks(v).filter(c => java.util.Arrays.binarySearch(kChunks, c) >= 0), _.point(v, key)._2)
      }
    }

    test(s"algo #$algoIdx k=$k: Q3 returns every record of the key") {
      val qp = processor(algos(algoIdx), k)
      val rnd = new Random(6)
      (0 until 20).foreach { _ =>
        val ck = ds.uniqueCks(rnd.nextInt(ds.uniqueCks.length))
        val key = Ck.key(ck)
        val (records, cost) = qp.evolution(key)
        assert(records.toSeq == ds.recordsOfKey(key).toSeq)
        assert(cost.queries == qp.keySpan(key))
      }
    }

    test(s"algo #$algoIdx k=$k: point query finds the right record") {
      val qp = processor(algos(algoIdx), k)
      val rnd = new Random(7)
      (0 until 20).foreach { _ =>
        val v = rnd.nextInt(ds.tree.size)
        val ck = ds.members(v)(rnd.nextInt(ds.members(v).length))
        val (res, cost) = qp.point(v, Ck.key(ck))
        assert(res.contains(ck))
        assert(cost.queries >= 1)
        assert(cost.queries == andSetSize(qp, v, Ck.key(ck), Ck.key(ck)))
      }
    }

    test(s"algo #$algoIdx k=$k: point query on a dead key fetches nothing") {
      val qp = processor(algos(algoIdx), k)
      // find a key deleted by some version
      val dead = (1 until ds.tree.size).flatMap { v =>
        ds.deltas(v).dels.map(Ck.key).find(k => !ds.isLive(v, k)).map((v, _))
      }.headOption
      assume(dead.isDefined)
      val (res, cost) = qp.point(dead.get._1, dead.get._2)
      assert(res.isEmpty && cost.queries == 0)
    }
  }

  test("Q2 edge ranges: lo > hi, negative lo, hi at or past the largest key") {
    val qp = processor(new BottomUpPartitioner(), 1)
    val maxKey = ds.uniqueCks.map(Ck.key).max
    (0 until ds.tree.size by 5).foreach { v =>
      val m = ds.members(v)
      val (inverted, invCost) = qp.range(v, 10, 5)
      assert(inverted.isEmpty && invCost == RetrievalCost(0, 0))
      val (neg, negCost) = qp.range(v, -7, 12)
      val (zero, zeroCost) = qp.range(v, 0, 12)
      assert(neg.toSeq == zero.toSeq && negCost == zeroCost)
      assert(neg.toSeq == m.filter(Ck.key(_) <= 12).toSeq)
      val lo = maxKey / 2
      val (upTo, upToCost) = qp.range(v, lo, maxKey)
      for (hi <- Seq(Ck.KeyLimit - 1, Ck.KeyLimit, Long.MaxValue)) {
        val (open, openCost) = qp.range(v, lo, hi)
        assert(open.toSeq == upTo.toSeq && openCost == upToCost, s"hi=$hi")
      }
      assert(upTo.toSeq == m.filter(Ck.key(_) >= lo).toSeq)
      val (all, allCost) = qp.range(v, Long.MinValue, Long.MaxValue)
      assert(all.toSeq == m.toSeq && allCost.queries == qp.versionSpan(v))
    }
  }

  test("indexes: version projection matches per-version chunk sets") {
    val sub = SubChunker.build(ds, 1)
    val a = new BottomUpPartitioner().partition(sub.input, capacity)
    val idx = ChunkIndexes.build(ds, sub, a)
    (0 until ds.tree.size).foreach { v =>
      val expect = ds.membersItems(v).map(i => a.itemChunk(sub.recordSc(i))).distinct.sorted
      assert(idx.versionToChunks(v).toSeq == expect.toSeq)
    }
  }

  test("indexes: key projection covers every record's chunk") {
    val sub = SubChunker.build(ds, 2)
    val a = new BottomUpPartitioner().partition(sub.input, capacity)
    val idx = ChunkIndexes.build(ds, sub, a)
    ds.uniqueCks.indices.foreach { i =>
      val key = Ck.key(ds.uniqueCks(i))
      val chunk = a.itemChunk(sub.recordSc(i))
      assert(idx.keyToChunks(key).contains(chunk))
    }
  }

  test("indexes: the key→chunk and chunk→key-rank projections are transposes") {
    val sub = SubChunker.build(ds, 2)
    val a = new BottomUpPartitioner().partition(sub.input, capacity)
    val idx = ChunkIndexes.build(ds, sub, a)
    assert(idx.keys.toSeq == ds.uniqueCks.map(Ck.key).distinct.toSeq)
    val byKey = idx.keys.indices.flatMap(r => idx.keyToChunks(idx.keys(r)).map((r, _))).toSet
    val byChunk = (0 until a.numChunks).flatMap { c =>
      val ranks = idx.chunkKeyRanks.slice(idx.chunkOff(c), idx.chunkOff(c + 1))
      assert((1 until ranks.length).forall(j => ranks(j - 1) < ranks(j)), s"chunk $c ranks not ascending")
      ranks.map((_, c))
    }
    assert(byKey == byChunk.toSet)
  }

  test("indexes: rank and chunk lookups over a sparse key array") {
    // keys 0 and 1 sit at their own rank; 5, 9 and 10 do not
    val keys = Array(0L, 1L, 5L, 9L, 10L)
    val keyChunks = Array(Array(0), Array(0, 1), Array(1), Array(0), Array(1))
    val chunkRanks = Array(Array(0, 1, 3), Array(1, 2, 4))
    val idx = ChunkIndexes(Array.empty, keys, keyChunks.scanLeft(0)(_ + _.length), keyChunks.flatten,
      chunkRanks.scanLeft(0)(_ + _.length), chunkRanks.flatten, Array(0L, 0L))
    for (key <- Seq(Long.MinValue, Long.MaxValue) ++ (-2L to 12L)) {
      assert(idx.rankFrom(key) == keys.count(_ < key), s"rankFrom($key)")
      assert(idx.rankAfter(key) == keys.count(_ <= key), s"rankAfter($key)")
      val r = keys.indexOf(key)
      assert(idx.keyToChunks(key).toSeq == (if (r < 0) Seq.empty else keyChunks(r).toSeq), s"keyToChunks($key)")
    }
    for (c <- 0 to 1; rlo <- 0 to 5; rhi <- 0 to 5)
      assert(idx.chunkHoldsRankIn(c, rlo, rhi) == chunkRanks(c).exists(r => r >= rlo && r < rhi))
  }

  test("indexes are small relative to the data (§2.4)") {
    val sub = SubChunker.build(ds, 1)
    val a = new BottomUpPartitioner().partition(sub.input, capacity)
    val idx = ChunkIndexes.build(ds, sub, a)
    val dataBytes = ds.itemSizes.sum
    assert(idx.versionIndexBytes < dataBytes / 10)
    assert(idx.keyIndexBytes < dataBytes)
  }

  test("chunk bytes in the index equal the assignment's chunk bytes") {
    val sub = SubChunker.build(ds, 1)
    val a = new BottomUpPartitioner().partition(sub.input, capacity)
    val idx = ChunkIndexes.build(ds, sub, a)
    assert(idx.chunkBytes.toSeq == a.chunkBytes(sub.scSizes).toSeq)
  }
}
