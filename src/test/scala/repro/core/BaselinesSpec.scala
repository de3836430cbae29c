package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{DatasetSpec, RecordModel, VersionedDataGen}
import repro.exp.Experiments

class BaselinesSpec extends AnyFunSuite {
  private val spec = DatasetSpec.tiny("bl", 20, 100, skewed = false, 1, seed = 61)
  private lazy val ds = VersionedDataGen.generate(spec)
  private val capacity = 2048L

  // ---- DELTA ---------------------------------------------------------------

  test("delta storage equals root bytes plus encoded deltas") {
    val dl = new DeltaLayout(ds, capacity)
    val expected = (0 until ds.tree.size).map(ds.deltaBytes).sum
    assert(dl.storageBytes == expected)
    assert(dl.storageBytes < ds.itemSizes.sum, "delta encoding must compress")
  }

  test("delta version span sums chunks along the root path") {
    val dl = new DeltaLayout(ds, capacity)
    (0 until ds.tree.size).foreach { v =>
      assert(dl.versionSpan(v) == ds.tree.pathFromRoot(v).map(dl.chunksPerVersion).sum)
    }
  }

  test("delta version span grows with depth on a chain") {
    val dl = new DeltaLayout(ds, capacity)
    val spans = (0 until ds.tree.size).map(dl.versionSpan)
    assert(spans.zip(spans.tail).forall { case (a, b) => a <= b })
  }

  test("delta point query cost covers origin-to-version subpath") {
    val dl = new DeltaLayout(ds, capacity)
    val v = ds.tree.size - 1
    val key = Ck.key(ds.members(v).head)
    val origin = ds.originOf(v, key)
    val c = dl.pointCost(v, key)
    assert(c.queries == (origin to v).filter(ds.tree.pathFromRoot(v).contains)
      .map(dl.chunksPerVersion).sum)
  }

  test("delta point query on a root-resident key walks the whole chain") {
    val dl = new DeltaLayout(ds, capacity)
    val v = ds.tree.size - 1
    // find a key whose record in v still originates at the root
    val rootKey = ds.members(v).find(ck => Ck.version(ck) == 0).map(Ck.key)
    assume(rootKey.isDefined)
    assert(dl.pointCost(v, rootKey.get).queries == dl.versionSpan(v))
  }

  test("delta evolution cost is the sum of all version costs") {
    val dl = new DeltaLayout(ds, capacity)
    assert(dl.evolutionCost.queries == (0 until ds.tree.size).map(dl.versionCost(_).queries).sum)
  }

  test("delta range retrieval costs its full version retrieval") {
    val dl = new DeltaLayout(ds, capacity)
    val keys = ds.uniqueCks.map(Ck.key).distinct
    (0 until ds.tree.size by 3).foreach { v =>
      assert(dl.rangeCost(v, keys(3), keys(keys.length / 2)) == dl.versionCost(v))
      assert(dl.rangeCost(v, Long.MinValue, Long.MaxValue) == dl.versionCost(v))
    }
  }

  // ---- SUBCHUNK ------------------------------------------------------------

  test("subchunk version retrieval fetches one object per live key") {
    val sl = new SubChunkLayout(ds)
    (0 until ds.tree.size by 5).foreach { v =>
      assert(sl.versionCost(v).queries == ds.members(v).length)
    }
  }

  test("subchunk point and evolution queries cost a single request") {
    val sl = new SubChunkLayout(ds)
    val key = Ck.key(ds.members(0).head)
    assert(sl.pointCost(0, key).queries == 1)
    assert(sl.evolutionCost(key).queries == 1)
  }

  test("subchunk range retrieval fetches one object per live key in the range") {
    val sl = new SubChunkLayout(ds)
    val keys = ds.uniqueCks.map(Ck.key).distinct
    val (lo, hi) = (keys(5), keys(keys.length / 2))
    (0 until ds.tree.size by 4).foreach { v =>
      val live = ds.members(v).map(Ck.key).filter(k => k >= lo && k <= hi)
      assert(live.nonEmpty)
      assert(sl.rangeCost(v, lo, hi) == RetrievalCost(live.length, live.map(sl.keyBytes).sum))
    }
    assert(sl.rangeCost(0, hi, lo) == RetrievalCost(0, 0))
  }

  test("subchunk point cost ignores the version") {
    val sl = new SubChunkLayout(ds)
    val key = Ck.key(ds.members(ds.tree.size - 1).head)
    val costs = (0 until ds.tree.size).map(sl.pointCost(_, key))
    assert(costs.forall(_ == RetrievalCost(1, sl.keyBytes(key))))
  }

  test("subchunk storage is compressed relative to raw records") {
    val sl = new SubChunkLayout(ds)
    assert(sl.storageBytes < ds.itemSizes.sum)
  }

  test("subchunk version retrieval transfers more than the raw version (irrelevant versions)") {
    val sl = new SubChunkLayout(ds)
    val v = ds.tree.size - 1
    val raw = ds.members(v).map(RecordModel.size(_, spec)).sum
    assert(sl.versionCost(v).bytes > raw / 2, "per-key blobs include other versions' data")
  }

  // ---- SINGLE ADDRESS ------------------------------------------------------

  test("single-address stores each record once") {
    val sa = new SingleAddressLayout(ds)
    assert(sa.storageBytes == ds.itemSizes.sum)
  }

  test("single-address version retrieval costs one request per record") {
    val sa = new SingleAddressLayout(ds)
    (0 until ds.tree.size by 5).foreach { v =>
      val c = sa.versionCost(v)
      assert(c.queries == ds.members(v).length)
      assert(c.bytes == ds.members(v).map(RecordModel.size(_, spec)).sum)
    }
  }

  test("single-address point query fetches exactly one record") {
    val sa = new SingleAddressLayout(ds)
    val v = ds.tree.size / 2
    val key = Ck.key(ds.members(v).head)
    val c = sa.pointCost(v, key)
    assert(c.queries == 1)
    assert(c.bytes == RecordModel.size(Ck.pack(key, ds.originOf(v, key)), spec))
  }

  // ---- INDEPENDENT CHUNKED -------------------------------------------------

  test("independent chunking duplicates storage across versions") {
    val ic = new IndependentChunkedLayout(ds, capacity)
    assert(ic.storageBytes == ds.stats.totalBytes)
    assert(ic.storageBytes > ds.itemSizes.sum)
  }

  test("independent chunking has near-optimal version span") {
    val ic = new IndependentChunkedLayout(ds, capacity)
    (0 until ds.tree.size by 5).foreach { v =>
      val c = ic.versionCost(v)
      assert(c.queries == (ic.versionBytes(v) + capacity - 1) / capacity)
    }
  }

  test("independent chunking point cost is one chunk, whatever the version and key") {
    val ic = new IndependentChunkedLayout(ds, capacity)
    for (v <- Seq(0, ds.tree.size - 1); ck <- ds.members(v).take(3))
      assert(ic.pointCost(v, Ck.key(ck)) == RetrievalCost(1, capacity))
  }

  // ---- Table-1 cross-check -------------------------------------------------

  test("measured Table-1 costs track the paper's closed forms") {
    val rows = Experiments.costTable(n = 30, m = 500, d = 0.05, meanSize = 256,
      capacity = 8192, seed = 3)
    rows.foreach { r =>
      val relStorage = r.storage / r.storageFormula
      assert(relStorage > 0.5 && relStorage < 2.0,
        s"${r.approach}: storage ${r.storage} vs formula ${r.storageFormula}")
      val relVb = r.versionBytes / r.versionBytesFormula
      assert(relVb > 0.4 && relVb < 2.5,
        s"${r.approach}: version bytes ${r.versionBytes} vs ${r.versionBytesFormula}")
    }
  }

  test("Table-1 ordering: single-address storage is between delta and independent") {
    val rows = Experiments.costTable(n = 30, m = 500, d = 0.05, meanSize = 256,
      capacity = 8192, seed = 3)
    def storage(name: String) = rows.find(_.approach == name).get.storage
    assert(storage("Delta") < storage("Single-address space"))
    assert(storage("Single-address space") < storage("Independent w/chunking"))
  }
}
