package repro.kvs

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.data.{DatasetSpec, VersionedDataGen}
import repro.index.ChunkIndexes
import repro.query.SparkQueries

import java.nio.file.Files

class SparkChunkStoreSpec extends SparkSpec {
  private val capacity = 2048L
  private lazy val ds = VersionedDataGen.generate(
    DatasetSpec.tiny("pq", 15, 60, skewed = false, 2, seed = 101))
  private lazy val sub = SubChunker.build(ds, 1)
  private lazy val assignment = new BottomUpPartitioner().partition(sub.input, capacity)
  private lazy val indexes = ChunkIndexes.build(ds, sub, assignment)

  private lazy val storePath = {
    val dir = Files.createTempDirectory("chunkstore").toString
    val store = new SparkChunkStore(spark, dir)
    store.write(ds, sub, assignment)
    dir
  }
  private def store = new SparkChunkStore(spark, storePath)

  test("write persists every record exactly once") {
    val all = store.readChunks((0 until assignment.numChunks).toSeq)
    assert(all.count() == ds.uniqueCks.length)
    assert(all.select("key", "origin").distinct().count() == ds.uniqueCks.length)
  }

  test("pruned read returns only the requested chunks") {
    val one = store.readChunks(Seq(0))
    val expect = ds.uniqueCks.indices.count(i => assignment.itemChunk(sub.recordSc(i)) == 0)
    assert(one.count() == expect)
  }

  test("Q1 through the physical store returns the version's records with payloads") {
    (0 until ds.tree.size by 3).foreach { v =>
      val chunks = indexes.versionToChunks(v)
      val got = store.fullVersion(ds, chunks.toSeq, v).collect()
        .map(r => (Ck.pack(r.getLong(0), r.getInt(1)), r.getString(2))).toMap
      assert(got.keySet == ds.members(v).toSet)
      got.foreach { case (ck, payload) => assert(payload == ds.payload(ck)) }
    }
  }

  test("Q1 physical result matches DuckDB over the payload relation") {
    val v = ds.tree.size - 1
    val payloads = SparkQueries.payloadsDF(spark, ds)
    val membership = SparkQueries.membershipDF(spark, ds)
    val physical = store.fullVersion(ds, indexes.versionToChunks(v).toSeq, v)
    Oracle.assertEquivalent(
      physical,
      s"""SELECT p.key, p.origin, p.payload
         |FROM payloads p JOIN membership m ON p.key = m.key AND p.origin = m.origin
         |WHERE m.version = '$v'""".stripMargin,
      "payloads" -> payloads, "membership" -> membership)
  }

  test("Q3 through the physical store returns the key's evolution") {
    val key = Ck.key(ds.uniqueCks(ds.uniqueCks.length / 2))
    val chunks = indexes.keyToChunks(key)
    val got = store.evolution(chunks.toSeq, key).collect()
      .map(r => Ck.pack(r.getLong(0), r.getInt(1))).sorted
    assert(got.toSeq == ds.recordsOfKey(key).toSeq)
  }

  test("payloads round-trip byte-identically through Parquet") {
    val all = store.readChunks((0 until assignment.numChunks).toSeq).collect()
    all.foreach { r =>
      val ck = Ck.pack(r.getLong(0), r.getInt(1))
      assert(r.getString(2) == ds.payload(ck))
    }
  }
}
