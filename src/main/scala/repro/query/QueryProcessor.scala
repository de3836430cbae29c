package repro.query

import repro.core.{Assignment, Ck, RetrievalCost, SubChunking, VersionedDataset}
import repro.index.ChunkIndexes
import repro.kvs.{Blob, KeyValueStore}

/** Query processing over a chunked layout (§2.4 "Indexes and Query
  * Processing Module").
  *
  * Chunks live in the backend KVS under their chunk ids; the in-memory
  * lossy projections pick the chunks to fetch, and the per-chunk maps
  * (reconstructed here from the dataset — in aggregate they carry exactly
  * the membership matrix) extract the requested records. Every query
  * returns both its answer (composite keys) and its backend cost.
  */
final class QueryProcessor(
    val ds: VersionedDataset,
    val sc: SubChunking,
    val assignment: Assignment,
    val kvs: KeyValueStore,
) {
  val indexes: ChunkIndexes = ChunkIndexes.build(ds, sc, assignment)

  /** Load every chunk into the KVS (done once at layout time). */
  def populate(): Unit =
    indexes.chunkBytes.zipWithIndex.foreach { case (b, c) => kvs.put(c.toLong, Blob(b)) }

  private def fetch(chunks: Seq[Int]): RetrievalCost = {
    val before = (kvs.tally.requests, kvs.tally.bytes)
    kvs.multiGet(chunks.map(_.toLong))
    RetrievalCost(kvs.tally.requests - before._1, kvs.tally.bytes - before._2)
  }

  /** Q1 — full version retrieval. */
  def fullVersion(v: Int): (Array[Long], RetrievalCost) = {
    val cost = fetch(indexes.versionToChunks(v).toSeq)
    (ds.members(v), cost)
  }

  /** Q2 — range retrieval: records of `v` with key in `[loKey, hiKey]`.
    * Index-ANDs the two projections (§2.4) by probing each of the
    * version's chunks: a chunk is fetched if its key ranks meet the rank
    * interval of `[loKey, hiKey]`, one binary search per chunk. Lossiness
    * can fetch chunks that turn out to hold no qualifying record of `v`.
    */
  def range(v: Int, loKey: Long, hiKey: Long): (Array[Long], RetrievalCost) = {
    val rlo = indexes.rankFrom(loKey)
    val rhi = indexes.rankAfter(hiKey)
    val hit = indexes.versionToChunks(v).filter(indexes.chunkHoldsRankIn(_, rlo, rhi))
    val cost = fetch(hit.toSeq)
    val m = ds.members(v)
    val from = Ck.lowerBound(m, loKey)
    val until = if (hiKey == Long.MaxValue) m.length else Ck.lowerBound(m, hiKey + 1)
    (java.util.Arrays.copyOfRange(m, from, math.max(from, until)), cost)
  }

  /** Q3 — record evolution: all records ever stored for `key`. */
  def evolution(key: Long): (Array[Long], RetrievalCost) = {
    val cost = fetch(indexes.keyToChunks(key).toSeq)
    (ds.recordsOfKey(key), cost)
  }

  /** Point query — the record for `key` in version `v`. */
  def point(v: Int, key: Long): (Option[Long], RetrievalCost) = {
    val ck = ds.liveCk(v, key)
    if (ck < 0) return (None, RetrievalCost(0, 0))
    val kChunks = indexes.keyToChunks(key)
    val hit = indexes.versionToChunks(v).filter(c => java.util.Arrays.binarySearch(kChunks, c) >= 0)
    (Some(ck), fetch(hit.toSeq))
  }

  /** Span of a version under this layout (chunks to fetch for Q1). */
  def versionSpan(v: Int): Int = indexes.versionToChunks(v).length

  /** Span of a key (chunks to fetch for Q3). */
  def keySpan(key: Long): Int = indexes.keyToChunks(key).length
}
