package repro.query

import repro.core.{Assignment, Ck, RangeCostLayout, RetrievalCost, SubChunking, VersionedDataset}
import repro.index.ChunkIndexes
import repro.kvs.{Blob, KeyValueStore}

/** Query processing over a chunked layout (§2.4 "Indexes and Query
  * Processing Module").
  *
  * Chunks live in the backend KVS under their chunk ids; the in-memory
  * lossy projections pick the chunks to fetch, and the per-chunk maps
  * (reconstructed here from the dataset — in aggregate they carry exactly
  * the membership matrix) extract the requested records. Every query
  * returns both its answer (composite keys) and its backend cost; as a
  * `RangeCostLayout` it reports the cost alone.
  */
final class QueryProcessor(
    val ds: VersionedDataset,
    val sc: SubChunking,
    val assignment: Assignment,
    val kvs: KeyValueStore,
) extends RangeCostLayout {
  val indexes: ChunkIndexes = ChunkIndexes.build(ds, sc, assignment)

  /** Load every chunk into the KVS (done once at layout time). */
  def populate(): Unit = {
    val bytes = indexes.chunkBytes
    var c = 0
    while (c < bytes.length) { kvs.put(c.toLong, Blob(bytes(c))); c += 1 }
  }

  /** Fetch `chunks(from until until)` in one batch; the traffic it adds. */
  private def fetch(chunks: Array[Int], from: Int, until: Int): RetrievalCost = {
    val requests = kvs.tally.requests
    val bytes = kvs.tally.bytes
    kvs.fetch(chunks, from, until)
    RetrievalCost(kvs.tally.requests - requests, kvs.tally.bytes - bytes)
  }

  /** Q1 — full version retrieval. */
  def fullVersion(v: Int): (Array[Long], RetrievalCost) = {
    val chunks = indexes.versionToChunks(v)
    val cost = fetch(chunks, 0, chunks.length)
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
    val chunks = indexes.versionToChunks(v)
    val hit = new Array[Int](chunks.length)
    var n = 0
    var i = 0
    while (i < chunks.length) {
      if (indexes.chunkHoldsRankIn(chunks(i), rlo, rhi)) { hit(n) = chunks(i); n += 1 }
      i += 1
    }
    val cost = fetch(hit, 0, n)
    val m = ds.members(v)
    val from = Ck.lowerBound(m, loKey)
    val until = if (hiKey == Long.MaxValue) m.length else Ck.lowerBound(m, hiKey + 1)
    (java.util.Arrays.copyOfRange(m, from, math.max(from, until)), cost)
  }

  /** Q3 — record evolution: all records ever stored for `key`, fetched
    * straight from the key's slice of the key projection.
    */
  def evolution(key: Long): (Array[Long], RetrievalCost) = {
    val r = indexes.keyRank(key)
    val cost =
      if (r < 0) fetch(indexes.keyChunks, 0, 0)
      else fetch(indexes.keyChunks, indexes.keyOff(r), indexes.keyOff(r + 1))
    (ds.recordsOfKey(key), cost)
  }

  /** Point query — the record for `key` in version `v`. Fetches the
    * intersection of the version's chunks and the key's, merged from the
    * two ascending arrays.
    */
  def point(v: Int, key: Long): (Option[Long], RetrievalCost) = {
    val ck = ds.liveCk(v, key)
    if (ck < 0) return (None, RetrievalCost(0, 0))
    val vChunks = indexes.versionToChunks(v)
    val kChunks = indexes.keyChunks
    val r = indexes.keyRank(key) // a live key is indexed
    var j = indexes.keyOff(r)
    val end = indexes.keyOff(r + 1)
    val hit = new Array[Int](math.min(vChunks.length, end - j))
    var n = 0
    var i = 0
    while (i < vChunks.length && j < end) {
      val c = vChunks(i)
      if (c < kChunks(j)) i += 1
      else if (c > kChunks(j)) j += 1
      else { hit(n) = c; n += 1; i += 1; j += 1 }
    }
    (Some(ck), fetch(hit, 0, n))
  }

  def versionCost(v: Int): RetrievalCost = fullVersion(v)._2
  def rangeCost(v: Int, loKey: Long, hiKey: Long): RetrievalCost = range(v, loKey, hiKey)._2
  def evolutionCost(key: Long): RetrievalCost = evolution(key)._2
  def pointCost(v: Int, key: Long): RetrievalCost = point(v, key)._2

  /** Span of a version under this layout (chunks to fetch for Q1). */
  def versionSpan(v: Int): Int = indexes.versionToChunks(v).length

  /** Span of a key (chunks to fetch for Q3). */
  def keySpan(key: Long): Int = indexes.keyToChunks(key).length
}
