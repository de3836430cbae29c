package repro.core

import repro.data.RecordModel

/** Cost of answering one retrieval query: number of backend requests and
  * bytes transferred (§2.2's two retrieval-cost components).
  */
final case class RetrievalCost(queries: Long, bytes: Long) {
  def +(o: RetrievalCost): RetrievalCost = RetrievalCost(queries + o.queries, bytes + o.bytes)
}

/** What Table 1's queries cost on a layout: full-version retrieval (Q1) and
  * the point query. `QueryProcessor` and every baseline implement it.
  */
trait CostLayout {
  def versionCost(v: Int): RetrievalCost
  def pointCost(v: Int, key: Long): RetrievalCost
}

/** A row of Table 1: a baseline layout with its name and stored bytes. */
abstract class BaselineLayout(val name: String) extends CostLayout {
  def storageBytes: Long
}

/** A layout that Fig 11 also costs for range retrieval (Q2). */
trait RangeCostLayout extends CostLayout {
  def rangeCost(v: Int, loKey: Long, hiKey: Long): RetrievalCost
}

/** The DELTA baseline (§2.2): each version is stored as the delta from its
  * parent (modified records delta-encoded, deletions as tombstones), the
  * root in full. Reconstruction replays the path from the root.
  */
final class DeltaLayout(ds: VersionedDataset, capacity: Long)
    extends BaselineLayout("Delta") with RangeCostLayout {
  val deltaBytesPerVersion: Array[Long] = Array.tabulate(ds.tree.size)(ds.deltaBytes)

  /** Deltas are stored chunked at the same capacity as RStore's chunks so
    * span comparisons (Fig 8) are apples-to-apples.
    */
  val chunksPerVersion: Array[Long] =
    deltaBytesPerVersion.map(b => math.max(1L, (b + capacity - 1) / capacity))

  def storageBytes: Long = deltaBytesPerVersion.sum

  def versionSpan(v: Int): Long = ds.tree.pathFromRoot(v).map(chunksPerVersion).sum
  def totalVersionSpan: Long = (0 until ds.tree.size).map(versionSpan).sum

  def versionCost(v: Int): RetrievalCost =
    RetrievalCost(versionSpan(v), ds.tree.pathFromRoot(v).map(deltaBytesPerVersion).sum)

  /** Range retrieval reconstructs the full version, then filters (§5.4). */
  def rangeCost(v: Int, loKey: Long, hiKey: Long): RetrievalCost = versionCost(v)

  /** Point query: fetch deltas from `v` upward until the delta that created
    * the record for `key` is found (its origin version).
    */
  def pointCost(v: Int, key: Long): RetrievalCost = {
    val origin = ds.originOf(v, key)
    val path = ds.tree.pathFromRoot(v).dropWhile(_ != origin)
    RetrievalCost(path.map(chunksPerVersion).sum, path.map(deltaBytesPerVersion).sum)
  }

  /** Record evolution requires reconstructing every version (§5.4 calls this
    * impractical for DELTA) — cost is the sum of all version costs. Fig 11
    * (`Experiments.queryPerf`) does not charge this per key: it charges
    * `qKeys.length × time(evolutionCost) / n`, one average version
    * reconstruction per key.
    */
  def evolutionCost: RetrievalCost =
    (0 until ds.tree.size).map(versionCost).reduce(_ + _)
}

/** The SUBCHUNK baseline (§2.2): all records of a primary key stored as one
  * compressed object keyed by the primary key.
  */
final class SubChunkLayout(ds: VersionedDataset) extends BaselineLayout("SubChunk") with RangeCostLayout {
  /** Compressed bytes of the per-key object: lineage-forest roots in full,
    * everything else delta-encoded.
    */
  def keyBytes(key: Long): Long = {
    val records = ds.recordsOfKey(key)
    records.map { ck =>
      if (ds.parentOf(ck) >= 0) RecordModel.diffSize(ck, ds.spec)
      else RecordModel.size(ck, ds.spec)
    }.sum + 16L * records.length
  }

  lazy val allKeys: Array[Long] = ds.uniqueCks.map(Ck.key).distinct

  def storageBytes: Long = allKeys.map(keyBytes).sum

  /** Version retrieval touches one object per key in the version. */
  def versionCost(v: Int): RetrievalCost = rangeCost(v, Long.MinValue, Long.MaxValue)

  /** Range retrieval touches the object of each key of `v` in the range. */
  def rangeCost(v: Int, loKey: Long, hiKey: Long): RetrievalCost = {
    val keys = ds.members(v).map(Ck.key).filter(key => key >= loKey && key <= hiKey)
    RetrievalCost(keys.length.toLong, keys.map(keyBytes).sum)
  }

  /** A point query fetches the key's one object, whatever the version. */
  def pointCost(v: Int, key: Long): RetrievalCost = RetrievalCost(1, keyBytes(key))
  def evolutionCost(key: Long): RetrievalCost = RetrievalCost(1, keyBytes(key))
}

/** The SINGLE-ADDRESS-SPACE baseline (§2.2): every record stored under its
  * composite key; no compression, one request per record.
  */
final class SingleAddressLayout(ds: VersionedDataset) extends BaselineLayout("Single-address space") {
  def storageBytes: Long = ds.itemSizes.sum

  def versionCost(v: Int): RetrievalCost =
    RetrievalCost(ds.members(v).length.toLong,
      ds.members(v).map(RecordModel.size(_, ds.spec)).sum)

  def pointCost(v: Int, key: Long): RetrievalCost = {
    val ck = Ck.pack(key, ds.originOf(v, key))
    RetrievalCost(1, RecordModel.size(ck, ds.spec))
  }
}

/** Table 1's first row: every version chunked *independently* (duplicated
  * across versions, no dedup). Best possible span per version, worst
  * storage.
  */
final class IndependentChunkedLayout(ds: VersionedDataset, capacity: Long)
    extends BaselineLayout("Independent w/chunking") {
  def versionBytes(v: Int): Long = ds.members(v).map(RecordModel.size(_, ds.spec)).sum
  def storageBytes: Long = (0 until ds.tree.size).map(versionBytes).sum
  def versionCost(v: Int): RetrievalCost = {
    val b = versionBytes(v)
    RetrievalCost(math.max(1L, (b + capacity - 1) / capacity), b)
  }
  /** One chunk of any version holds the record. */
  def pointCost(v: Int, key: Long): RetrievalCost = RetrievalCost(1, capacity)
}
