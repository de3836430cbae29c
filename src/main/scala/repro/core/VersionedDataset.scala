package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{DatasetSpec, RecordModel}

/** Summary statistics of a dataset — the columns of Table 2. */
final case class DatasetStats(
    name: String,
    nVersions: Int,
    avgDepth: Double,
    avgRecordsPerVersion: Double,
    updatePct: Double,
    updateType: String,
    uniqueRecords: Long,
    uniqueBytes: Long,
    totalBytes: Long,
)

/** A fully materialized multi-versioned dataset.
  *
  * Holds the version tree, the per-edge deltas (`deltas(v)` derives `V_v`
  * from its parent; `deltas(0).adds` is the root's content), the lineage of
  * modified records (composite key → the composite key it modified), and the
  * materialized per-version membership (sorted packed composite keys).
  *
  * Dense *item ids* (`0 until uniqueCks.length`, in sorted-ck order) are the
  * unit the partitioning algorithms operate on when no sub-chunking is used.
  */
final class VersionedDataset(
    val spec: DatasetSpec,
    val tree: VersionTree,
    val deltas: Array[Delta],
    val lineageMap: collection.Map[Long, Long],
) {
  require(deltas.length == tree.size)

  /** Per-version membership: sorted packed composite keys. */
  val members: Array[Array[Long]] = {
    val m = new Array[Array[Long]](tree.size)
    m(0) = deltas(0).adds
    var v = 1
    while (v < tree.size) { m(v) = deltas(v).applyTo(m(tree.parent(v))); v += 1 }
    m
  }

  /** All distinct records, sorted. Every add creates a fresh composite key,
    * so this is exactly the concatenation of all deltas' adds.
    */
  val uniqueCks: Array[Long] = {
    val out = deltas.iterator.flatMap(_.adds).toArray
    java.util.Arrays.sort(out)
    var i = 1
    while (i < out.length && out(i - 1) != out(i)) i += 1
    require(i >= out.length, s"record ${Ck.show(out(i))} is added by more than one delta")
    out
  }

  /** Dense item id of a composite key (position in `uniqueCks`). */
  def itemOf(ck: Long): Int = {
    val i = java.util.Arrays.binarySearch(uniqueCks, ck)
    require(i >= 0, s"unknown record ${Ck.show(ck)}")
    i
  }

  lazy val itemSizes: Array[Long] = uniqueCks.map(RecordModel.size(_, spec))

  /** Per-version membership as dense item ids (sorted — ck order is id order). */
  lazy val membersItems: Array[Array[Int]] = itemsByWalk()

  /** `members` as item ids, top-down with one sorted walk per version against
    * its parent: a record kept from the parent reuses the parent's id, and
    * only the version's adds are looked up. (A method, not the lazy val's
    * body: the JIT compiles these loops poorly inside the lazy val's lock.)
    */
  private def itemsByWalk(): Array[Array[Int]] = {
    val out = new Array[Array[Int]](tree.size)
    var v = 0
    while (v < tree.size) {
      val m = members(v)
      val ids = new Array[Int](m.length)
      val p = tree.parent(v)
      val pm = if (p == -1) Array.emptyLongArray else members(p)
      val pids = if (p == -1) Array.emptyIntArray else out(p)
      var i = 0; var j = 0
      while (i < m.length) {
        while (j < pm.length && pm(j) < m(i)) j += 1
        ids(i) = if (j < pm.length && pm(j) == m(i)) pids(j) else itemOf(m(i))
        i += 1
      }
      out(v) = ids
      v += 1
    }
    out
  }

  /** Lineage parent of a modified record, if any. */
  def lineage(ck: Long): Option[Long] = lineageMap.get(ck)

  /** All records (across versions) for a primary key, in ck order — the
    * ground truth for record-evolution queries (Q3). Exploits that packed
    * cks sort primarily by key.
    */
  def recordsOfKey(key: Long): Array[Long] = {
    var i = Ck.lowerBound(uniqueCks, key)
    val out = Array.newBuilder[Long]
    while (i < uniqueCks.length && Ck.key(uniqueCks(i)) == key) { out += uniqueCks(i); i += 1 }
    out.result()
  }

  /** The record for `key` live in version `v` (the version-to-record
    * lookup of Example 2), or -1 if the key is not live there.
    */
  def liveCk(v: Int, key: Long): Long = {
    val m = members(v)
    val i = Ck.lowerBound(m, key)
    if (i < m.length && Ck.key(m(i)) == key) m(i) else -1L
  }

  /** Origin version of the record for `key` live in version `v`. Requires
    * the key to be live.
    */
  def originOf(v: Int, key: Long): Int = {
    val ck = liveCk(v, key)
    require(ck >= 0, s"key $key not live in version $v")
    Ck.version(ck)
  }

  /** Whether `key` is live in version `v`. */
  def isLive(v: Int, key: Long): Boolean = liveCk(v, key) >= 0

  /** Number of versions each item belongs to (the item's "version count"). */
  lazy val itemVersionCounts: Array[Int] = {
    val c = new Array[Int](uniqueCks.length)
    membersItems.foreach(_.foreach(i => c(i) += 1))
    c
  }

  /** Total bytes if every version were stored independently (Table 2's
    * "Total size"); unique bytes = deduplicated storage.
    */
  lazy val stats: DatasetStats = {
    val uniqueBytes = itemSizes.sum
    var total = 0L
    var i = 0
    while (i < uniqueCks.length) { total += itemSizes(i) * itemVersionCounts(i); i += 1 }
    DatasetStats(
      name = spec.name,
      nVersions = tree.size,
      avgDepth = tree.avgLeafDepth,
      avgRecordsPerVersion = members.iterator.map(_.length.toLong).sum.toDouble / tree.size,
      updatePct = spec.updateFrac * 100,
      updateType = spec.updateType,
      uniqueRecords = uniqueCks.length.toLong,
      uniqueBytes = uniqueBytes,
      totalBytes = total,
    )
  }

  /** Size in bytes of the delta deriving `v` from its parent, with modified
    * records delta-encoded against their lineage parents (the DELTA
    * baseline's storage unit). The root's "delta" is its full content.
    */
  def deltaBytes(v: Int): Long = {
    val d = deltas(v)
    var bytes = 0L
    d.adds.foreach { ck =>
      bytes += (if (lineageMap.contains(ck)) RecordModel.diffSize(ck, spec)
                else RecordModel.size(ck, spec))
    }
    bytes + d.dels.length.toLong * RecordModel.TombstoneSize
  }

  /** JSON payload of a record (correctness tests). */
  def payload(ck: Long): String = RecordModel.payload(ck, spec, lineageMap.get)

  /** The dataset restricted to its first `n` versions (version ids are
    * generated in commit order, so this is a valid history prefix). Used to
    * compare online partitioning against an offline run "for the same
    * number of versions" (§5.6).
    */
  def prefix(n: Int): VersionedDataset = {
    require(n >= 1 && n <= tree.size)
    if (n == tree.size) this
    else new VersionedDataset(spec.copy(name = s"${spec.name}[0,$n)"),
      new VersionTree(tree.parent.take(n)), deltas.take(n), lineageMap)
  }

  // ---- DataFrame exports -----------------------------------------------------

  /** `(version, key, origin)` — one row per record-in-version. */
  def membershipDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    val rows = for {
      v <- members.indices.iterator
      ck <- members(v).iterator
    } yield (v, Ck.key(ck), Ck.version(ck))
    rows.toSeq.toDF("version", "key", "origin")
  }

  /** `(key, origin, payload)` — with materialized JSON; small datasets only. */
  def payloadsDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    uniqueCks.iterator
      .map(ck => (Ck.key(ck), Ck.version(ck), payload(ck)))
      .toSeq
      .toDF("key", "origin", "payload")
  }
}

/** Conversion of a version DAG (merges) into a dataset over a version tree,
  * per Fig 4: each merge keeps one parent edge; records that arrived
  * exclusively through dropped edges are renamed to look like fresh inserts
  * in the merge version. Queries keep using the original membership — only
  * partitioning sees the transformed dataset.
  */
object DagToTree {
  def convert(dag: VersionDag, dagMembers: Array[Array[Long]], spec: DatasetSpec): VersionedDataset = {
    val (tree, _) = dag.toTree
    // Top-down (a tree parent precedes its child): a record in the tree
    // parent keeps the parent's name for it. Any other record enters the
    // kept path at v: it is a fresh insert if it originated at v, else it
    // arrived through a dropped edge — even when its origin is an ancestor
    // that the kept path lost it from — and is renamed to originate at v.
    // `names(v)` is aligned with `dagMembers(v)`.
    val names = new Array[Array[Long]](tree.size)
    for (v <- 0 until tree.size) {
      val m = dagMembers(v)
      val p = tree.parent(v)
      val pm = if (p == -1) Array.emptyLongArray else dagMembers(p)
      val out = new Array[Long](m.length)
      var j = 0
      for (i <- m.indices) {
        while (j < pm.length && pm(j) < m(i)) j += 1
        out(i) =
          if (j < pm.length && pm(j) == m(i)) names(p)(j)
          else if (Ck.version(m(i)) == v) m(i)
          else Ck.pack(Ck.key(m(i)), v)
      }
      names(v) = out
    }
    val treeMembers = names.map(_.sorted)
    val deltas = new Array[Delta](tree.size)
    deltas(0) = Delta(treeMembers(0), Array.emptyLongArray)
    for (v <- 1 until tree.size)
      deltas(v) = Delta.between(treeMembers(tree.parent(v)), treeMembers(v))
    new VersionedDataset(spec, tree, deltas, Map.empty)
  }
}
