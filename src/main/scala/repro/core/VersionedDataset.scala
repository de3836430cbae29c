package repro.core

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

/** A multi-versioned dataset.
  *
  * Holds the version tree, the per-edge deltas (`deltas(v)` derives `V_v`
  * from its parent; `deltas(0).adds` is the root's content), the lineage of
  * modified records (composite key → the composite key it modified, given as
  * `parents`), and the per-version membership (sorted packed composite
  * keys), materialised from the deltas on first use. A delta adds only
  * records originating at its version, and deletes only records its parent
  * holds.
  *
  * Dense *item ids* (`0 until uniqueCks.length`, in sorted-ck order) are the
  * unit the partitioning algorithms operate on when no sub-chunking is used.
  */
final class VersionedDataset(
    val spec: DatasetSpec,
    val tree: VersionTree,
    val deltas: Array[Delta],
    parents: collection.Map[Long, Long],
) {
  require(deltas.length == tree.size)
  require(tree.size <= Ck.MaxVersions,
    s"${tree.size} versions exceed the limit of ${Ck.MaxVersions} (2^${Ck.VersionBits}) a composite key can address")

  /** The lineage as a parent-version table aligned with the deltas: a
    * `Lineage` over these deltas is shared, any other map converted once.
    */
  val lineageMap: Lineage = Lineage.from(deltas, parents)

  /** All distinct records, sorted. Every add creates a fresh composite key,
    * so this is exactly the concatenation of all deltas' adds.
    */
  val uniqueCks: Array[Long] = {
    var n = 0
    for (d <- deltas) n += d.adds.length
    val out = new Array[Long](n)
    n = 0
    for (d <- deltas) { System.arraycopy(d.adds, 0, out, n, d.adds.length); n += d.adds.length }
    java.util.Arrays.sort(out)
    requireDistinct(out)
    out
  }

  /** Rejects a record two deltas add; a method, since the JIT cannot compile
    * a loop in a field initialiser on-stack.
    */
  private def requireDistinct(sorted: Array[Long]): Unit = {
    var i = 1
    while (i < sorted.length && sorted(i - 1) != sorted(i)) i += 1
    require(i >= sorted.length, s"record ${Ck.show(sorted(i))} is added by more than one delta")
  }

  /** Dense item id of a composite key (position in `uniqueCks`). */
  def itemOf(ck: Long): Int = {
    val i = java.util.Arrays.binarySearch(uniqueCks, ck)
    require(i >= 0, s"unknown record ${Ck.show(ck)}")
    i
  }

  lazy val itemSizes: Array[Long] = sizes() // a method: see `walk`

  private def sizes(): Array[Long] = {
    val out = new Array[Long](uniqueCks.length)
    var i = 0
    while (i < out.length) { out(i) = RecordModel.size(uniqueCks(i), spec); i += 1 }
    out
  }

  // Both membership views; null until the first use of either fills them.
  // Their holder's fields are final, so a thread that sees it sees them whole.
  private[this] var rows: VersionedDataset.Rows = _

  /** Per-version membership: sorted packed composite keys. */
  def members: Array[Array[Long]] = { val r = rows; if (r ne null) r.keys else walked().keys }

  /** Per-version membership as dense item ids, aligned with `members` (so
    * sorted too — ck order is id order).
    */
  def membersItems: Array[Array[Int]] = { val r = rows; if (r ne null) r.items else walked().items }

  /** Whether the membership walk has run. */
  private[core] def isWalked: Boolean = rows ne null

  private def walked(): VersionedDataset.Rows = synchronized {
    if (rows eq null) rows = walk()
    rows
  }

  /** Both membership views, top-down with one sorted walk per version over
    * its parent's rows and its delta: a record kept from the parent carries
    * its key and id along, and an add takes its id from `addIds`. (Its own
    * method, outside the synchronized one: inside a lazy val's lock the JIT
    * compiled such loops about 4× slower.)
    */
  private def walk(): VersionedDataset.Rows = {
    val addIds = this.addIds()
    val keys = new Array[Array[Long]](tree.size)
    val items = new Array[Array[Int]](tree.size)
    var v = 0
    while (v < tree.size) {
      val p = tree.parent(v)
      val pk = if (p == -1) Array.emptyLongArray else keys(p)
      val pi = if (p == -1) Array.emptyIntArray else items(p)
      val adds = deltas(v).adds
      val dels = deltas(v).dels
      // every delete hits a parent record, so the row's length is known
      val n = pk.length + adds.length - dels.length
      if (n < 0) deletesAbsent(v)
      val k = new Array[Long](n)
      val it = new Array[Int](n)
      var i = 0; var d = 0; var a = 0; var o = 0
      while (i < pk.length || a < adds.length) {
        if (i < pk.length && (a == adds.length || pk(i) <= adds(a))) {
          if (d < dels.length && dels(d) == pk(i)) d += 1
          else {
            if (o == n) deletesAbsent(v)
            k(o) = pk(i); it(o) = pi(i); o += 1
          }
          i += 1
        } else {
          if (o == n) deletesAbsent(v)
          k(o) = adds(a); it(o) = addIds(v)(a); o += 1
          a += 1
        }
      }
      keys(v) = k
      items(v) = it
      v += 1
    }
    new VersionedDataset.Rows(keys, items)
  }

  /** Per version, the item ids of its delta's adds, by one pass over
    * `uniqueCks` and no search: a record is added by the delta of its origin
    * version, so the records originating at v, in ck order, are `adds(v)`.
    */
  private def addIds(): Array[Array[Int]] = {
    val ids = new Array[Array[Int]](tree.size)
    for (v <- ids.indices) ids(v) = new Array[Int](deltas(v).adds.length)
    val filled = new Array[Int](tree.size)
    var lo = 0
    while (lo < uniqueCks.length) lo = addIdsOfKey(lo, ids, filled)
    ids
  }

  /** `addIds` for the records of one key: the range of `uniqueCks` that
    * starts at `lo`; returns its end. A method per key, so that the JIT
    * compiles it by call count within the first walk. A single loop over
    * every record runs once per dataset; on 43 K records it stayed
    * interpreted into the second walk (7-12 ms there, 1 ms compiled).
    */
  private def addIdsOfKey(lo: Int, ids: Array[Array[Int]], filled: Array[Int]): Int = {
    val key = Ck.key(uniqueCks(lo))
    var i = lo
    while (i < uniqueCks.length && Ck.key(uniqueCks(i)) == key) {
      val ck = uniqueCks(i)
      val v = Ck.version(ck)
      if (v >= tree.size || filled(v) == ids(v).length || deltas(v).adds(filled(v)) != ck)
        throw new IllegalArgumentException(s"record ${Ck.show(ck)} is not added by the delta of its origin version")
      ids(v)(filled(v)) = i
      filled(v) += 1
      i += 1
    }
    i
  }

  private def deletesAbsent(v: Int): Nothing =
    throw new IllegalArgumentException(s"the delta of version $v deletes records its parent does not hold")

  /** Lineage parent of a modified record, or -1 if it has none. */
  def parentOf(ck: Long): Long = lineageMap.parentOf(ck)

  /** Lineage parent of a modified record, if any. */
  def lineage(ck: Long): Option[Long] = lineageMap.get(ck)

  /** All records (across versions) for a primary key, in ck order — the
    * ground truth for record-evolution queries (Q3). Exploits that packed
    * cks sort primarily by key.
    */
  def recordsOfKey(key: Long): Array[Long] = {
    val lo = Ck.lowerBound(uniqueCks, key)
    var hi = lo
    while (hi < uniqueCks.length && Ck.key(uniqueCks(hi)) == key) hi += 1
    java.util.Arrays.copyOfRange(uniqueCks, lo, hi)
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
      bytes += (if (parentOf(ck) >= 0) RecordModel.diffSize(ck, spec)
                else RecordModel.size(ck, spec))
    }
    bytes + d.dels.length.toLong * RecordModel.TombstoneSize
  }

  /** JSON payload of a record (correctness tests). */
  def payload(ck: Long): String = RecordModel.payload(ck, spec, parentOf)

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
}

object VersionedDataset {
  private final class Rows(val keys: Array[Array[Long]], val items: Array[Array[Int]])
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
