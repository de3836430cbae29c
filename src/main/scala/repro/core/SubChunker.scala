package repro.core

import repro.data.RecordModel

import scala.collection.mutable

/** Result of sub-chunk construction for a dataset at a given `k` (§3.4).
  *
  * @param recordSc      dataset item id (record) → sub-chunk id
  * @param scRepCk       sub-chunk → representative composite key (its
  *                      root-most record, as in Fig 7c)
  * @param scSizes       compressed sub-chunk sizes (head record in full,
  *                      the rest delta-encoded against in-group parents)
  * @param scMembersOrig per *original* version: sorted distinct sub-chunk
  *                      ids — retrieval spans are evaluated against these
  * @param input         partitioning input over the *transformed* version
  *                      tree (duplicate versions removed, Fig 7b)
  * @param rawBytes      total uncompressed record bytes
  */
final case class SubChunking(
    recordSc: Array[Int],
    scRepCk: Array[Long],
    scSizes: Array[Long],
    scMembersOrig: Array[Array[Int]],
    input: PartitionInput,
    rawBytes: Long,
) {
  def numSubChunks: Int = scRepCk.length
  def compressedBytes: Long = java.util.Arrays.stream(scSizes).sum
  def compressionRatio: Double = rawBytes.toDouble / compressedBytes
}

/** Builds sub-chunks: groups of ≤k records sharing a primary key whose
  * origin versions are *connected* in the version tree (so every non-root
  * member can be delta-encoded against an in-group parent), then derives
  * the transformed version tree on which the partitioning algorithms run.
  *
  * The grouping walks each key's lineage forest bottom-up, delaying
  * grouping until k records are gathered (the spirit of Algorithm 5:
  * children's sets are unioned at their parent and the largest sets are
  * emitted when the budget k is exceeded).
  */
object SubChunker {

  def build(ds: VersionedDataset, k: Int): SubChunking = {
    require(k >= 1)
    val cks = ds.uniqueCks
    // at k = 1 every record is its own sub-chunk
    val (recordSc, reps, sizes) =
      if (k == 1) {
        val sizes = new Array[Long](cks.length)
        var i = 0
        while (i < cks.length) { sizes(i) = RecordModel.subChunkCompressedSize(cks(i), Nil, ds.spec); i += 1 }
        (Array.range(0, cks.length), cks, sizes)
      } else groupByLineage(ds, k)

    // per original version: distinct sub-chunks touched; at k = 1 the
    // identity image of a sorted, distinct row is the row itself
    val scMembersOrig: Array[Array[Int]] =
      if (k == 1) ds.membersItems else Span.images(ds.membersItems, recordSc)

    // transformed tree: drop versions whose sub-chunk set equals the
    // parent's (Fig 7's duplicate deletion); reattach to the nearest kept
    // ancestor
    val keep = new Array[Boolean](ds.tree.size)
    keep(0) = true
    for (v <- 1 until ds.tree.size)
      keep(v) = !java.util.Arrays.equals(scMembersOrig(v), scMembersOrig(ds.tree.parent(v)))
    val newId = new Array[Int](ds.tree.size)
    java.util.Arrays.fill(newId, -1)
    var next = 0
    for (v <- 0 until ds.tree.size) if (keep(v)) { newId(v) = next; next += 1 }
    val keptAncestor = new Array[Int](ds.tree.size) // nearest kept ancestor incl. self
    keptAncestor(0) = 0
    for (v <- 1 until ds.tree.size)
      keptAncestor(v) = if (keep(v)) v else keptAncestor(ds.tree.parent(v))
    val tParent = new Array[Int](next)
    tParent(0) = -1
    val tMembers = new Array[Array[Int]](next)
    for (v <- 0 until ds.tree.size) if (keep(v)) {
      if (v != 0) tParent(newId(v)) = newId(keptAncestor(ds.tree.parent(v)))
      tMembers(newId(v)) = scMembersOrig(v)
    }

    SubChunking(
      recordSc = recordSc,
      scRepCk = reps,
      scSizes = sizes,
      scMembersOrig = scMembersOrig,
      input = PartitionInput(new VersionTree(tParent), tMembers, sizes),
      rawBytes = java.util.Arrays.stream(ds.itemSizes).sum,
    )
  }

  /** Connected groups of ≤k records per key (k > 1): record → sub-chunk,
    * and per sub-chunk its representative ck and compressed size.
    */
  private def groupByLineage(ds: VersionedDataset, k: Int): (Array[Int], Array[Long], Array[Long]) = {
    val cks = ds.uniqueCks
    val n = cks.length
    val recordSc = new Array[Int](n)
    java.util.Arrays.fill(recordSc, -1)
    val reps = mutable.ArrayBuffer.empty[Long]
    val sizes = mutable.ArrayBuffer.empty[Long]

    def emit(group: Seq[Int]): Unit = {
      // root-most member: the one whose origin has minimal tree depth
      val root = group.minBy(i => (ds.tree.depth(Ck.version(cks(i))), cks(i)))
      val sc = reps.length
      group.foreach(recordSc(_) = sc)
      reps += cks(root)
      sizes += RecordModel.subChunkCompressedSize(
        cks(root), group.filterNot(_ == root).map(cks(_)), ds.spec)
    }

    // per-key lineage forest; uniqueCks is sorted by key, so records of a
    // key are a contiguous range
    var lo = 0
    while (lo < n) {
      var hi = lo
      val key = Ck.key(cks(lo))
      while (hi < n && Ck.key(cks(hi)) == key) hi += 1
      groupKey(ds, cks, lo, hi, k, emit)
      lo = hi
    }
    require(recordSc.forall(_ >= 0), "record left without a sub-chunk")
    (recordSc, reps.toArray, sizes.toArray)
  }

  /** Group the records of one key (items `lo until hi`) into connected
    * sub-chunks of ≤k, walking the lineage forest bottom-up.
    */
  private def groupKey(ds: VersionedDataset, cks: Array[Long], lo: Int, hi: Int,
                       k: Int, emit: Seq[Int] => Unit): Unit = {
    val idx = mutable.LongMap.empty[Int] // ck -> item id
    for (i <- lo until hi) idx(cks(i)) = i
    val children = mutable.HashMap.empty[Int, List[Int]]
    val rootsB = mutable.ArrayBuffer.empty[Int]
    for (i <- lo until hi) {
      ds.lineage(cks(i)).flatMap(idx.get) match {
        case Some(p) => children(p) = i :: children.getOrElse(p, Nil)
        case None    => rootsB += i
      }
    }
    // bottom-up accumulation: pend(u) = connected group containing u not yet
    // emitted; children's pends are merged largest-first while ≤ k
    val pend = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
    def visit(u: Int): Unit = {
      children.getOrElse(u, Nil).foreach(visit)
      val bag = mutable.ArrayBuffer(u)
      val kids = children.getOrElse(u, Nil)
        .flatMap(pend.remove) // children that hit k already emitted their bag
        .sortBy(b => (-b.length, cks(b.head)))
      kids.foreach { kb =>
        if (bag.length + kb.length <= k) bag ++= kb
        else emit(kb.toSeq)
      }
      if (bag.length >= k) emit(bag.toSeq) else pend(u) = bag
    }
    rootsB.foreach { r => visit(r); pend.remove(r).foreach(b => emit(b.toSeq)) }
  }
}
