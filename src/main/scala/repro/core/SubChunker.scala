package repro.core

import repro.data.RecordModel

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
    // at k = 1 every record is its own sub-chunk. The raw bytes are summed
    // where each record's size is computed anyway, not by a pass over
    // `ds.itemSizes`: such a pass runs once per dataset, too few times on
    // 43 K records for the JIT to compile it before a second ingest, which
    // then spent 2-20 ms on it (0.7 ms compiled).
    val (recordSc, reps, sizes, rawBytes) =
      if (k == 1) {
        val sizes = new Array[Long](cks.length)
        var raw = 0L
        var i = 0
        while (i < cks.length) {
          sizes(i) = RecordModel.subChunkCompressedSize(cks(i), Nil, ds.spec)
          raw += RecordModel.size(cks(i), ds.spec)
          i += 1
        }
        (Array.range(0, cks.length), cks, sizes, raw)
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
      rawBytes = rawBytes,
    )
  }

  /** Connected groups of ≤k records per key (k > 1): record → sub-chunk,
    * per sub-chunk its representative ck and compressed size, and the
    * records' total uncompressed size.
    *
    * A record's lineage parent is searched only among the records of its
    * key (a contiguous range of `uniqueCks`); records without one there are
    * the roots of the key's lineage forest. Each root's tree is walked in
    * post-order, children in descending item order, with an explicit stack.
    * A pending bag (the connected group containing u not yet emitted) is a
    * linked list through `next` with its `tail` and `len` kept at u. At u,
    * its children's pending bags are merged largest-first (then lowest item)
    * while the bag stays ≤ k; a child bag that does not fit is emitted, and
    * so is u's bag once it reaches k or u is a root. Sub-chunk ids follow
    * emission order.
    */
  private def groupByLineage(ds: VersionedDataset, k: Int): (Array[Int], Array[Long], Array[Long], Long) = {
    val cks = ds.uniqueCks
    val n = cks.length
    // lineage parent within the key's range, or -1 for a root
    val parent = new Array[Int](n)
    var lo = 0
    while (lo < n) {
      val key = Ck.key(cks(lo))
      var hi = lo + 1
      while (hi < n && Ck.key(cks(hi)) == key) hi += 1
      var i = lo
      while (i < hi) {
        val p = ds.parentOf(cks(i))
        val j = if (p < 0) -1 else java.util.Arrays.binarySearch(cks, lo, hi, p)
        parent(i) = if (j < 0) -1 else j
        i += 1
      }
      lo = hi
    }
    // CSR child lists, filled from the highest item down so each list is in
    // descending item order
    val start = new Array[Int](n + 1)
    var i = 0
    while (i < n) { if (parent(i) >= 0) start(parent(i) + 1) += 1; i += 1 }
    i = 0
    while (i < n) { start(i + 1) += start(i); i += 1 }
    val child = new Array[Int](start(n))
    val fill = java.util.Arrays.copyOf(start, n)
    i = n - 1
    while (i >= 0) {
      val p = parent(i)
      if (p >= 0) { child(fill(p)) = i; fill(p) += 1 }
      i -= 1
    }

    val recordSc = new Array[Int](n)
    val reps = new Array[Long](n)
    val sizes = new Array[Long](n)
    var numSc = 0
    var grouped = 0
    var raw = 0L
    val next = fill // reused: a bag's links; -1 ends it
    val tail = new Array[Int](n)
    val len = new Array[Int](n) // > 0 while the bag at u is pending
    val depth = ds.tree.depth
    val spec = ds.spec

    def emit(head: Int): Unit = {
      // the root-most member: minimal origin depth, then minimal ck
      var root = head
      var dr = depth(Ck.version(cks(head)))
      var u = next(head)
      while (u != -1) {
        val du = depth(Ck.version(cks(u)))
        if (du < dr || (du == dr && cks(u) < cks(root))) { root = u; dr = du }
        u = next(u)
      }
      // the root in full, the others as diffs
      var size = 16L * len(head)
      u = head
      while (u != -1) {
        recordSc(u) = numSc
        val s = RecordModel.size(cks(u), spec)
        raw += s
        size += (if (u == root) s else RecordModel.diffSizeOf(s, spec))
        u = next(u)
      }
      reps(numSc) = cks(root)
      sizes(numSc) = size
      numSc += 1
      grouped += len(head)
      len(head) = 0
    }

    // u's children are all visited: gather u's bag
    def post(u: Int): Unit = {
      next(u) = -1; tail(u) = u; len(u) = 1
      // the children with a pending bag, compacted into u's CSR slice
      // (no longer needed) and insertion-sorted by (length desc, item asc)
      val from = start(u)
      var m = from
      var c = from
      while (c < start(u + 1)) {
        val b = child(c)
        if (len(b) > 0) {
          var j = m
          while (j > from && (len(child(j - 1)) < len(b) || (len(child(j - 1)) == len(b) && child(j - 1) > b))) {
            child(j) = child(j - 1); j -= 1
          }
          child(j) = b
          m += 1
        }
        c += 1
      }
      c = from
      while (c < m) {
        val b = child(c)
        if (len(u) + len(b) <= k) {
          next(tail(u)) = b; tail(u) = tail(b); len(u) += len(b); len(b) = 0
        } else emit(b)
        c += 1
      }
      if (len(u) >= k || parent(u) == -1) emit(u)
    }

    // post-order from each root in item order; `cursor(u)` is the next of
    // u's children to visit
    val stack = new Array[Int](n)
    val cursor = tail // reused: a node's tail is set only at its post step
    var r = 0
    while (r < n) {
      if (parent(r) == -1) {
        var top = 0
        stack(0) = r; cursor(r) = start(r)
        while (top >= 0) {
          val u = stack(top)
          if (cursor(u) < start(u + 1)) {
            val c = child(cursor(u))
            cursor(u) += 1
            top += 1; stack(top) = c; cursor(c) = start(c)
          } else { post(u); top -= 1 }
        }
      }
      r += 1
    }
    if (grouped != n) throw new IllegalArgumentException("record left without a sub-chunk")
    (recordSc, java.util.Arrays.copyOf(reps, numSc), java.util.Arrays.copyOf(sizes, numSc), raw)
  }
}
