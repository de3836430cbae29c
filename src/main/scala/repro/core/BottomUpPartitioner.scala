package repro.core

import scala.collection.mutable

/** BOTTOM-UP partitioning (§3.2, Algorithm 3).
  *
  * The tree is processed in post-order. Every processed version `v` passes
  * its parent π_v: for each of v's records, its *consecutive-version run
  * count* — how many versions below (and including) `v` contain it. π_v is
  * one `Int` array aligned with `members(v)`. The parent starts its own at
  * 1 per record and folds each child's array in with one sorted walk over
  * the two member arrays, so the runs of a record arriving from several
  * children are summed (the paper's general-tree rule).
  *
  * A child record absent from the parent can never appear again higher up
  * (a record only lives in descendants of its origin), so it is finalized
  * at the parent with its summed run. A version's finalized records form
  * one batch, sorted by decreasing run, then origin version (keeping a
  * branch region's records adjacent inside a run), then item id; at the
  * root every surviving record joins the batch, after the dying records of
  * equal run.
  *
  * Batches are *computed* bottom-up but *emitted* at the finalize version's
  * pre-order position: a version's span is the set of chunks holding its
  * ancestors' records, and pre-order lays each root-to-leaf path
  * contiguously. A batch starts a fresh chunk only when the leftover partial
  * could still be merged away; partial chunks are merged at the very end,
  * neighbours in creation order (`ChunkBuilder.mergePartialsAndResult`), to
  * curb fragmentation.
  *
  * The β knob (§3.2.1) bounds the number of distinct run counts a version
  * may return: on the run-count histogram, the count held by the fewest
  * records is merged into its next-lower neighbour (the next-higher, for
  * the lowest), until β counts remain; one pass then relabels π_v —
  * cheaper processing, coarser ordering.
  */
final class BottomUpPartitioner(beta: Int = Int.MaxValue) extends Partitioner {
  require(beta >= 1)
  override val name: String = if (beta == Int.MaxValue) "BottomUp" else s"BottomUp(beta=$beta)"

  override def partition(in: PartitionInput, capacity: Long): Assignment = {
    val tree = in.tree
    val n = in.numItems

    val runs = new Array[Array[Int]](tree.size) // π_v, until the parent folds it in
    val dyingRun = new Array[Int](n) // summed runs of records dying at v; 0 otherwise
    val batches = new Array[Array[Int]](tree.size)
    val dying = new mutable.ArrayBuilder.ofInt
    val post = tree.postOrder

    var at = 0
    while (at < post.length) {
      val v = post(at)
      val mem = in.members(v)
      val run = new Array[Int](mem.length)
      java.util.Arrays.fill(run, 1)
      // Children come in increasing id order and each child's records in
      // id order, so `dying` lists v's dying records by (origin, id): a child
      // record absent from v originated at that child.
      dying.clear()
      for (c <- tree.children(v)) {
        val cm = in.members(c); val cr = runs(c)
        var i = 0; var j = 0
        while (j < cm.length) {
          while (i < mem.length && mem(i) < cm(j)) i += 1
          if (i < mem.length && mem(i) == cm(j)) run(i) += cr(j)
          else { if (dyingRun(cm(j)) == 0) dying.addOne(cm(j)); dyingRun(cm(j)) += cr(j) }
          j += 1
        }
        runs(c) = null
      }
      if (beta != Int.MaxValue) limitRuns(run)

      // The batch: v's dying records, then at the root its surviving ones
      // (origin 0, in id order). A sort key is the decreasing run over the
      // record's position in that list, so equal runs keep the list order.
      val dead = dying.result()
      val keys = new Array[Long](dead.length + (if (v == 0) mem.length else 0))
      var k = 0
      while (k < dead.length) {
        keys(k) = sortKey(dyingRun(dead(k)), k); dyingRun(dead(k)) = 0; k += 1
      }
      if (v == 0) {
        var i = 0
        while (i < mem.length) { keys(k) = sortKey(run(i), k); k += 1; i += 1 }
      } else runs(v) = run
      if (keys.nonEmpty) {
        java.util.Arrays.sort(keys)
        val items = new Array[Int](keys.length)
        k = 0
        while (k < keys.length) {
          val pos = keys(k).toInt // the low half
          items(k) = if (pos < dead.length) dead(pos) else mem(pos - dead.length)
          k += 1
        }
        batches(v) = items
      }
      at += 1
    }

    // Emit batches in pre-order of their finalize version; a batch starts a
    // fresh chunk *when the leftover partial could still be merged away*
    // (≤ half the 1.25·C slack limit). A partial in (0.625·C, C) can never
    // merge under the slack bound, so sealing there would freeze a
    // fragmented chunk — instead the next batch keeps filling it.
    val cb = new ChunkBuilder(capacity, n)
    val partials = mutable.ArrayBuffer.empty[(Int, Long)]
    val mergeable = (capacity + capacity / 4) / 2
    val pre = tree.dfsOrder
    at = 0
    while (at < pre.length) {
      val items = batches(pre(at))
      if (items != null) {
        var i = 0
        while (i < items.length) { cb.add(items(i), in.itemSizes(items(i))); i += 1 }
        if (cb.openBytes <= mergeable) cb.sealPartial().foreach(partials += _)
      }
      at += 1
    }
    cb.mergePartialsAndResult(partials.toSeq)
  }

  /** Batch order: decreasing run, then position in the batch's list. */
  private def sortKey(run: Int, position: Int): Long = (Int.MaxValue - run).toLong << 32 | position

  /** Reduce π_v to at most β distinct run counts (§3.2.1). Merges follow
    * chains (2→1, then 1→3), so each merged count is resolved to where its
    * chain ends before π_v is relabelled.
    */
  private def limitRuns(run: Array[Int]): Unit = {
    var max = 0
    var i = 0
    while (i < run.length) { max = math.max(max, run(i)); i += 1 }
    val counts = new Array[Int](max + 1) // run count → number of records
    i = 0
    while (i < run.length) { counts(run(i)) += 1; i += 1 }
    val hist = mutable.TreeMap.empty[Int, Int] // the same, over the counts present
    for (r <- counts.indices if counts(r) > 0) hist(r) = counts(r)
    val into = mutable.HashMap.empty[Int, Int] // merged count → count it merged into
    while (hist.size > beta) {
      val m = hist.minBy(_._2)._1 // fewest records; the lowest such count
      val t = hist.maxBefore(m).getOrElse(hist.minAfter(m + 1).get)._1
      hist(t) += hist.remove(m).get
      into(m) = t
    }
    if (into.nonEmpty) {
      def resolve(c: Int): Int = into.get(c).fold(c)(resolve)
      val to = new Array[Int](counts.length)
      for (c <- to.indices) to(c) = resolve(c)
      i = 0
      while (i < run.length) { run(i) = to(run(i)); i += 1 }
    }
  }
}
