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

    // items in (origin version, id) order; a batch sorts on this rank
    val origin = new Array[Int](in.numItems)
    for (v <- 0 until tree.size; it <- in.adds(v)) origin(it) = v
    val byRank = Array.tabulate(in.numItems)(it => origin(it).toLong << 32 | it).sorted.map(_.toInt)
    val rank = new Array[Int](in.numItems)
    for (r <- byRank.indices) rank(byRank(r)) = r

    /** Batch order: decreasing run, dying before surviving, then rank. */
    def sortKey(run: Int, surviving: Boolean, item: Int): Long =
      (Int.MaxValue - run).toLong << 32 | (if (surviving) 1L << 31 else 0L) | rank(item)

    val runs = new Array[Array[Int]](tree.size) // π_v, until the parent folds it in
    val dyingRun = new Array[Int](in.numItems) // summed runs of records dying at v; 0 otherwise
    val batches = new Array[Array[Int]](tree.size)

    tree.postOrder.foreach { v =>
      val mem = in.members(v)
      val run = Array.fill(mem.length)(1)
      val dying = mutable.ArrayBuilder.make[Int]
      tree.children(v).foreach { c =>
        val cm = in.members(c); val cr = runs(c)
        var i = 0; var j = 0
        while (j < cm.length) {
          while (i < mem.length && mem(i) < cm(j)) i += 1
          if (i < mem.length && mem(i) == cm(j)) run(i) += cr(j)
          else { if (dyingRun(cm(j)) == 0) dying += cm(j); dyingRun(cm(j)) += cr(j) }
          j += 1
        }
        runs(c) = null
      }
      if (beta != Int.MaxValue) limitRuns(run)

      val batch = mutable.ArrayBuilder.make[Long]
      dying.result().foreach { it => batch += sortKey(dyingRun(it), surviving = false, it); dyingRun(it) = 0 }
      if (v == 0) mem.indices.foreach(i => batch += sortKey(run(i), surviving = true, mem(i)))
      else runs(v) = run
      val keys = batch.result()
      java.util.Arrays.sort(keys)
      if (keys.nonEmpty) batches(v) = keys.map(k => byRank((k & Int.MaxValue).toInt))
    }

    // Emit batches in pre-order of their finalize version; a batch starts a
    // fresh chunk *when the leftover partial could still be merged away*
    // (≤ half the 1.25·C slack limit). A partial in (0.625·C, C) can never
    // merge under the slack bound, so sealing there would freeze a
    // fragmented chunk — instead the next batch keeps filling it.
    val cb = new ChunkBuilder(capacity, in.numItems)
    val partials = mutable.ArrayBuffer.empty[(Int, Long)]
    val mergeable = (capacity + capacity / 4) / 2
    tree.dfsOrder.foreach { v =>
      val items = batches(v)
      if (items != null) {
        items.foreach(it => cb.add(it, in.itemSizes(it)))
        if (cb.openBytes <= mergeable) cb.sealPartial().foreach(partials += _)
      }
    }
    cb.mergePartialsAndResult(partials.toSeq)
  }

  /** Reduce π_v to at most β distinct run counts (§3.2.1). Merges follow
    * chains (2→1, then 1→3), so each merged count is resolved to where its
    * chain ends before π_v is relabelled.
    */
  private def limitRuns(run: Array[Int]): Unit = {
    val hist = mutable.TreeMap.empty[Int, Int] // run count → number of records
    run.foreach(r => hist(r) = hist.getOrElse(r, 0) + 1)
    val into = mutable.HashMap.empty[Int, Int] // merged count → count it merged into
    while (hist.size > beta) {
      val m = hist.minBy(_._2)._1 // fewest records; the lowest such count
      val t = hist.maxBefore(m).getOrElse(hist.minAfter(m + 1).get)._1
      hist(t) += hist.remove(m).get
      into(m) = t
    }
    if (into.nonEmpty) {
      def resolve(c: Int): Int = into.get(c).fold(c)(resolve)
      val to = Array.tabulate(run.max + 1)(resolve)
      for (i <- run.indices) run(i) = to(run(i))
    }
  }
}
