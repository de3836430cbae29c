package repro.core

import scala.collection.mutable

/** BOTTOM-UP partitioning (§3.2, Algorithm 3).
  *
  * The tree is processed in post-order. Every processed version `v` passes
  * its parent a collection π_v of record sets keyed by *consecutive-version
  * run count*: how many versions below (and including) `v` contain the
  * record. Following the paper's general-tree rule, counts of a record
  * arriving from several children are summed before adding v's own +1.
  *
  * When the parent is processed, records present in π but absent from the
  * parent's membership can never appear again higher up (a record only
  * lives in descendants of its origin), so they are finalized: chunked in
  * decreasing run-count order, starting a fresh chunk per finalization
  * step so that highly-shared records are not split across chunks. Partial
  * chunks left over by those steps are merged at the very end, neighbours
  * in creation order (`ChunkBuilder.mergePartialsAndResult`), to curb
  * fragmentation.
  *
  * The β knob (§3.2.1) bounds the number of distinct run-count sets a
  * version may return, merging the smallest sets into their neighbour with
  * the next-lower count — cheaper processing, coarser ordering.
  */
final class BottomUpPartitioner(beta: Int = Int.MaxValue) extends Partitioner {
  require(beta >= 1)
  override val name: String = if (beta == Int.MaxValue) "BottomUp" else s"BottomUp(beta=$beta)"

  override def partition(in: PartitionInput, capacity: Long): Assignment = {
    val tree = in.tree

    // item origin: the version where the item first appears — used to keep
    // records of the same branch region adjacent inside a run-count group,
    // so versions of one branch don't pay for chunks full of sibling-branch
    // records that happen to share a summed count
    val itemOrigin = new Array[Int](in.numItems)
    for (v <- 0 until tree.size; it <- in.adds(v)) itemOrigin(it) = v

    // Finalization batches are *computed* bottom-up but *emitted* at the
    // finalize version's pre-order position: a version's span is the set of
    // chunks holding its ancestors' records, and pre-order lays each
    // root-to-leaf path contiguously (post-order emission would separate a
    // parent's records from its first subtree by all sibling subtrees).
    val batches = new Array[List[(Int, Array[Int])]](tree.size) // count-desc groups

    /** Record a finalization batch for version v: groups of items by
      * decreasing run count (then by origin within a group).
      */
    def chunkBatch(v: Int, byCount: Iterator[(Int, Array[Int])]): Unit = {
      val groups = byCount.map { case (c, items) =>
        (c, items.sortBy(it => (itemOrigin(it), it)))
      }.toList
      if (groups.exists(_._2.nonEmpty)) batches(v) = groups
    }

    /** Reduce a count→items map to at most β distinct counts by merging the
      * smallest group into the next-lower surviving count (§3.2.1).
      */
    def limitSets(pi: mutable.LongMap[Int], counts: mutable.SortedMap[Int, Int]): Unit = {
      // counts: run count -> number of items with that count
      while (counts.size > beta) {
        val mergeCount = counts.minBy(_._2)._1 // group with fewest items
        // merge the smallest group into its lower neighbour (or upper, for the lowest group)
        val keys = counts.keys.toIndexedSeq
        val pos = keys.indexOf(mergeCount)
        val target = if (pos > 0) keys(pos - 1) else keys(pos + 1)
        pi.foreachEntry((item, c) => if (c == mergeCount) pi(item) = target)
        counts(target) = counts(target) + counts(mergeCount)
        counts.remove(mergeCount)
      }
    }

    // π maps item -> run count. Processed in post-order; children's results
    // are stored until their parent consumes them.
    val pending = new Array[mutable.LongMap[Int]](tree.size)

    tree.postOrder.foreach { v =>
      val mem = in.members(v)
      def inV(item: Int): Boolean = java.util.Arrays.binarySearch(mem, item) >= 0

      // collect children's sets, summing counts of duplicates (§3.2 trees)
      val collected = mutable.LongMap.empty[Int]
      tree.children(v).foreach { c =>
        pending(c).foreachEntry { (item, cnt) =>
          collected(item) = collected.getOrElse(item, 0) + cnt
        }
        pending(c) = null // free
      }

      // finalize records that die below v: present in children, absent in v
      val dead = mutable.LongMap.empty[mutable.ArrayBuffer[Int]]
      val pi = mutable.LongMap.empty[Int]
      collected.foreachEntry { (item, cnt) =>
        if (inV(item.toInt)) pi(item) = cnt + 1
        else dead.getOrElseUpdate(cnt.toLong, mutable.ArrayBuffer.empty) += item.toInt
      }
      chunkBatch(v, dead.toSeq.sortBy(-_._1).iterator.map { case (c, b) => (c.toInt, b.toArray) })

      // records of v seen by no child get run count 1
      mem.foreach(item => if (!pi.contains(item.toLong)) pi(item.toLong) = 1)

      if (beta != Int.MaxValue) {
        val counts = mutable.SortedMap.empty[Int, Int]
        pi.foreachEntry((_, c) => counts(c) = counts.getOrElse(c, 0) + 1)
        limitSets(pi, counts)
      }

      if (v == 0) {
        // the root: everything still alive is finalized here. Its batch is
        // merged with any records dying at the root into one root batch.
        val alive = mutable.LongMap.empty[mutable.ArrayBuffer[Int]]
        pi.foreachEntry((item, cnt) => alive.getOrElseUpdate(cnt.toLong, mutable.ArrayBuffer.empty) += item.toInt)
        val rootGroups = alive.toSeq.iterator.map { case (c, b) =>
          (c.toInt, b.toArray.sortBy(it => (itemOrigin(it), it)))
        }
        // one root batch, dying and surviving groups in decreasing count order
        batches(0) = (Option(batches(0)).getOrElse(Nil) ++ rootGroups.toList).sortBy(-_._1)
      } else pending(v) = pi
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
      val groups = batches(v)
      if (groups != null) {
        groups.foreach { case (_, items) =>
          items.foreach(it => cb.add(it, in.itemSizes(it)))
        }
        if (cb.openBytes <= mergeable) cb.sealPartial().foreach(partials += _)
      }
    }
    cb.mergePartialsAndResult(partials.toSeq)
  }
}
