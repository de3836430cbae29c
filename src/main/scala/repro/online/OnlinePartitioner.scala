package repro.online

import repro.core._
import repro.data.RecordModel

/** Online partitioning (§4).
  *
  * New versions are not placed immediately: their deltas accumulate in a
  * *delta store* and, once `batchSize` versions are buffered, a background
  * pass runs the (adapted) BOTTOM-UP algorithm over just that batch. Only
  * records that *originated* inside the batch are placed — previously
  * partitioned records are never moved (the paper explicitly forgoes
  * repartitioning), and every batch opens fresh chunks.
  *
  * The adapted algorithm runs on the subtree induced by the batch versions:
  * batch versions keep their nearest in-batch ancestor as parent; subtrees
  * whose parent predates the batch hang off a synthetic empty root, and
  * each version's membership is restricted to batch-originated records —
  * so BOTTOM-UP orders the new records by how long they survive *within
  * the batch*, which is all the information available online. Records are
  * packed by the bytes the layout stores for them: each is a k = 1
  * sub-chunk, so its size includes the sub-chunk framing.
  */
final class OnlinePartitioner(ds: VersionedDataset, capacity: Long, batchSize: Int) {
  require(batchSize >= 1)

  /** State after ingesting a number of versions: `itemChunk` maps each
    * dataset item to its chunk, −1 while not placed yet. Spans are evaluated
    * with `Span.total` over the matching `ds.prefix(n)`, whose items map to
    * chunks as `Assignment(prefix.uniqueCks.map(ckChunk), numChunks)`.
    */
  final class State(val itemChunk: Array[Int], val numChunks: Int) {
    /** The chunk of a dataset record, −1 if it is not placed yet. */
    def ckChunk(ck: Long): Int = itemChunk(ds.itemOf(ck))
  }

  /** Ingest versions `0 until upTo` in batches and return the placement. */
  def run(upTo: Int): State = {
    require(upTo >= 1 && upTo <= ds.tree.size)
    val itemChunk = Array.fill(ds.uniqueCks.length)(-1)
    // dataset item id → local item id in the current batch, −1 outside it
    val local = Array.fill(ds.uniqueCks.length)(-1)
    var chunkBase = 0
    var b0 = 0
    while (b0 < upTo) {
      val b1 = math.min(b0 + batchSize, upTo)
      chunkBase += partitionBatch(b0, b1, local, itemChunk, chunkBase)
      b0 = b1
    }
    new State(itemChunk, chunkBase)
  }

  /** Partition the records originating in versions `[b0, b1)` into chunks
    * from `chunkBase` on, written to `itemChunk`; returns the batch's chunk
    * count. `local` is all −1 on entry and on return.
    */
  private def partitionBatch(b0: Int, b1: Int, local: Array[Int], itemChunk: Array[Int], chunkBase: Int): Int = {
    val batchLen = b1 - b0
    // new records of the batch, with dense local item ids
    val newCks: Array[Long] = {
      val out = Array.newBuilder[Long]
      var v = b0
      while (v < b1) { out ++= ds.deltas(v).adds; v += 1 }
      val arr = out.result()
      java.util.Arrays.sort(arr)
      arr
    }
    val newItems = newCks.map(ds.itemOf) // ascending: ck order is id order
    newItems.indices.foreach(i => local(newItems(i)) = i)

    // induced tree: local id 0 is a synthetic empty root; batch version v
    // maps to local id v-b0+1, parented to its nearest in-batch ancestor
    val parent = new Array[Int](batchLen + 1)
    parent(0) = -1
    var v = b0
    while (v < b1) {
      val p = ds.tree.parent(v)
      parent(v - b0 + 1) = if (p >= b0) p - b0 + 1 else 0
      v += 1
    }
    val members = new Array[Array[Int]](batchLen + 1)
    members(0) = Array.emptyIntArray
    v = b0
    while (v < b1) {
      // batch-originated records still live in v (sorted: ck order = id order)
      members(v - b0 + 1) = ds.membersItems(v).filter(local(_) >= 0).map(local)
      v += 1
    }
    newItems.foreach(local(_) = -1)
    val sizes = newCks.map(ck => RecordModel.subChunkCompressedSize(ck, Nil, ds.spec))
    val in = PartitionInput(new VersionTree(parent), members, sizes)
    val a = new BottomUpPartitioner().partition(in, capacity)
    newItems.indices.foreach(i => itemChunk(newItems(i)) = chunkBase + a.itemChunk(i))
    a.numChunks
  }
}
