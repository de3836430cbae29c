package repro.core

import scala.collection.mutable

/** Input to the partitioning algorithms (§2.5).
  *
  * Items are dense ids `0 until numItems`; they are raw records when k=1 or
  * sub-chunks when record-level compression is enabled (§3.4). In both cases
  * the algorithms only need the version tree, per-version item membership,
  * and per-item sizes.
  *
  * @param members per version: member item ids, sorted ascending
  */
final case class PartitionInput(
    tree: VersionTree,
    members: Array[Array[Int]],
    itemSizes: Array[Long],
) {
  require(members.length == tree.size)
  def numItems: Int = itemSizes.length

  /** Items present in `v` but not its parent (the delta's additions);
    * for the root, all of its members.
    */
  def adds(v: Int): Array[Int] =
    if (v == 0) members(0)
    else {
      val p = members(tree.parent(v)); val c = members(v)
      val out = new mutable.ArrayBuilder.ofInt
      var i = 0; var j = 0
      while (j < c.length) {
        if (i < p.length && p(i) == c(j)) { i += 1; j += 1 }
        else if (i < p.length && p(i) < c(j)) i += 1
        else { out.addOne(c(j)); j += 1 }
      }
      out.result()
    }
}

/** An item→chunk assignment produced by a partitioner. */
final case class Assignment(itemChunk: Array[Int], numChunks: Int) {
  require({
    var i = 0
    while (i < itemChunk.length && itemChunk(i) >= 0 && itemChunk(i) < numChunks) i += 1
    i == itemChunk.length
  }, "dangling chunk id")

  def chunkBytes(itemSizes: Array[Long]): Array[Long] = {
    val b = new Array[Long](numChunks)
    var i = 0
    while (i < itemChunk.length) { b(itemChunk(i)) += itemSizes(i); i += 1 }
    b
  }
}

/** Fixed-capacity sequential chunk filler (§2.5's fixed-chunk-size rule):
  * items are appended to the open chunk while it is below `capacity`; an
  * item opens a new chunk when the open one is already at/over capacity,
  * or when adding it would push the open one past the paper's 25 % slack
  * (`1.25·capacity`). So no chunk exceeds `1.25·capacity`, and an item
  * larger than that is rejected.
  */
final class ChunkBuilder(capacity: Long, numItems: Int) {
  val itemChunk: Array[Int] = new Array[Int](numItems)
  java.util.Arrays.fill(itemChunk, -1)
  private val limit = capacity + capacity / 4
  private var bytes = new Array[Long](16) // per chunk; the first `chunks` are in use
  private var chunks = 0
  private var cur = -1

  private def open(): Unit = {
    if (chunks == bytes.length) bytes = java.util.Arrays.copyOf(bytes, 2 * chunks)
    cur = chunks
    chunks += 1
  }

  // `add` throws rather than `require`s: a by-name message is a closure per call
  def add(item: Int, size: Long): Unit = {
    if (itemChunk(item) != -1) throw new IllegalArgumentException(s"item $item assigned twice")
    if (size > limit)
      throw new IllegalArgumentException(s"item $item is $size B, larger than the 1.25·C chunk limit of $limit B")
    if (cur == -1 || bytes(cur) >= capacity || bytes(cur) + size > limit) open()
    itemChunk(item) = cur
    bytes(cur) += size
  }

  /** Close the open chunk so the next `add` starts a fresh one; returns the
    * (chunkId, bytes) of the closed chunk if it was non-empty and below
    * capacity — the "partial chunk" the BOTTOM-UP algorithm merges later.
    */
  def sealPartial(): Option[(Int, Long)] = {
    val out = if (cur >= 0 && bytes(cur) > 0 && bytes(cur) < capacity) Some((cur, bytes(cur))) else None
    cur = -1
    out
  }

  def numChunks: Int = chunks

  /** Bytes in the currently open chunk (0 if none). */
  def openBytes: Long = if (cur == -1) 0L else bytes(cur)

  private def requireAssigned(): Unit = {
    var i = 0
    while (i < numItems && itemChunk(i) >= 0) i += 1
    require(i == numItems, "unassigned items remain")
  }

  def result(): Assignment = {
    requireAssigned()
    Assignment(itemChunk, chunks)
  }

  /** Merge the given partial chunks by relabeling their chunk ids, then
    * compact ids — the fragmentation cleanup at the end of §3.2. The
    * returned assignment shares `itemChunk`, relabelled in place.
    *
    * Partials are merged in *creation order*: the caller produces them
    * during a post-order traversal, so consecutive partials hold records of
    * tree-adjacent versions and merging neighbours preserves locality. A
    * size-ordered bin packing (e.g. first-fit decreasing) would mix records
    * of unrelated versions into one chunk and inflate every span that
    * touches it.
    */
  def mergePartialsAndResult(partials: Seq[(Int, Long)]): Assignment = {
    requireAssigned()
    // each chunk's target: itself, or the first partial of its merge group
    val target = Array.range(0, chunks)
    var head = -1
    var groupBytes = 0L
    for ((cid, sz) <- partials) {
      if (head != -1 && groupBytes + sz <= limit) { target(cid) = head; groupBytes += sz }
      else { head = cid; groupBytes = sz }
    }
    // compact chunk ids: a surviving chunk's new id is its rank by old id
    val compact = new Array[Int](chunks)
    java.util.Arrays.fill(compact, -1)
    var next = 0
    var c = 0
    while (c < chunks) {
      if (compact(target(c)) == -1) { compact(target(c)) = next; next += 1 }
      c += 1
    }
    var i = 0
    while (i < numItems) { itemChunk(i) = compact(target(itemChunk(i))); i += 1 }
    Assignment(itemChunk, next)
  }
}

/** A partitioning algorithm: assigns every item to a chunk of ≈`capacity`
  * bytes, minimizing version spans (§2.5's optimization problem).
  */
trait Partitioner {
  def name: String
  def partition(in: PartitionInput, capacity: Long): Assignment
}

/** Span computation — the paper's retrieval-cost metric: the number of
  * distinct chunks holding at least one member item of a version.
  */
object Span {

  /** The sorted distinct images of rows under a map `f` with non-negative
    * values. One stamp array over f's range serves every row: the r-th call
    * tags the values it meets with r + 1, so the array is never cleared.
    * A row's distinct values are kept in order of first appearance and
    * sorted only when they do not already arrive ascending.
    */
  final class Images(f: Array[Int]) {
    private val range = maxImage() + 1
    private val stamp = new Array[Int](range)
    private val buf = new Array[Int](range)
    private var tag = 0

    /** The sorted distinct image of `xs(from until until)` under `f`. */
    def apply(xs: Array[Int], from: Int, until: Int): Array[Int] = {
      tag += 1
      var n = 0
      var ascending = true
      var i = from
      while (i < until) {
        val c = f(xs(i))
        if (stamp(c) != tag) {
          stamp(c) = tag
          if (n > 0 && c < buf(n - 1)) ascending = false
          buf(n) = c
          n += 1
        }
        i += 1
      }
      val out = java.util.Arrays.copyOf(buf, n)
      if (!ascending) java.util.Arrays.sort(out)
      out
    }

    def apply(xs: Array[Int]): Array[Int] = apply(xs, 0, xs.length)

    /** The largest value of `f`, or −1; a method, since the JIT cannot
      * compile a loop in a field initialiser on-stack.
      */
    private def maxImage(): Int = {
      var max = -1
      var i = 0
      while (i < f.length) { max = math.max(max, f(i)); i += 1 }
      max
    }
  }

  /** Per row of `members`, its sorted distinct image under `f`. With
    * versions' member items and an item→chunk map, the chunks each version
    * spans; with a record→sub-chunk map, the sub-chunks each touches.
    */
  def images(members: Array[Array[Int]], f: Array[Int]): Array[Array[Int]] = {
    val im = new Images(f)
    members.map(im(_))
  }

  def perVersion(members: Array[Array[Int]], a: Assignment): Array[Int] =
    images(members, a.itemChunk).map(_.length)

  def total(members: Array[Array[Int]], a: Assignment): Long =
    perVersion(members, a).map(_.toLong).sum
}
