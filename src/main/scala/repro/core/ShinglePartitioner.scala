package repro.core

/** Shingle (min-hash) based partitioning (§3.1, Algorithms 1–2).
  *
  * For each item, the set of versions it belongs to is summarized by `l`
  * min-hashes; sorting items lexicographically by their shingle vectors
  * places items with similar version sets next to each other, and the
  * sorted order is fed to the sequential chunk filler.
  *
  * `partition` computes and sorts the shingles on the driver (`driverOrder`):
  * at the scales run here that is more than an order of magnitude faster
  * than shipping the (item, version) relation to Spark. `ShingleSpec`
  * cross-checks it against the same order computed in SQL by `repro.Oracle`.
  */
final class ShinglePartitioner(val numShingles: Int = 4, val seed: Long = 0x5417L)
    extends Partitioner {
  override val name: String = "Shingle"

  /** Only for perfbench, which still passes a session; the benchmark change
    * that stops perfbench from starting Spark deletes this constructor.
    */
  def this(session: org.apache.spark.sql.SparkSession) = this()

  /** Items in shingle sort-order, computed on the driver.
    *
    * The shingles live in one flat array, `l` per item. The lexicographic
    * order (shingles, then item id) comes from one stable pass per shingle,
    * last to first, starting from item order: each pass ranks the items'
    * shingles and counting-sorts the current order by rank.
    */
  def driverOrder(in: PartitionInput): Array[Int] = {
    val n = in.numItems
    val l = numShingles
    // shingles(item·l + i) = min-hash h_i over the versions holding the item
    val shingles = new Array[Long](n * l)
    java.util.Arrays.fill(shingles, Long.MaxValue)
    val h = new Array[Long](l)
    var v = 0
    while (v < in.members.length) {
      var i = 0
      while (i < l) { h(i) = Hash64(v.toLong, seed + i); i += 1 }
      val row = in.members(v)
      var j = 0
      while (j < row.length) {
        val base = row(j) * l
        i = 0
        while (i < l) { if (h(i) < shingles(base + i)) shingles(base + i) = h(i); i += 1 }
        j += 1
      }
      v += 1
    }
    var order = Array.range(0, n)
    var next = new Array[Int](n)
    val column = new Array[Long](n)
    val ranks = new Array[Int](n)
    val count = new Array[Int](n + 1)
    var i = l - 1
    while (i >= 0) {
      var p = 0
      while (p < n) { column(p) = shingles(p * l + i); p += 1 }
      java.util.Arrays.sort(column)
      java.util.Arrays.fill(count, 0)
      p = 0
      while (p < n) {
        // a search of the same sorted column finds one index per value,
        // and a larger value a larger index
        val rank = java.util.Arrays.binarySearch(column, shingles(order(p) * l + i))
        ranks(p) = rank
        count(rank + 1) += 1
        p += 1
      }
      // a stable counting sort by rank: positions of equal rank keep their
      // order. `Arrays.sort` of packed (rank, position) keys gives the same
      // order, but its compiled form depends on its other callers: it took
      // 1.6-9 ms of a second ingest, where this takes 0.3 ms.
      var r = 0
      while (r < n) { count(r + 1) += count(r); r += 1 }
      p = 0
      while (p < n) { next(count(ranks(p))) = order(p); count(ranks(p)) += 1; p += 1 }
      val t = order; order = next; next = t
      i -= 1
    }
    order
  }

  override def partition(in: PartitionInput, capacity: Long): Assignment = {
    val order = driverOrder(in)
    val cb = new ChunkBuilder(capacity, in.numItems)
    var p = 0
    while (p < order.length) { cb.add(order(p), in.itemSizes(order(p))); p += 1 }
    cb.result()
  }
}
