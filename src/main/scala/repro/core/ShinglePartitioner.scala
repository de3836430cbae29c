package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Shingle (min-hash) based partitioning (§3.1, Algorithms 1–2).
  *
  * For each item, the set of versions it belongs to is summarized by `l`
  * min-hashes; sorting items lexicographically by their shingle vectors
  * places items with similar version sets next to each other, and the
  * sorted order is fed to the sequential chunk filler.
  *
  * `partition` computes and sorts the shingles on the driver (`driverOrder`):
  * at the scales run here that is more than an order of magnitude faster
  * than shipping the (item, version) relation to Spark. `sparkOrder`
  * expresses the same computation as a Spark DataFrame job (groupBy +
  * min-aggregates + orderBy, same hash family); it is kept only as an
  * independent cross-check that the tests compare against the driver order.
  */
final class ShinglePartitioner(spark: SparkSession, numShingles: Int = 4, seed: Long = 0x5417L)
    extends Partitioner {
  override val name: String = "Shingle"

  /** Items in shingle sort-order, computed with Spark (test cross-check). */
  def sparkOrder(in: PartitionInput): Array[Int] = {
    import spark.implicits._
    val rows: Seq[(Int, Int)] = (for {
      v <- in.members.indices.iterator
      item <- in.members(v).iterator
    } yield (item, v)).toSeq
    val df: DataFrame = rows.toDF("item", "version")
    val s = seed // local copy: the udf closure must not capture `this` (holds the session)
    val h = udf((v: Int, i: Int) => Hash64(v.toLong, s + i))
    val aggs = (0 until numShingles).map(i => min(h($"version", lit(i))).as(s"h$i"))
    val sortCols = (0 until numShingles).map(i => col(s"h$i")) :+ col("item")
    df.groupBy($"item")
      .agg(aggs.head, aggs.tail: _*)
      .orderBy(sortCols: _*)
      .select($"item")
      .as[Int]
      .collect()
  }

  /** Items in shingle sort-order, computed on the driver. */
  def driverOrder(in: PartitionInput): Array[Int] = {
    // shingles(item)(i) = min-hash h_i over the versions holding the item
    val shingles = Array.fill(in.numItems, numShingles)(Long.MaxValue)
    for (v <- in.members.indices; i <- 0 until numShingles) {
      val h = Hash64(v.toLong, seed + i)
      in.members(v).foreach(item => if (h < shingles(item)(i)) shingles(item)(i) = h)
    }
    val lex = new Ordering[Int] {
      def compare(a: Int, b: Int): Int = {
        var i = 0
        while (i < numShingles) {
          val c = java.lang.Long.compare(shingles(a)(i), shingles(b)(i))
          if (c != 0) return c
          i += 1
        }
        Integer.compare(a, b)
      }
    }
    (0 until in.numItems).toArray.sorted(lex)
  }

  override def partition(in: PartitionInput, capacity: Long): Assignment = {
    val order = driverOrder(in)
    val cb = new ChunkBuilder(capacity, in.numItems)
    order.foreach(item => cb.add(item, in.itemSizes(item)))
    cb.result()
  }
}
