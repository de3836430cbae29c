package repro.query

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Assignment, Ck, Hash64, PartitionInput, ShinglePartitioner, SubChunking, VersionedDataset}

/** DataFrame reference implementations of the retrieval queries, layout
  * metrics and Shingle's order. These run through Catalyst (joins +
  * aggregations over the membership/assignment relations) and are what the
  * DuckDB oracle and the driver-side code are checked against in tests — an
  * incorrect partitioner index or extraction path shows up as a result
  * mismatch, not just a slow query.
  */
object SparkQueries {

  /** `(version, key, origin)` — one row per record-in-version. */
  def membershipDF(spark: SparkSession, ds: VersionedDataset): DataFrame = {
    import spark.implicits._
    val rows = for {
      v <- ds.members.indices.iterator
      ck <- ds.members(v).iterator
    } yield (v, Ck.key(ck), Ck.version(ck))
    rows.toSeq.toDF("version", "key", "origin")
  }

  /** `(key, origin, payload)` — with materialized JSON; small datasets only. */
  def payloadsDF(spark: SparkSession, ds: VersionedDataset): DataFrame = {
    import spark.implicits._
    ds.uniqueCks.iterator
      .map(ck => (Ck.key(ck), Ck.version(ck), ds.payload(ck)))
      .toSeq
      .toDF("key", "origin", "payload")
  }

  /** `(key, origin, chunk)` — the record→chunk placement relation. */
  def assignmentDF(spark: SparkSession, ds: VersionedDataset, sc: SubChunking,
                   a: Assignment): DataFrame = {
    import spark.implicits._
    ds.uniqueCks.indices.map { i =>
      val ck = ds.uniqueCks(i)
      (Ck.key(ck), Ck.version(ck), a.itemChunk(sc.recordSc(i)))
    }.toDF("key", "origin", "chunk")
  }

  /** Per-version span: distinct chunks holding ≥1 record of the version. */
  def spansDF(membership: DataFrame, assignment: DataFrame): DataFrame =
    membership
      .join(assignment, Seq("key", "origin"))
      .groupBy(col("version"))
      .agg(countDistinct(col("chunk")).as("span"))

  /** Q1 as a DataFrame: records of version `v`. */
  def fullVersionDF(membership: DataFrame, v: Int): DataFrame =
    membership.where(col("version") === v).select(col("key"), col("origin"))

  /** Q2 as a DataFrame: records of `v` with key in `[lo, hi]`. */
  def rangeDF(membership: DataFrame, v: Int, lo: Long, hi: Long): DataFrame =
    membership
      .where(col("version") === v && col("key") >= lo && col("key") <= hi)
      .select(col("key"), col("origin"))

  /** Q3 as a DataFrame: the distinct records ever stored for `key`. */
  def evolutionDF(membership: DataFrame, key: Long): DataFrame =
    membership.where(col("key") === key).select(col("key"), col("origin")).distinct()

  /** Total version span (the Fig 8 metric) as a single-row DataFrame. */
  def totalSpanDF(membership: DataFrame, assignment: DataFrame): DataFrame =
    spansDF(membership, assignment).agg(sum(col("span")).as("total_span"))

  /** Items in `p`'s shingle order (§3.1) as a DataFrame job: min-aggregates
    * of the same hash family over the (item, version) relation, joined to
    * every item id, then sorted by shingles and item id. An item in no
    * version has no rows to aggregate; its shingles are `Long.MaxValue`, so
    * it sorts last, as in `p.driverOrder`.
    */
  def shingleOrder(spark: SparkSession, p: ShinglePartitioner, in: PartitionInput): Array[Int] = {
    import spark.implicits._
    val rows = for {
      v <- in.members.indices.iterator
      item <- in.members(v).iterator
    } yield (item, v)
    val seed = p.seed // local copy: the udf closure must not capture `p`
    val h = udf((v: Int, i: Int) => Hash64(v.toLong, seed + i))
    val hs = (0 until p.numShingles).map(i => s"h$i")
    val aggs = hs.indices.map(i => min(h($"version", lit(i))).as(hs(i)))
    val shingles = rows.toSeq.toDF("item", "version").groupBy($"item").agg(aggs.head, aggs.tail: _*)
    (0 until in.numItems).toDF("item")
      .join(shingles, Seq("item"), "left")
      .orderBy(hs.map(c => coalesce(col(c), lit(Long.MaxValue))) :+ col("item"): _*)
      .select($"item")
      .as[Int]
      .collect()
  }
}
