package repro.query

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.data.{DatasetSpec, VersionedDataGen}

/** DuckDB-oracle checks of the DataFrame query paths: span accounting and
  * each retrieval query class must produce exactly the rows SQL over the
  * raw membership/assignment relations produces.
  */
class SparkQueriesSpec extends SparkSpec {
  private val capacity = 2048L
  private lazy val ds = VersionedDataGen.generate(
    DatasetSpec.tiny("oracle", 20, 80, skewed = false, 3, seed = 91))
  private lazy val membership = SparkQueries.membershipDF(spark, ds)

  private def layout(p: Partitioner, k: Int) = {
    val sub = SubChunker.build(ds, k)
    (sub, p.partition(sub.input, capacity))
  }

  for ((algoName, mk) <- Seq[(String, () => Partitioner)](
      ("BottomUp", () => new BottomUpPartitioner()),
      ("DepthFirst", () => TraversalPartitioner.dfs),
      ("Shingle", () => new ShinglePartitioner())); k <- Seq(1, 3)) {

    test(s"$algoName k=$k: per-version spans agree with DuckDB") {
      val (sub, a) = layout(mk(), k)
      val assignDF = SparkQueries.assignmentDF(spark, ds, sub, a)
      val spans = SparkQueries.spansDF(membership, assignDF)
      Oracle.assertEquivalent(
        spans,
        """SELECT version, COUNT(DISTINCT chunk) AS span
          |FROM membership JOIN assignment USING (key, origin)
          |GROUP BY version""".stripMargin,
        "membership" -> membership, "assignment" -> assignDF)
    }

    test(s"$algoName k=$k: spansDF agrees with the driver Span computation") {
      val (sub, a) = layout(mk(), k)
      val assignDF = SparkQueries.assignmentDF(spark, ds, sub, a)
      val sparkSpans = SparkQueries.spansDF(membership, assignDF)
        .collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
      val driverSpans = Span.perVersion(sub.scMembersOrig, a)
      (0 until ds.tree.size).foreach { v =>
        assert(sparkSpans(v) == driverSpans(v), s"version $v")
      }
    }
  }

  test("Q1 DataFrame matches DuckDB") {
    (0 until ds.tree.size by 4).foreach { v =>
      Oracle.assertEquivalent(
        SparkQueries.fullVersionDF(membership, v),
        s"SELECT key, origin FROM membership WHERE version = '$v'",
        "membership" -> membership)
    }
  }

  test("Q2 range DataFrame matches DuckDB") {
    Seq((3, 10L, 40L), (7, 0L, 25L), (12, 50L, 90L)).foreach { case (v, lo, hi) =>
      Oracle.assertEquivalent(
        SparkQueries.rangeDF(membership, v, lo, hi),
        s"""SELECT key, origin FROM membership
           |WHERE version = '$v' AND CAST(key AS BIGINT) >= $lo AND CAST(key AS BIGINT) <= $hi""".stripMargin,
        "membership" -> membership)
    }
  }

  test("Q3 evolution DataFrame matches DuckDB") {
    Seq(0L, 5L, 17L, 42L).foreach { key =>
      Oracle.assertEquivalent(
        SparkQueries.evolutionDF(membership, key),
        s"SELECT DISTINCT key, origin FROM membership WHERE CAST(key AS BIGINT) = $key",
        "membership" -> membership)
    }
  }

  test("total span DataFrame matches DuckDB") {
    val sub = SubChunker.build(ds, 1)
    val a = new BottomUpPartitioner().partition(sub.input, capacity)
    val assignDF = SparkQueries.assignmentDF(spark, ds, sub, a)
    Oracle.assertEquivalent(
      SparkQueries.totalSpanDF(membership, assignDF),
      """SELECT SUM(span) AS total_span FROM (
        |  SELECT version, COUNT(DISTINCT chunk) AS span
        |  FROM membership JOIN assignment USING (key, origin)
        |  GROUP BY version)""".stripMargin,
      "membership" -> membership, "assignment" -> assignDF)
  }

  test("QueryProcessor Q1 results agree with the DataFrame reference") {
    val sub = SubChunker.build(ds, 1)
    val a = new BottomUpPartitioner().partition(sub.input, capacity)
    val qp = new QueryProcessor(ds, sub, a, new repro.kvs.SimulatedKVS(1))
    qp.populate()
    (0 until ds.tree.size by 3).foreach { v =>
      val fromDf = SparkQueries.fullVersionDF(membership, v).collect()
        .map(r => Ck.pack(r.getLong(0), r.getInt(1))).sorted
      assert(qp.fullVersion(v)._1.toSeq == fromDf.toSeq)
    }
  }
}
