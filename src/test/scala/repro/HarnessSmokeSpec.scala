package repro

import org.apache.spark.sql.functions._
import repro.data.{DatasetSpec, VersionedDataGen}
import repro.query.SparkQueries

/** Smoke checks of the DuckDB `Oracle` over the membership relation of a
  * tiny generated dataset, so a broken oracle fails loudly before the
  * RStore suites rely on it.
  */
class HarnessSmokeSpec extends SparkSpec {
  private lazy val membership =
    SparkQueries.membershipDF(spark, VersionedDataGen.generate(DatasetSpec.tiny())).cache()
  private val sql = "SELECT origin, COUNT(*) AS cnt FROM membership GROUP BY origin"

  test("Oracle validates a simple aggregation") {
    val agg = membership.groupBy(col("origin")).agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(agg, sql, "membership" -> membership)
  }

  test("Oracle catches a wrong result") {
    val wrong = membership.groupBy(col("origin")).agg((count(lit(1)) + 1).as("cnt"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, sql, "membership" -> membership)
    }
  }
}
