package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Ck
import repro.data.{DatasetSpec, VersionedDataGen}

import scala.util.Using

/** Smoke checks of the DuckDB `Oracle` over the membership relation of a
  * tiny generated dataset, so a broken oracle fails loudly before the
  * RStore suites rely on it.
  */
class HarnessSmokeSpec extends AnyFunSuite {
  private lazy val ds = VersionedDataGen.generate(DatasetSpec.tiny())
  private val sql = "SELECT origin, COUNT(*) AS cnt FROM membership GROUP BY origin"

  /** Records per origin version, counted on the driver. */
  private lazy val perOrigin: Seq[(Int, Int)] =
    ds.members.toSeq.flatMap(_.toSeq).groupBy(Ck.version).map { case (o, cks) => (o, cks.length) }.toSeq.sorted

  /** The oracle's message for `expected`, which must be rejected. */
  private def rejection(columns: Seq[String], expected: Seq[Product]): String =
    Using.resource(Oracle.open(Oracle.membership(ds))) { db =>
      intercept[IllegalArgumentException](db.check(sql, columns, expected)).getMessage
    }

  test("Oracle validates a simple aggregation") {
    Using.resource(Oracle.open(Oracle.membership(ds)))(_.check(sql, Seq("origin", "cnt"), perOrigin))
  }

  test("Oracle catches a wrong result") {
    val (o, n) = perOrigin.head
    val msg = rejection(Seq("origin", "cnt"), (o, n + 1) +: perOrigin.tail)
    assert(msg.contains(s"first SQL-only:      ($o, $n)\n"), msg)
    assert(msg.contains(s"first expected-only: ($o, ${n + 1})"), msg)
  }

  test("Oracle catches a missing row") {
    val (o, n) = perOrigin.last
    val msg = rejection(Seq("origin", "cnt"), perOrigin.init)
    assert(msg.contains(s"first SQL-only:      ($o, $n)\n"), msg)
  }

  test("Oracle catches a column alias that does not match") {
    val msg = rejection(Seq("origin", "count"), perOrigin)
    assert(msg.contains("column mismatch"), msg)
  }
}
