package repro.query

import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle
import repro.core._
import repro.data.{DatasetSpec, VersionedDataGen}
import repro.kvs.SimulatedKVS

import scala.util.Using

/** DuckDB-oracle checks of span accounting and of the retrieval queries:
  * the driver's spans and `QueryProcessor`'s answers must equal what SQL
  * over the membership and assignment relations returns.
  */
class QueryOracleSpec extends AnyFunSuite {
  private val capacity = 2048L
  private lazy val ds = VersionedDataGen.generate(
    DatasetSpec.tiny("oracle", 20, 80, skewed = false, 3, seed = 91))
  private lazy val maxKey = ds.uniqueCks.map(Ck.key).max

  private val spansSql =
    """SELECT version, COUNT(DISTINCT chunk) AS span
      |FROM membership JOIN assignment USING (key, origin)
      |GROUP BY version""".stripMargin

  private def rows(cks: Array[Long]): Seq[(Long, Int)] = cks.toSeq.map(ck => (Ck.key(ck), Ck.version(ck)))

  for ((algoName, mk) <- Seq[(String, () => Partitioner)](
      ("BottomUp", () => new BottomUpPartitioner()),
      ("DepthFirst", () => TraversalPartitioner.dfs),
      ("Shingle", () => new ShinglePartitioner())); k <- Seq(1, 3)) {

    def withLayout(f: (Oracle.Session, SubChunking, Assignment) => Unit): Unit = {
      val sub = SubChunker.build(ds, k)
      val a = mk().partition(sub.input, capacity)
      Using.resource(Oracle.open(Oracle.membership(ds), Oracle.assignment(ds, sub, a)))(f(_, sub, a))
    }

    test(s"$algoName k=$k: per-version spans agree with DuckDB") {
      withLayout { (db, sub, a) =>
        db.check(spansSql, Seq("version", "span"), Span.perVersion(sub.scMembersOrig, a).toSeq.zipWithIndex.map(_.swap))
      }
    }

    test(s"$algoName k=$k: per-version chunk sets agree with DuckDB") {
      withLayout { (db, sub, a) =>
        val images = Span.images(sub.scMembersOrig, a.itemChunk)
        db.check("SELECT DISTINCT version, chunk FROM membership JOIN assignment USING (key, origin)",
          Seq("version", "chunk"), for (v <- images.indices; c <- images(v)) yield (v, c))
      }
    }

    test(s"$algoName k=$k: total span agrees with DuckDB") {
      withLayout { (db, sub, a) =>
        db.check(s"SELECT SUM(span) AS total_span FROM ($spansSql)", Seq("total_span"),
          Seq(Tuple1(Span.total(sub.scMembersOrig, a))))
      }
    }
  }

  /** A populated processor over BottomUp at k = 1, and the membership relation. */
  private def withQueries(f: (Oracle.Session, QueryProcessor) => Unit): Unit = {
    val sub = SubChunker.build(ds, 1)
    val qp = new QueryProcessor(ds, sub, new BottomUpPartitioner().partition(sub.input, capacity), new SimulatedKVS(1))
    qp.populate()
    Using.resource(Oracle.open(Oracle.membership(ds)))(f(_, qp))
  }

  test("Q1 answers match DuckDB") {
    withQueries { (db, qp) =>
      (0 until ds.tree.size).foreach { v =>
        db.check(s"SELECT key, origin FROM membership WHERE version = $v", Seq("key", "origin"),
          rows(qp.fullVersion(v)._1))
      }
    }
  }

  test("Q1 answers come back in (key, origin) order") {
    withQueries { (db, qp) =>
      (0 until ds.tree.size).foreach { v =>
        db.check(
          s"""SELECT ROW_NUMBER() OVER (ORDER BY key, origin) - 1 AS pos, key, origin
             |FROM membership WHERE version = $v""".stripMargin,
          Seq("pos", "key", "origin"),
          rows(qp.fullVersion(v)._1).zipWithIndex.map { case ((key, origin), pos) => (pos, key, origin) })
      }
    }
  }

  test("Q2 answers match DuckDB") {
    withQueries { (db, qp) =>
      val ranges = Seq((3, 10L, 40L), (7, 0L, 25L), (12, 50L, 90L), (5, 17L, 17L), (9, maxKey - 3, maxKey + 20),
        (0, maxKey + 1, maxKey + 10), (19, 30L, 20L), (4, Long.MinValue, Long.MaxValue))
      ranges.foreach { case (v, lo, hi) =>
        db.check(s"SELECT key, origin FROM membership WHERE version = $v AND key BETWEEN $lo AND $hi",
          Seq("key", "origin"), rows(qp.range(v, lo, hi)._1))
      }
    }
  }

  test("Q3 answers match DuckDB") {
    withQueries { (db, qp) =>
      (0L to maxKey + 1).foreach { key =>
        db.check(s"SELECT DISTINCT key, origin FROM membership WHERE key = $key", Seq("key", "origin"),
          rows(qp.evolution(key)._1))
      }
    }
  }

  test("point answers match DuckDB on every version and key, dead keys included") {
    withQueries { (db, qp) =>
      val answers = for {
        v <- 0 until ds.tree.size
        key <- 0L to maxKey + 1
        ck <- qp.point(v, key)._1
      } yield (v, Ck.key(ck), Ck.version(ck))
      assert(answers.length < ds.tree.size * (maxKey + 2), "every key is live in every version")
      db.check("SELECT version, key, origin FROM membership", Seq("version", "key", "origin"), answers)
    }
  }
}
