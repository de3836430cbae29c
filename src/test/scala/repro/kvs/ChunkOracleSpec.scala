package repro.kvs

import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle
import repro.core._
import repro.data.{DatasetSpec, VersionedDataGen}
import repro.query.QueryProcessor

/** The chunked layout as a DuckDB relation `(chunk, key, origin, payload)`:
  * every record with its JSON in the chunk the assignment gives it. A
  * query reads only the chunk ids it handed the store, so an index that
  * omits a chunk loses that chunk's records from the answer.
  */
class ChunkOracleSpec extends AnyFunSuite with BeforeAndAfterAll {
  private val capacity = 2048L
  private lazy val ds = VersionedDataGen.generate(
    DatasetSpec.tiny("pq", 15, 60, skewed = false, 2, seed = 101))
  private lazy val sub = SubChunker.build(ds, 1)
  private lazy val assignment = new BottomUpPartitioner().partition(sub.input, capacity)
  private lazy val db = Oracle.open(Oracle.chunks(ds, sub, assignment), Oracle.membership(ds))

  private lazy val store = new RecordingStore(new SimulatedKVS(2))
  private lazy val qp = {
    val qp = new QueryProcessor(ds, sub, assignment, store)
    qp.populate()
    qp
  }

  override def afterAll(): Unit = { db.close(); super.afterAll() }

  private def withPayloads(cks: Seq[Long]): Seq[(Long, Int, String)] =
    cks.map(ck => (Ck.key(ck), Ck.version(ck), ds.payload(ck)))

  /** A SQL condition: `chunk` is one of the ids the last query read. */
  private def fetched(): String = s"list_contains(${store.take().mkString("[", ", ", "]")}::INTEGER[], chunk)"

  /** SQL for the records of version `v` that pass `where`, in the fetched chunks. */
  private def inVersion(v: Int, where: String): String =
    s"""SELECT key, origin, payload FROM chunks JOIN membership USING (key, origin)
       |WHERE version = $v AND $where AND ${fetched()}""".stripMargin

  test("every record is stored exactly once") {
    db.check("SELECT key, origin, COUNT(*) AS copies FROM chunks GROUP BY key, origin",
      Seq("key", "origin", "copies"), ds.uniqueCks.toSeq.map(ck => (Ck.key(ck), Ck.version(ck), 1)))
  }

  test("a chunk read returns only that chunk's records") {
    val byChunk = ds.uniqueCks.indices.groupBy(i => assignment.itemChunk(sub.recordSc(i)))
    (0 until assignment.numChunks).foreach { c =>
      db.check(s"SELECT key, origin FROM chunks WHERE chunk = $c", Seq("key", "origin"),
        byChunk.getOrElse(c, Nil).map(i => (Ck.key(ds.uniqueCks(i)), Ck.version(ds.uniqueCks(i)))))
    }
  }

  test("Q1 through the fetched chunks returns the version's records with payloads") {
    (0 until ds.tree.size).foreach { v =>
      val answer = qp.fullVersion(v)._1
      db.check(inVersion(v, "TRUE"), Seq("key", "origin", "payload"), withPayloads(answer.toSeq))
    }
  }

  test("Q1 fetches every chunk holding a record of the version once, and no other") {
    (0 until ds.tree.size).foreach { v =>
      qp.fullVersion(v)
      db.check(s"SELECT DISTINCT chunk FROM chunks JOIN membership USING (key, origin) WHERE version = $v",
        Seq("chunk"), store.take().map(Tuple1(_)))
    }
  }

  test("Q2 through the fetched chunks returns the in-range records with payloads") {
    val maxKey = ds.uniqueCks.map(Ck.key).max
    for (v <- 0 until ds.tree.size; (lo, hi) <- Seq((0L, 9L), (5L, 40L), (maxKey - 3, maxKey + 5), (30L, 20L))) {
      val answer = qp.range(v, lo, hi)._1
      db.check(inVersion(v, s"key BETWEEN $lo AND $hi"), Seq("key", "origin", "payload"), withPayloads(answer.toSeq))
    }
  }

  test("point through the fetched chunks returns the live record with its payload, dead keys included") {
    val maxKey = ds.uniqueCks.map(Ck.key).max
    for (v <- 0 until ds.tree.size; key <- 0L to maxKey + 1 by 3) {
      val answer = qp.point(v, key)._1
      db.check(inVersion(v, s"key = $key"), Seq("key", "origin", "payload"), withPayloads(answer.toSeq))
    }
  }

  test("Q3 through the fetched chunks returns the key's evolution with payloads") {
    ds.uniqueCks.map(Ck.key).distinct.foreach { key =>
      val answer = qp.evolution(key)._1
      db.check(s"SELECT key, origin, payload FROM chunks WHERE key = $key AND ${fetched()}",
        Seq("key", "origin", "payload"), withPayloads(answer.toSeq))
    }
  }
}
