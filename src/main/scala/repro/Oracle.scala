package repro

import java.sql.{Connection, DriverManager}
import repro.core.{Assignment, Ck, Hash64, PartitionInput, SubChunking, VersionedDataset}

import scala.util.Using

/** DuckDB correctness oracle.
  *
  * `Oracle.open(tables*)` loads typed relations, built from the driver's
  * arrays, into an in-process DuckDB; `check` runs SQL over them and asserts
  * that its rows equal a driver-side answer. A wrong span, index or query
  * path shows up as a row mismatch — "it ran" is not "it is correct".
  *
  * Only `java.sql` is used, and the driver is loaded by name: the library
  * also compiles with no DuckDB jar on the classpath.
  */
object Oracle {

  /** A relation: its name, `(column, SQL type)` pairs, and its rows. */
  final case class Table(name: String, columns: Seq[(String, String)], rows: Iterable[Product])

  /** `(version, key, origin)`: one row per record in a version. */
  def membership(ds: VersionedDataset): Table =
    Table("membership", Seq("version" -> "INTEGER", "key" -> "BIGINT", "origin" -> "INTEGER"),
      for (v <- ds.members.indices; ck <- ds.members(v)) yield (v, Ck.key(ck), Ck.version(ck)))

  /** `(key, origin, chunk)`: the chunk that holds each record. */
  def assignment(ds: VersionedDataset, sc: SubChunking, a: Assignment): Table =
    Table("assignment", Seq("key" -> "BIGINT", "origin" -> "INTEGER", "chunk" -> "INTEGER"),
      ds.uniqueCks.indices.map { i =>
        val ck = ds.uniqueCks(i)
        (Ck.key(ck), Ck.version(ck), a.itemChunk(sc.recordSc(i)))
      })

  /** `(chunk, key, origin, payload)`: each chunk's records with their JSON. */
  def chunks(ds: VersionedDataset, sc: SubChunking, a: Assignment): Table =
    Table("chunks", Seq("chunk" -> "INTEGER", "key" -> "BIGINT", "origin" -> "INTEGER", "payload" -> "VARCHAR"),
      ds.uniqueCks.indices.map { i =>
        val ck = ds.uniqueCks(i)
        (a.itemChunk(sc.recordSc(i)), Ck.key(ck), Ck.version(ck), ds.payload(ck))
      })

  /** Shingle's `(item, version)` relation: the items each version holds. */
  def items(in: PartitionInput): Table =
    Table("items", Seq("item" -> "INTEGER", "version" -> "INTEGER"),
      for (v <- in.members.indices; item <- in.members(v)) yield (item, v))

  /** `(version, i, hash)`: the min-hash family `Hash64(v, seed + i)`, i < l. */
  def hashes(numVersions: Int, l: Int, seed: Long): Table =
    Table("hashes", Seq("version" -> "INTEGER", "i" -> "INTEGER", "hash" -> "BIGINT"),
      for (v <- 0 until numVersions; i <- 0 until l) yield (v, i, Hash64(v.toLong, seed + i)))

  /** An in-memory DuckDB holding `tables`. */
  final class Session private[Oracle] (tables: Seq[Table]) extends AutoCloseable {
    Class.forName("org.duckdb.DuckDBDriver")
    private val conn: Connection = DriverManager.getConnection("jdbc:duckdb:")
    tables.foreach(load)

    /** Creates `t` and inserts its rows as literals, a few thousand to a
      * statement: JDBC's one-row batches cost ≈ 0.2 ms a row.
      */
    private def load(t: Table): Unit = Using.resource(conn.createStatement) { st =>
      st.execute(s"CREATE TABLE ${t.name} (${t.columns.map { case (c, ty) => s"$c $ty" }.mkString(", ")})")
      t.rows.grouped(4096).foreach { rows =>
        st.execute(rows.iterator.map(_.productIterator.map(literal).mkString("(", ", ", ")"))
          .mkString(s"INSERT INTO ${t.name} VALUES ", ", ", ""))
      }
    }

    private def literal(x: Any): String = x match {
      case s: String => "'" + s.replace("'", "''") + "'"
      case x         => x.toString
    }

    /** Asserts that `sql` returns the columns `columns`, in order, and the
      * rows `expected`, in any order; else an `IllegalArgumentException`
      * that shows the first rows that differ.
      */
    def check(sql: String, columns: Seq[String], expected: Iterable[Product]): Unit = {
      val sqlRows = Using.resource(conn.createStatement) { st =>
        val rs = st.executeQuery(sql)
        val meta = rs.getMetaData
        val got = (1 to meta.getColumnCount).map(meta.getColumnLabel)
        require(got.map(_.toLowerCase) == columns.map(_.toLowerCase),
          s"column mismatch: sql=$got expected=$columns — alias every output column")
        canon(Iterator.continually(rs).takeWhile(_.next()).map(r => got.indices.map(i => r.getObject(i + 1))).toSeq)
      }
      val expRows = canon(expected.map(_.productIterator.toSeq))
      def first(rows: Seq[Seq[String]]) = rows.take(3).map(_.mkString("(", ", ", ")")).mkString(" ")
      require(sqlRows == expRows,
        s"result mismatch (${sqlRows.size} SQL vs ${expRows.size} expected rows):\n" +
        s"  first SQL-only:      ${first(sqlRows.diff(expRows))}\n" +
        s"  first expected-only: ${first(expRows.diff(sqlRows))}")
    }

    def close(): Unit = conn.close()
  }

  def open(tables: Table*): Session = new Session(tables)

  /** Rows as sorted strings, so that a DuckDB `BIGINT` or `HUGEINT` equals a Scala `Int`. */
  private def canon(rows: Iterable[Seq[Any]]): Seq[Seq[String]] =
    rows.iterator.map(_.map(x => s"$x")).toSeq.sorted(Ordering.Implicits.seqOrdering[Seq, String])
}
