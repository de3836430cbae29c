package repro

import java.io.File
import org.scalatest.funsuite.AnyFunSuite

import scala.io.Source
import scala.util.Using

/** Spark is a verification-only dependency: in the library and `jobs/`,
  * only the DataFrame reference code (`Oracle`, `SparkQueries`,
  * `SparkChunkStore`) names it, plus `ShinglePartitioner`'s one constructor
  * kept for perfbench.
  */
class SparkBoundarySpec extends AnyFunSuite {
  private val base = new File(sys.props("user.dir"))
  private val verification = Set(
    "src/main/scala/repro/Oracle.scala",
    "src/main/scala/repro/query/SparkQueries.scala",
    "src/main/scala/repro/kvs/SparkChunkStore.scala")
  private val shingle = "src/main/scala/repro/core/ShinglePartitioner.scala"
  private val compatCtor = "def this(session: org.apache.spark.sql.SparkSession) = this()"

  private def scalaFiles(dir: File): Seq[File] =
    dir.listFiles().toSeq.flatMap { f =>
      if (f.isDirectory) scalaFiles(f) else if (f.getName.endsWith(".scala")) Seq(f) else Nil
    }

  test("only the verification files mention org.apache.spark in src/main/scala and jobs/") {
    val dirs = Seq("src/main/scala", "jobs").map(new File(base, _))
    dirs.foreach(d => assert(d.isDirectory, s"$d is missing: tests must run from the project base directory"))
    val files = dirs.flatMap(scalaFiles)
    assert(files.map(f => base.toPath.relativize(f.toPath).toString).contains(shingle))
    val offending = for {
      f <- files
      rel = base.toPath.relativize(f.toPath).toString
      if !verification(rel)
      (line, n) <- Using.resource(Source.fromFile(f, "UTF-8"))(_.getLines().toVector).zipWithIndex
      if line.contains("org.apache.spark") && !(rel == shingle && line.trim == compatCtor)
    } yield s"$rel:${n + 1}: ${line.trim}"
    assert(offending.isEmpty, offending.mkString("\n", "\n", ""))
  }
}
