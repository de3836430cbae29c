package repro

import java.io.File
import org.scalatest.funsuite.AnyFunSuite

import scala.io.Source
import scala.util.Using

/** Spark is only the compile classpath: no library, job, test or bench
  * code names it, and so no test starts a Spark session. The one exception
  * is `ShinglePartitioner`'s constructor kept for perfbench. This file names
  * the package only in its own literals, so it is not scanned.
  */
class SparkBoundarySpec extends AnyFunSuite {
  private val base = new File(sys.props("user.dir"))
  private val self = "src/test/scala/repro/SparkBoundarySpec.scala"
  private val shingle = "src/main/scala/repro/core/ShinglePartitioner.scala"
  private val compatCtor = "def this(session: org.apache.spark.sql.SparkSession) = this()"

  private def scalaFiles(dir: File): Seq[File] =
    dir.listFiles().toSeq.flatMap { f =>
      if (f.isDirectory) scalaFiles(f) else if (f.getName.endsWith(".scala")) Seq(f) else Nil
    }

  test("only the Shingle compatibility constructor names org.apache.spark in library, job, test and bench code") {
    val dirs = Seq("src/main/scala", "jobs", "src/test/scala", "bench/src").map(new File(base, _))
    dirs.foreach(d => assert(d.isDirectory, s"$d is missing: tests must run from the project base directory"))
    val files = dirs.flatMap(scalaFiles).map(f => base.toPath.relativize(f.toPath).toString -> f)
    assert(files.map(_._1).contains(shingle) && files.map(_._1).contains(self))
    val offending = for {
      (rel, f) <- files
      if rel != self
      (line, n) <- Using.resource(Source.fromFile(f, "UTF-8"))(_.getLines().toVector).zipWithIndex
      if line.contains("org.apache.spark") && !(rel == shingle && line.trim == compatCtor)
    } yield s"$rel:${n + 1}: ${line.trim}"
    assert(offending.isEmpty, offending.mkString("\n", "\n", ""))
  }
}
