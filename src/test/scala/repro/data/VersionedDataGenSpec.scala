package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Hash64, VersionedDataset}

/** Golden output of the generator: a 64-bit hash of every delta's adds and
  * dels, in version order, and of every lineage pair, in ck order. Any
  * change to the random draws, the victim selection or the lineage it
  * records moves these values.
  */
class VersionedDataGenSpec extends AnyFunSuite {

  private def fold(h: Long, x: Long): Long = Hash64(x, h)

  private def deltasHash(ds: VersionedDataset): Long = {
    var h = 0L
    for (d <- ds.deltas) {
      h = fold(h, d.adds.length.toLong)
      d.adds.foreach(ck => h = fold(h, ck))
      h = fold(h, d.dels.length.toLong)
      d.dels.foreach(ck => h = fold(h, ck))
    }
    h
  }

  private def lineageHash(ds: VersionedDataset): Long = {
    var h = 0L
    ds.uniqueCks.foreach { ck =>
      ds.lineage(ck).foreach { p => h = fold(fold(h, ck), p) }
    }
    h
  }

  // spec, deltas hash, lineage hash, number of lineage pairs
  private val golden: Seq[(DatasetSpec, String, String, Int)] = Seq(
    (DatasetSpec("bushy", 4000, 1000, 0.10, skewed = false, numBranches = 480, seed = 1),
      "8b27adebae541cb2", "e88a9619cf90601c", 319920),
    (DatasetSpec("branched", 300, 3000, 0.05, skewed = true, numBranches = 9, seed = 1),
      "3552cde1de8baac2", "79e7968d2f53f6d1", 35880),
    (DatasetSpec.tiny("t-uniform", 40, 120, skewed = false, 5, seed = 3),
      "5726cc8e3cb83cb1", "99eb2623779bc709", 796),
    (DatasetSpec.tiny("t-skewed", 30, 100, skewed = true, 1, seed = 7),
      "b9249be4b9e1aa12", "489f4d95d2240400", 464),
  )

  for ((spec, deltasGold, lineageGold, pairs) <- golden)
    test(s"${spec.name}: deltas and lineage match the golden hashes") {
      val ds = VersionedDataGen.generate(spec)
      val got = (f"${deltasHash(ds)}%016x", f"${lineageHash(ds)}%016x", ds.uniqueCks.count(ds.lineage(_).isDefined))
      assert(got == ((deltasGold, lineageGold, pairs)))
    }
}
