package repro.exp

import org.scalatest.funsuite.AnyFunSuite

/** Golden layout fingerprints: chunk count, total span and a hash of
  * `itemChunk` for every partitioner at k ∈ {1, 3} on the datasets of
  * `Experiments.fingerprintDatasets`, and the sub-chunking itself at
  * k ∈ {3, 10}. A change that keeps every layout keeps these values;
  * `repro.jobs.LayoutFingerprintJob` prints the same tables.
  */
class LayoutFingerprintSpec extends AnyFunSuite {

  // dataset, algorithm, k, chunks, total span, itemChunk hash
  private val golden: Seq[String] =
    """
      |t1 BottomUp 1 33 248 4e168c5956cb848e
      |t1 BottomUp(beta=20) 1 33 248 4e168c5956cb848e
      |t1 Shingle 1 33 261 8c8de1ab56a4379b
      |t1 DepthFirst 1 34 373 3ac60f003e2c9810
      |t1 BreadthFirst 1 34 373 3ac60f003e2c9810
      |t1 BottomUp 3 20 259 7563cdb3d7359315
      |t1 BottomUp(beta=20) 3 20 259 7563cdb3d7359315
      |t1 Shingle 3 21 287 c050ad4eeaa87335
      |t1 DepthFirst 3 21 324 b403f2e8ef00aba1
      |t1 BreadthFirst 3 21 324 b403f2e8ef00aba1
      |t2 BottomUp 1 63 574 85f4a1a068681006
      |t2 BottomUp(beta=20) 1 63 576 82c83a26492c77f4
      |t2 Shingle 1 63 538 da2ef5172288df48
      |t2 DepthFirst 1 63 748 e1bffd03f166b2d0
      |t2 BreadthFirst 1 63 785 7066fd4fd516b5d8
      |t2 BottomUp 3 39 596 98b1575519339ca8
      |t2 BottomUp(beta=20) 3 39 598 6d21f410d763157d
      |t2 Shingle 3 39 581 fa8dbd13f49f2e2c
      |t2 DepthFirst 3 39 692 ccb303d7e6203246
      |t2 BreadthFirst 3 39 773 5a03e6309dd48f62
      |t3 BottomUp 1 57 544 040f366fea204fbd
      |t3 BottomUp(beta=20) 1 57 542 e0086e409973ae91
      |t3 Shingle 1 56 589 3dc1b4cbaa1f9320
      |t3 DepthFirst 1 56 651 5f25adc6bd13bbf5
      |t3 BreadthFirst 1 56 816 7d3142d49c213e4f
      |t3 BottomUp 3 35 644 fe7d645ed88d6b5f
      |t3 BottomUp(beta=20) 3 35 644 7955a09b99fc3e6c
      |t3 Shingle 3 35 650 985229fdefd5d8eb
      |t3 DepthFirst 3 35 689 14bb7436f5b706b4
      |t3 BreadthFirst 3 35 832 82447822e71c9737
      |A0 BottomUp 1 457 1533 8c76daf46e9922ea
      |A0 BottomUp(beta=20) 1 457 1533 8c76daf46e9922ea
      |A0 Shingle 1 456 1651 16cf326dbdb0d969
      |A0 DepthFirst 1 456 4084 4b97f01a969910ee
      |A0 BreadthFirst 1 456 4084 4b97f01a969910ee
      |A0 BottomUp 3 219 1880 92b7864a74c7e835
      |A0 BottomUp(beta=20) 3 219 1880 92b7864a74c7e835
      |A0 Shingle 3 219 2060 38b786625b0dbf9c
      |A0 DepthFirst 3 219 3232 c2921d85b48ae1bb
      |A0 BreadthFirst 3 219 3232 c2921d85b48ae1bb
      |C0 BottomUp 1 267 13303 b3099e871aee88ad
      |C0 BottomUp(beta=20) 1 267 13338 2ee628eea2bf3766
      |C0 Shingle 1 301 23885 71b03241ca689daf
      |C0 DepthFirst 1 302 12504 3ce942c758751fab
      |C0 BreadthFirst 1 302 28966 018ca9cd0d21bf94
      |C0 BottomUp 3 177 14190 e2f6fe8ff460506d
      |C0 BottomUp(beta=20) 3 177 14380 97cd8fcff335b637
      |C0 Shingle 3 194 24102 a8c994e961a514ec
      |C0 DepthFirst 3 194 13674 a9be3e9874261551
      |C0 BreadthFirst 3 194 29985 e7780997c9adc50a
      |dag BottomUp 1 148 1438 e3c846eb31795a64
      |dag BottomUp(beta=20) 1 148 1431 ba481f14da9d516e
      |dag Shingle 1 148 1313 e6f03c12e68779f3
      |dag DepthFirst 1 148 1876 7fd3bc2ca2d3ef74
      |dag BreadthFirst 1 148 2112 40761d3e70b66888
      |dag BottomUp 3 148 1438 e3c846eb31795a64
      |dag BottomUp(beta=20) 3 148 1431 ba481f14da9d516e
      |dag Shingle 3 148 1313 e6f03c12e68779f3
      |dag DepthFirst 3 148 1876 7fd3bc2ca2d3ef74
      |dag BreadthFirst 3 148 2112 40761d3e70b66888
      |""".stripMargin.trim.linesIterator.toSeq

  // dataset, k, sub-chunks, transformed-tree size, hash over recordSc,
  // scRepCk and scSizes
  private val goldenSubChunks: Seq[String] =
    """
      |t1 3 201 20 f5520e5e975351a2
      |t1 10 138 20 aaed5797b4dcddca
      |t2 3 388 30 800b161bcca8bcff
      |t2 10 243 30 97ceae43c9c125b1
      |t3 3 353 40 4723663bb6039bc2
      |t3 10 186 40 ed5669c6684667cd
      |A0 3 21258 60 cc415a5ed13bd8b3
      |A0 10 10011 60 fbe5b1b5a3089dcb
      |C0 3 21059 1000 963fdc6afcc7a468
      |C0 10 14284 1000 326faa7b48ed7895
      |dag 3 1972 60 e72f20df0078c0b1
      |dag 10 1972 60 e72f20df0078c0b1
      |""".stripMargin.trim.linesIterator.toSeq

  private lazy val actualSubChunks: Seq[String] = Experiments.subChunkFingerprints.map { r =>
    f"${r.datasetName} ${r.k} ${r.numSubChunks} ${r.treeSize} ${r.hash}%016x"
  }

  private lazy val actual: Seq[String] = Experiments.layoutFingerprints.map { r =>
    f"${r.datasetName} ${r.algorithm} ${r.k} ${r.numChunks} ${r.totalSpan} ${r.hash}%016x"
  }

  for (name <- golden.map(_.split(' ').head).distinct) {
    test(s"$name: layouts match the golden fingerprints") {
      val want = golden.filter(_.startsWith(s"$name "))
      val got = actual.filter(_.startsWith(s"$name "))
      assert(got == want, s"\n got: ${got.mkString("\n      ")}\nwant: ${want.mkString("\n      ")}")
    }
  }

  for (name <- goldenSubChunks.map(_.split(' ').head).distinct) {
    test(s"$name: sub-chunking matches the golden fingerprints") {
      val want = goldenSubChunks.filter(_.startsWith(s"$name "))
      val got = actualSubChunks.filter(_.startsWith(s"$name "))
      assert(got == want, s"\n got: ${got.mkString("\n      ")}\nwant: ${want.mkString("\n      ")}")
    }
  }
}
