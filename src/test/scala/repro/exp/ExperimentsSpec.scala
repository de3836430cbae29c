package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.data.DatasetSpec

class ExperimentsSpec extends AnyFunSuite {

  test("tooManyQueries: time decreases monotonically with chunk size") {
    val rows = Experiments.tooManyQueries(totalRecords = 20000, versionRecords = 2000)
    val times = rows.map(_.secs)
    assert(times.zip(times.tail).forall { case (a, b) => a > b }, times.toString)
  }

  test("tooManyQueries: unit chunks need one request per record") {
    val rows = Experiments.tooManyQueries(chunkSizes = Seq(1),
      totalRecords = 5000, versionRecords = 500)
    assert(rows.head.chunksFetched == 500)
  }

  test("tooManyQueries: improvement from unit to max chunk exceeds 10x") {
    val rows = Experiments.tooManyQueries(totalRecords = 20000, versionRecords = 2000)
    assert(rows.head.secs / rows.last.secs > 10)
  }

  test("spanComparison covers all algorithms and delta") {
    val spec = DatasetSpec.tiny("expspan", 15, 60, skewed = false, 2, seed = 121)
    val rows = Experiments.spanComparison(Seq(spec), capacity = 1024)
    assert(rows.map(_.algorithm).toSet ==
      Set("BottomUp", "Shingle", "DepthFirst", "BreadthFirst", "Delta"))
    assert(rows.forall(_.totalSpan > 0))
  }

  test("betaSweep: spans never improve as beta shrinks") {
    val spec = DatasetSpec.tiny("expbeta", 30, 100, skewed = false, 4, seed = 122)
    val rows = Experiments.betaSweep(spec, Seq(2, 8, Int.MaxValue), capacity = 1024)
    assert(rows.last.totalSpan <= rows.head.totalSpan)
  }

  test("compressionSweep: ratio grows with k") {
    val spec = DatasetSpec.tiny("expcomp", 20, 80, skewed = false, 2, seed = 123)
    val rows = Experiments.compressionSweep(spec, pds = Seq(0.10),
      ks = Seq(1, 5, 10), capacity = 1024)
    val byK = rows.groupBy(_.k).view.mapValues(_.head.ratio).toMap
    assert(byK(5) >= byK(1) * 0.99)
    assert(byK(10) >= byK(5) * 0.99)
  }

  test("onlineQuality: ratios are near or above 1") {
    val spec = DatasetSpec.tiny("exponline", 40, 100, skewed = false, 2, seed = 124)
    val rows = Experiments.onlineQuality(spec, Seq(10, 20), Seq(20, 40), capacity = 1024)
    assert(rows.nonEmpty)
    rows.foreach(r => assert(r.ratio > 0.8, r.toString))
  }

  test("scalability: spans grow (weak scaling) with dataset size") {
    def tinyG(nodes: Int): DatasetSpec =
      DatasetSpec(s"tg$nodes", 10 * nodes, 100, 0.10, skewed = false,
        numBranches = math.max(1, nodes), meanRecordSize = 64, seed = 9)
    val rows = Experiments.scalability(tinyG, nodes = Seq(1, 4), capacity = 1024, nQueries = 10)
    assert(rows.map(_.nodes) == Seq(1, 4))
    assert(rows.last.avgVersionSpan >= rows.head.avgVersionSpan * 0.8)
  }

  test("queryPerf produces rows for all query classes and algorithms") {
    val spec = DatasetSpec.tiny("expqp", 15, 60, skewed = false, 2, seed = 125)
    val rows = Experiments.queryPerf(spec, ks = Seq(1, 3), capacity = 1024,
      nQ1 = 5, nQ3 = 5)
    assert(rows.map(_.query).toSet == Set("Q1", "Q2", "Q3"))
    assert(rows.exists(_.algorithm == "Delta"))
    assert(rows.exists(_.algorithm == "SubChunk"))
    assert(rows.filter(r => r.algorithm != "SubChunk").forall(_.secs >= 0))
  }

  test("queryPerf: golden seconds of every row") {
    val spec = DatasetSpec.tiny("expqp", 15, 60, skewed = false, 2, seed = 125)
    val rows = Experiments.queryPerf(spec, ks = Seq(1, 3), capacity = 1024, nQ1 = 5, nQ3 = 5)
    // (query, algorithm, secs) in row order: BottomUp, Shingle and DepthFirst
    // at k = 1, then at k = 3, then Delta and SubChunk
    val golden = Seq(
      ("Q1", "BottomUp", "0.027833"), ("Q2", "BottomUp", "0.011267"), ("Q3", "BottomUp", "0.007952"),
      ("Q1", "Shingle", "0.027167"), ("Q2", "Shingle", "0.014575"), ("Q3", "Shingle", "0.007952"),
      ("Q1", "DepthFirst", "0.029821"), ("Q2", "DepthFirst", "0.007952"), ("Q3", "DepthFirst", "0.008615"),
      ("Q1", "BottomUp", "0.029828"), ("Q2", "BottomUp", "0.008615"), ("Q3", "BottomUp", "0.003973"),
      ("Q1", "Shingle", "0.027844"), ("Q2", "Shingle", "0.008616"), ("Q3", "Shingle", "0.004640"),
      ("Q1", "DepthFirst", "0.028508"), ("Q2", "DepthFirst", "0.005303"), ("Q3", "DepthFirst", "0.003977"),
      ("Q1", "Delta", "0.028287"), ("Q2", "Delta", "0.028287"), ("Q3", "Delta", "0.026979"),
      ("Q1", "SubChunk", "0.210432"), ("Q2", "SubChunk", "0.016932"), ("Q3", "SubChunk", "0.003257"))
    assert(rows.map(r => (r.query, r.algorithm, f"${r.secs}%.6f")) == golden)
  }

  test("queryPerf: RStore rows carry their sub-chunk size, baseline rows none") {
    val spec = DatasetSpec.tiny("expqp", 15, 60, skewed = false, 2, seed = 125)
    val rows = Experiments.queryPerf(spec, ks = Seq(1, 3), capacity = 1024, nQ1 = 5, nQ3 = 5)
    assert(rows.map(_.k) == Seq.fill(9)(Some(1)) ++ Seq.fill(9)(Some(3)) ++ Seq.fill(6)(None))
  }

  test("costTable: golden rows, every field") {
    val rows = Experiments.costTable(n = 30, m = 500, d = 0.05, meanSize = 256, capacity = 8192, seed = 3)
    assert(rows == Seq(
      Experiments.CostRow("Independent w/chunking", 3869667, 3852220.4081632653, 129346, 16,
        128407.3469387755, 15.674724968112244, 8192, 1),
      Experiments.CostRow("Delta", 161076, 147114.3469387755, 144415, 29,
        137760.8469387755, 15.0, 109113, 22),
      Experiments.CostRow("SubChunk", 169076, 147114.3469387755, 169076, 500,
        147114.3469387755, 500.0, 328, 1),
      Experiments.CostRow("Single-address space", 314598, 314598.0, 129346, 500,
        128407.3469387755, 128407.3469387755, 261, 1)))
  }

  test("datasetsTable computes stats for custom specs") {
    val spec = DatasetSpec.tiny("expds", 12, 50, skewed = true, 2, seed = 126)
    val st = Experiments.datasetsTable(Seq(spec))
    assert(st.head.nVersions == 12)
    assert(st.head.updateType == "Skewed")
  }
}
