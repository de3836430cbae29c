package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.DatasetSpec
import repro.exp.{Experiments, TableFmt}

/** Fig 11 — query processing performance (simulated seconds over the
  * cost-modeled KVS) for Q1/Q2/Q3 on datasets A0 and C0, sweeping the max
  * sub-chunk size, with DELTA (k=1 only) and SUBCHUNK baselines.
  *
  * Paper's qualitative results:
  *  - BOTTOM-UP beats DFS/SHINGLE/DELTA on Q1 and Q2;
  *  - Q2 ~ tracks Q1 (partial span ∝ full span); DELTA's Q2 ≥ its Q1;
  *  - Q3 improves as sub-chunk size grows; SUBCHUNK wins Q3 outright but
  *    is catastrophic for Q1 (A0: 4075 s vs seconds for the others).
  */
class QueryPerfBench extends AnyFunSuite {

  private val specs = Seq(DatasetSpec.A0, DatasetSpec.C0)
  private lazy val all = specs.map(s => s.name -> Experiments.queryPerf(s)).toMap

  private def secs(ds: String, q: String, k: Int, algo: String): Double =
    all(ds).find(r => r.query == q && r.k.contains(k) && r.algorithm == algo).get.secs

  /** A baseline's row, found by name: it has no sub-chunk size. */
  private def baseline(ds: String, q: String, algo: String): Double =
    all(ds).find(r => r.query == q && r.k.isEmpty && r.algorithm == algo).get.secs

  test("print Fig 11 query performance tables") {
    specs.foreach { s =>
      println(TableFmt.render(
        s"Fig 11 — query times (${s.name}; simulated secs; paper: BottomUp best on Q1/Q2, SubChunk wins Q3)",
        Seq("Query", "Algorithm", "k=1", "k=5", "k=10", "k=25", "k=50"),
        (for (q <- Seq("Q1", "Q2", "Q3"); algo <- Seq("BottomUp", "Shingle", "DepthFirst")) yield
          Seq(q, algo) ++ Seq(1, 5, 10, 25, 50).map(k => f"${secs(s.name, q, k, algo)}%.3f")) ++
        Seq("Q1", "Q2", "Q3").map(q => Seq(q, "Delta(k=1)", f"${baseline(s.name, q, "Delta")}%.3f", "-", "-", "-", "-")) ++
        Seq("Q1", "Q2", "Q3").map(q => Seq(q, "SubChunk", f"${baseline(s.name, q, "SubChunk")}%.3f", "-", "-", "-", "-"))))
    }
  }

  test("bottom-up beats delta on Q1 for both datasets") {
    specs.foreach { s =>
      assert(secs(s.name, "Q1", 1, "BottomUp") < baseline(s.name, "Q1", "Delta"), s.name)
    }
  }

  test("bottom-up is the best chunked technique on Q1") {
    for (s <- specs; k <- Seq(1, 10, 50)) {
      val bu = secs(s.name, "Q1", k, "BottomUp")
      assert(bu <= secs(s.name, "Q1", k, "Shingle") * 1.2, s"${s.name} k=$k shingle")
      assert(bu <= secs(s.name, "Q1", k, "DepthFirst") * 1.2, s"${s.name} k=$k dfs")
    }
  }

  test("delta's Q2 is at least its Q1 (reconstruct then filter)") {
    specs.foreach { s =>
      assert(baseline(s.name, "Q2", "Delta") >= baseline(s.name, "Q1", "Delta") * 0.999, s.name)
    }
  }

  test("Q2 tracks Q1 for chunked layouts (partial span ∝ full span)") {
    for (s <- specs; algo <- Seq("BottomUp", "DepthFirst")) {
      val q1 = secs(s.name, "Q1", 1, algo)
      val q2 = secs(s.name, "Q2", 1, algo)
      assert(q2 <= q1 * 1.05, s"${s.name}/$algo: Q2 $q2 must not exceed Q1 $q1")
      assert(q2 >= q1 * 0.01)
    }
  }

  test("Q3 improves with larger sub-chunks") {
    for (s <- specs; algo <- Seq("BottomUp", "DepthFirst")) {
      assert(secs(s.name, "Q3", 50, algo) <= secs(s.name, "Q3", 1, algo) * 1.05,
        s"${s.name}/$algo")
    }
  }

  test("subchunk baseline wins Q3 but loses Q1 catastrophically (paper: 4075s on A0)") {
    specs.foreach { s =>
      assert(baseline(s.name, "Q3", "SubChunk") <= secs(s.name, "Q3", 1, "BottomUp") * 1.05, s.name)
      assert(baseline(s.name, "Q1", "SubChunk") > 10 * secs(s.name, "Q1", 1, "BottomUp"), s.name)
    }
  }
}
