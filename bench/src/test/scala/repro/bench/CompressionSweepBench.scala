package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.DatasetSpec
import repro.exp.{Experiments, TableFmt}

/** Fig 10 — partitioning quality and compression ratio as the max
  * sub-chunk size k varies, at P_d ∈ {10 %, 5 %, 1 %}, datasets A2/C0/D0.
  *
  * Paper's qualitative results:
  *  - BOTTOM-UP has the best span throughout;
  *  - compression ratio grows with k and with smaller P_d;
  *  - at high P_d (10 %), span *rises* with k (Factor 1: fewer useful
  *    records per fetched chunk); at low P_d (1 %) compression wins
  *    (Factor 2) and span falls (branched datasets C0/D0);
  *  - for the linear-chain dataset A, Factor 2 dominates earlier.
  */
class CompressionSweepBench extends AnyFunSuite {

  private val bases = Seq(DatasetSpec.A2, DatasetSpec.C0, DatasetSpec.D0)
  private lazy val all = bases.map(b => b.name -> Experiments.compressionSweep(b)).toMap

  private def rows(ds: String) = all(ds)
  private def span(ds: String, pd: Int, k: Int, algo: String): Long =
    rows(ds).find(r => r.pdPct == pd && r.k == k && r.algorithm == algo).get.totalSpan
  private def ratio(ds: String, pd: Int, k: Int): Double =
    rows(ds).find(r => r.pdPct == pd && r.k == k).get.ratio

  test("print Fig 10 compression sweep tables") {
    bases.foreach { b =>
      println(TableFmt.render(
        s"Fig 10 — span & compression vs sub-chunk size (${b.name}; paper: BottomUp best, ratio grows with k and 1/Pd)",
        Seq("Pd%", "k", "BottomUp", "Shingle", "DepthFirst", "Compression"),
        for (pd <- Seq(10, 5, 1); k <- Seq(1, 5, 10, 25, 50)) yield Seq(
          pd.toString, k.toString,
          span(b.name, pd, k, "BottomUp").toString,
          span(b.name, pd, k, "Shingle").toString,
          span(b.name, pd, k, "DepthFirst").toString,
          f"${ratio(b.name, pd, k)}%.2f")))
    }
  }

  test("bottom-up has the best span across the sweep") {
    for (b <- bases; pd <- Seq(10, 5, 1); k <- Seq(1, 5, 10, 25, 50)) {
      val bu = span(b.name, pd, k, "BottomUp")
      val others = Seq("Shingle", "DepthFirst").map(span(b.name, pd, k, _))
      assert(bu <= others.min * 1.15, s"${b.name} pd=$pd k=$k: bu=$bu others=$others")
    }
  }

  test("compression ratio grows with k at every Pd") {
    for (b <- bases; pd <- Seq(10, 5, 1)) {
      val rs = Seq(1, 5, 10, 25, 50).map(ratio(b.name, pd, _))
      rs.zip(rs.tail).foreach { case (a, c) => assert(c >= a * 0.98, s"${b.name} pd=$pd: $rs") }
    }
  }

  test("compression ratio grows as Pd shrinks") {
    for (b <- bases; k <- Seq(10, 50)) {
      assert(ratio(b.name, 1, k) > ratio(b.name, 10, k), s"${b.name} k=$k")
    }
  }

  test("total span at fixed k decreases as Pd decreases (Factor 2)") {
    for (b <- bases; k <- Seq(25, 50)) {
      assert(span(b.name, 1, k, "BottomUp") <= span(b.name, 10, k, "BottomUp"),
        s"${b.name} k=$k")
    }
  }

  test("at Pd=10% span rises with k on branched datasets (Factor 1 dominates)") {
    Seq("C0", "D0").foreach { n =>
      assert(span(n, 10, 50, "BottomUp") >= span(n, 10, 1, "BottomUp"), n)
    }
  }
}
