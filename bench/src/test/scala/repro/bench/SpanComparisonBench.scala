package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.DatasetSpec
import repro.exp.{Experiments, TableFmt}

/** Fig 8 (rendered as a table) — total version span without compression,
  * 32 KB chunks (scaled analogue of the paper's 1 MB), all Table-2
  * datasets, algorithms BOTTOM-UP / SHINGLE / DFS / BFS plus the DELTA
  * baseline.
  *
  * Paper's qualitative results to reproduce:
  *  - BOTTOM-UP, SHINGLE and DFS all beat DELTA on every dataset;
  *  - BOTTOM-UP beats DELTA by up to ~8.2x, on average ~3.6x;
  *  - BFS is never better than DFS (equal on chains);
  *  - BOTTOM-UP is the only uniformly strong technique.
  */
class SpanComparisonBench extends AnyFunSuite {

  private lazy val rows = Experiments.spanComparison(DatasetSpec.table2)
  private def span(ds: String, algo: String): Long =
    rows.find(r => r.datasetName == ds && r.algorithm == algo).get.totalSpan

  test("print Fig 8 span table") {
    val algos = Seq("BottomUp", "Shingle", "DepthFirst", "BreadthFirst", "Delta")
    println(TableFmt.render(
      "Fig 8 — total version span, no compression (paper: BottomUp best everywhere, avg 3.56x over Delta)",
      "Dataset" +: algos :+ "Delta/BottomUp",
      DatasetSpec.table2.map { s =>
        val vals = algos.map(a => span(s.name, a))
        s.name +: vals.map(_.toString) :+ f"${vals.last.toDouble / vals.head}%.2f"
      }))
  }

  test("bottom-up beats delta on every dataset") {
    DatasetSpec.table2.foreach { s =>
      assert(span(s.name, "BottomUp") < span(s.name, "Delta"),
        s"${s.name}: BottomUp ${span(s.name, "BottomUp")} vs Delta ${span(s.name, "Delta")}")
    }
  }

  test("bottom-up beats delta by a large average factor (paper: 3.56x)") {
    val factors = DatasetSpec.table2.map(s =>
      span(s.name, "Delta").toDouble / span(s.name, "BottomUp"))
    val avg = factors.sum / factors.size
    assert(avg > 1.8, f"average factor $avg%.2f")
    assert(factors.max > 3.0, f"max factor ${factors.max}%.2f (paper: 8.21x)")
  }

  test("breadth-first is never better than depth-first") {
    DatasetSpec.table2.foreach { s =>
      assert(span(s.name, "BreadthFirst") >= span(s.name, "DepthFirst"), s.name)
    }
  }

  test("dfs and bfs coincide on linear chains (A datasets)") {
    Seq("A0", "A1", "A2").foreach { n =>
      assert(span(n, "DepthFirst") == span(n, "BreadthFirst"), n)
    }
  }

  test("bottom-up is uniformly competitive (within 40% of the best everywhere)") {
    // paper: "none of these techniques perform uniformly well ... unlike
    // BOTTOM-UP". Shingle/DFS each collapse on some datasets (up to 2.4x
    // worse); BottomUp must stay close to the per-dataset best everywhere.
    DatasetSpec.table2.foreach { s =>
      val best = Seq("BottomUp", "Shingle", "DepthFirst", "BreadthFirst")
        .map(span(s.name, _)).min
      assert(span(s.name, "BottomUp") <= best * 1.4,
        s"${s.name}: BottomUp ${span(s.name, "BottomUp")} vs best $best")
    }
    // and the *other* techniques are each far from the best somewhere
    Seq("Shingle", "DepthFirst").foreach { algo =>
      val worstGap = DatasetSpec.table2.map { s =>
        val best = Seq("BottomUp", "Shingle", "DepthFirst").map(span(s.name, _)).min
        span(s.name, algo).toDouble / best
      }.max
      assert(worstGap > 1.4, s"$algo never collapses (worst gap $worstGap)")
    }
  }

  test("depth-first degrades relative to bottom-up as trees get shallower") {
    // paper: DFS improves with shallower trees but BottomUp stays ahead
    val chainGap = span("A1", "DepthFirst").toDouble / span("A1", "BottomUp")
    assert(chainGap >= 0.99, s"chain gap $chainGap")
  }
}
