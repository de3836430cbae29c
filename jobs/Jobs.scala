package repro.jobs

import repro.data.DatasetSpec
import repro.exp.{Experiments, TableFmt}

/** §2.3 chunk-size microbenchmark table. */
object TooManyQueriesJob {
  def main(args: Array[String]): Unit = {
    val rows = Experiments.tooManyQueries()
    println(TableFmt.render("Sec 2.3 — too many queries",
      Seq("Chunk size", "Chunks fetched", "Time (secs)"),
      rows.map(r => Seq(r.chunkRecords.toString, r.chunksFetched.toString, TableFmt.secs(r.secs)))))
  }
}

/** Table 1 — measured vs closed-form costs. */
object CostTableJob {
  def main(args: Array[String]): Unit = {
    val rows = Experiments.costTable()
    println(TableFmt.render("Table 1 — storage/retrieval costs (measured | formula)",
      Seq("Approach", "Storage MB", "Storage(f)", "Ver MB", "Ver #q", "Ver MB(f)", "Ver #q(f)", "Pt KB", "Pt #q"),
      rows.map(r => Seq(r.approach, TableFmt.mb(r.storage), TableFmt.mb(r.storageFormula.toLong),
        TableFmt.mb(r.versionBytes), r.versionQueries.toString,
        TableFmt.mb(r.versionBytesFormula.toLong), f"${r.versionQueriesFormula}%.0f",
        TableFmt.kb(r.pointBytes), r.pointQueries.toString))))
  }
}

/** Table 2 — dataset descriptions. */
object DatasetsTableJob {
  def main(args: Array[String]): Unit = {
    val rows = Experiments.datasetsTable()
    println(TableFmt.render("Table 2 — datasets (scaled)",
      Seq("Dataset", "#versions", "Avg depth", "~#recs/ver", "%upd", "Type", "#unique", "Unique MB", "Total MB"),
      rows.map(s => Seq(s.name, s.nVersions.toString, f"${s.avgDepth}%.1f",
        f"${s.avgRecordsPerVersion}%.0f", f"${s.updatePct}%.0f", s.updateType,
        s.uniqueRecords.toString, TableFmt.mb(s.uniqueBytes), TableFmt.mb(s.totalBytes)))))
  }
}

/** Fig 8 — total version span per algorithm and dataset. */
object VersionSpanJob {
  def main(args: Array[String]): Unit = {
    val rows = Experiments.spanComparison(DatasetSpec.table2)
    println(TableFmt.render("Fig 8 — total version span (no compression)",
      Seq("Dataset", "Algorithm", "Total span"),
      rows.map(r => Seq(r.datasetName, r.algorithm, r.totalSpan.toString))))
  }
}

/** Fig 9 — β sweep. */
object BetaSweepJob {
  def main(args: Array[String]): Unit = {
    val rows = Experiments.betaSweep(DatasetSpec.B0, Seq(5, 10, 20, 40, 80, Int.MaxValue))
    println(TableFmt.render("Fig 9 — BottomUp subtree-size sweep (B0)",
      Seq("beta", "Total span", "Wall secs"),
      rows.map(r => Seq(if (r.beta == Int.MaxValue) "inf" else r.beta.toString,
        r.totalSpan.toString, TableFmt.secs(r.wallSecs)))))
  }
}

/** Fig 10 — compression sweep. */
object CompressionSweepJob {
  def main(args: Array[String]): Unit = {
    for (base <- Seq(DatasetSpec.A2, DatasetSpec.C0, DatasetSpec.D0)) {
      val rows = Experiments.compressionSweep(base)
      println(TableFmt.render(s"Fig 10 — span & compression vs sub-chunk size (${base.name})",
        Seq("Pd%", "k", "Algorithm", "Total span", "Compression"),
        rows.map(r => Seq(r.pdPct.toString, r.k.toString, r.algorithm,
          r.totalSpan.toString, f"${r.ratio}%.2f"))))
    }
  }
}

/** Fig 11 — query processing performance. */
object QueryPerfJob {
  def main(args: Array[String]): Unit = {
    for (spec <- Seq(DatasetSpec.A0, DatasetSpec.C0)) {
      val rows = Experiments.queryPerf(spec)
      println(TableFmt.render(s"Fig 11 — query times (${spec.name}, simulated secs)",
        Seq("Query", "k", "Algorithm", "Secs"),
        rows.map(r => Seq(r.query, r.k.fold("-")(_.toString), r.algorithm, f"${r.secs}%.4f"))))
    }
  }
}

/** Fig 12 — weak scalability. */
object ScalabilityJob {
  def main(args: Array[String]): Unit = {
    for ((name, gen) <- Seq("G" -> (DatasetSpec.G(_)), "H" -> (DatasetSpec.H(_)))) {
      val rows = Experiments.scalability(gen)
      println(TableFmt.render(s"Fig 12 — scalability (dataset $name)",
        Seq("#nodes", "Q1 secs", "Avg version span", "Q3 secs", "Avg key span"),
        rows.map(r => Seq(r.nodes.toString, f"${r.q1Secs}%.3f", f"${r.avgVersionSpan}%.1f",
          f"${r.q3Secs}%.5f", f"${r.avgKeySpan}%.1f"))))
    }
  }
}

/** Fig 13 — online partitioning quality. */
object OnlineJob {
  def main(args: Array[String]): Unit = {
    val b1 = Experiments.onlineQuality(DatasetSpec.B1, Seq(25, 50, 100), Seq(50, 100, 150, 200))
    val c1 = Experiments.onlineQuality(DatasetSpec.C1, Seq(125, 250, 500), Seq(250, 500, 750, 1000))
    for ((name, rows) <- Seq("B1" -> b1, "C1" -> c1)) {
      println(TableFmt.render(s"Fig 13 — online/offline span ratio ($name)",
        Seq("Batch size", "#versions", "Ratio"),
        rows.map(r => Seq(r.batchSize.toString, r.versions.toString, f"${r.ratio}%.3f"))))
    }
  }
}

/** Layout fingerprints: chunk count, total span and `itemChunk` hash per
  * dataset, partitioner and k, then the sub-chunk fingerprints per dataset
  * and k. Diff the output of two commits to check
  * that a change keeps every layout.
  */
object LayoutFingerprintJob {
  def main(args: Array[String]): Unit = {
    val rows = Experiments.layoutFingerprints
    println(TableFmt.render("Layout fingerprints",
      Seq("Dataset", "Algorithm", "k", "Chunks", "Total span", "itemChunk hash"),
      rows.map(r => Seq(r.datasetName, r.algorithm, r.k.toString, r.numChunks.toString,
        r.totalSpan.toString, f"${r.hash}%016x"))))
    println(TableFmt.render("Sub-chunk fingerprints",
      Seq("Dataset", "k", "Sub-chunks", "Tree size", "Sub-chunking hash"),
      Experiments.subChunkFingerprints.map(r => Seq(r.datasetName, r.k.toString, r.numSubChunks.toString,
        r.treeSize.toString, f"${r.hash}%016x"))))
  }
}
