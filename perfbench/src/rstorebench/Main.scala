package rstorebench

import java.nio.file.{Files, Path, Paths}
import java.time.Instant

import org.apache.spark.sql.SparkSession
import repro.core.Ck
import repro.data.RecordModel
import repro.kvs.{CostModel, KeyValueStore, SimulatedKVS}

import scala.collection.mutable
import scala.util.control.NonFatal

/** The RStore benchmark for one workload and one seed.
  *
  * Plain run (`--trace 0`): set-up (JVM, Spark for the Shingle workload,
  * generation), repeated fresh ingests, the layout invariants, live heap,
  * one untimed pass that checks answers and evaluates the `CostModel`, then
  * a closed single-client query loop for `--seconds`, every answer checked
  * outside its timed region. Traced run (`--trace 1`): the same steps with
  * spans around each public call into a layer and a delegating store in
  * front of the KVS; it reports per-layer figures instead.
  *
  * The last stdout line is `RESULT {json}`; `perfbench/run.py` turns it into
  * the benchmark's result line.
  */
object Main {
  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        launchEpochNs: Long, outDir: Path)

  def main(argv: Array[String]): Unit = {
    val entryNs = epochNs()
    val args = parse(argv)
    val w = Workload.byName(args.workload).getOrElse {
      System.err.println(s"unknown workload ${args.workload}; known: ${Workload.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    // JVM start: from the launcher's spawn to the first line of main
    val jvmStartS = (entryNs - args.launchEpochNs) / 1e9
    require(args.launchEpochNs > 0 && jvmStartS > 0, "--launch-epoch-ns must be the launch time")
    Files.createDirectories(args.outDir)
    val bench = new Bench(w, args)
    try bench.run(jvmStartS) finally bench.close()
    sys.exit(0)
  }

  private def epochNs(): Long = { val t = Instant.now(); t.getEpochSecond * 1000000000L + t.getNano }

  private def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = m.getOrElse(k, { System.err.println(s"missing --$k"); sys.exit(2) })
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      need("launch-epoch-ns").toLong, Paths.get(need("out")))
  }
}

final class Bench(w: Workload, args: Main.Args) {
  /** Generations per run; `setup_s` uses their median. */
  val GenReps = 5
  /** Q2 and point queries in the untimed pass. Q1 covers every version and
    * Q3 every key, so their model means are exact; Q2 uses a stratified grid.
    */
  val FixedQ2 = 1000
  val FixedPoints = 20000
  val WarmUpPerKind = 30000

  private val tr = new Tracer(args.trace)
  private val costModel = CostModel()
  private var attempted = 0L
  private var failed = 0L
  private var spark: Option[SparkSession] = None

  private def nowS(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def close(): Unit = spark.foreach(_.stop())

  def run(jvmStartS: Double): Unit = {
    val spec = w.spec(args.seed)
    val sparkStartS = if (!w.usesSpark) 0.0 else {
      val t0 = System.nanoTime()
      spark = Some(startSpark())
      nowS(t0)
    }

    // ---- set-up: generation --------------------------------------------
    var history: History = null
    val genS = (1 to GenReps).map { _ =>
      history = null
      val t0 = System.nanoTime()
      history = tr.span("data.generate")(History.generate(spec))
      nowS(t0)
    }
    val h = history

    // ---- ingests, each followed by a segment of the timed query loop -------
    // Each ingest starts from a collected heap and its layout is compacted
    // before queries run on it. The --seconds of query timing are split into
    // one segment per ingest, so they are spread over the whole run: a shared
    // host has slow phases of a few seconds, and one of them then covers only
    // part of the samples the percentiles are taken over.
    val traced = args.trace
    val wrap: SimulatedKVS => KeyValueStore = kvs => if (traced) new TracingStore(kvs, tr) else kvs
    val ingests = mutable.ArrayBuffer.empty[(Double, Int)] // (wall seconds, root span id)
    val segments = mutable.ArrayBuffer.empty[Array[Array[Long]]] // per segment, per kind: ns
    val segmentNs = (args.seconds * 1e9 / w.ingestReps).toLong
    var layout: Layout = null
    var heapMb = 0.0
    var ref: Reference = null
    var mix: QueryMix = null
    var fixed: Fixed = null
    for (rep <- 1 to w.ingestReps) {
      layout = null
      System.gc()
      val root = tr.spans.length
      val t0 = System.nanoTime()
      layout = tr.span("ingest")(Ingest.run(w, h, spark, tr, wrap))
      ingests += ((nowS(t0), root))
      attempted += 1
      val bad = Ingest.violations(layout)
      if (bad.nonEmpty) { failed += 1; bad.foreach(b => System.err.println(s"layout invariant violated: $b")) }
      if (rep > 1) System.gc()
      else {
        heapMb = JvmCounters.liveHeapMb() // before the benchmark's own reference data exists
        ref = new Reference(h)
        mix = new QueryMix(ref, h.tree.size, args.seed)
        fixed = fixedPass(layout, ref, mix)
      }
      segments += querySegment(layout, ref, mix, segmentNs)
    }
    val latencies = Array.tabulate(4) { k => val a = segments.flatMap(_(k)).toArray; java.util.Arrays.sort(a); a }

    val ms = new MetricSet
    if (!traced) {
      ms.measured("setup_s", jvmStartS + sparkStartS + Stats.median(genS), "s")
      ms.measured("ingest_s", Stats.median(ingests.map(_._1).toSeq), "s")
      ms.measured("heap_mb", heapMb, "MB")
      for (k <- 0 until 4) {
        ms.measured(s"${Query.Kinds(k)}_p50_us", Stats.percentile(latencies(k), 0.50) / 1e3, "us")
        ms.measured(s"${Query.Kinds(k)}_p99_us", Stats.percentile(latencies(k), 0.99) / 1e3, "us")
      }
      for (k <- 0 until 3) ms.model(s"sim_${Query.Kinds(k)}_ms", fixed.simMs(k), "ms")
      ms.measured("total_span", layout.totalSpan.toDouble, "count")
      ms.model("storage_ratio", layout.storageRatio, "ratio")
    } else {
      layerMetrics(ms, layout, ingests.toSeq, fixed)
      tr.writeJsonl(args.outDir.resolve(s"spans-${w.name}.jsonl"))
    }

    val counts = latencies.map(_.length)
    val record = runRecord(layout, counts, fixed.queries)
    val correct = failed == 0
    val resultJson = Json.obj(Seq(
      "correct" -> correct.toString, "attempted" -> attempted.toString,
      "failed" -> failed.toString, "metrics" -> ms.json(withLabels = false)))
    val fileJson = Json.obj(Seq("run" -> record, "correct" -> correct.toString,
      "attempted" -> attempted.toString, "failed" -> failed.toString,
      "metrics" -> ms.json(withLabels = true)))
    val mode = if (traced) "trace" else "plain"
    Files.writeString(args.outDir.resolve(s"result-${w.name}-seed${args.seed}-$mode.json"), fileJson + "\n")

    println(s"run: $record")
    println(s"workload ${w.name}, seed ${args.seed}, $mode run: " +
      s"${counts.sum} timed queries (${Query.Kinds.zip(counts).map { case (k, n) => s"$k $n" }.mkString(", ")}), " +
      s"$attempted operations, $failed failed")
    println(ms.table)
    println("RESULT " + resultJson)
  }

  /** Closed loop, one client: draw, execute, time, then check outside the
    * timed region, until `ns` nanoseconds have passed. Returns the latencies
    * of each query kind.
    */
  private def querySegment(l: Layout, ref: Reference, mix: QueryMix, ns: Long): Array[Array[Long]] = {
    val lat = Array.fill(4)(new mutable.ArrayBuilder.ofLong)
    val qp = l.qp
    val deadline = System.nanoTime() + ns
    while (System.nanoTime() < deadline) {
      val q = mix.next()
      val t0 = System.nanoTime()
      val o = try { if (tr.enabled) tr.span(Bench.SpanNames(q.kind))(Query.execute(qp, q)) else Query.execute(qp, q) }
              catch { case NonFatal(e) => System.err.println(s"$q failed: $e"); null }
      val dt = System.nanoTime() - t0
      attempted += 1
      if (o == null || !Query.correct(ref, q, o)) failed += 1
      lat(q.kind) += dt
    }
    lat.map(_.result())
  }

  private def startSpark(): SparkSession = {
    val dir = args.outDir.toAbsolutePath
    SparkSession.builder
      .master(s"local[${Bench.SparkThreads}]")
      .appName("rstore-bench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", dir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", dir.resolve("spark-warehouse").toString)
      .getOrCreate()
  }

  /** Totals of the untimed pass, per query kind. */
  final class Fixed {
    val queries = new Array[Long](4)
    val simMsSum = new Array[Double](4)
    val requests = new Array[Long](4)
    val bytes = new Array[Long](4)
    val emptyChunks = new Array[Long](4)
    val answerBytes = new Array[Long](4)
    var keysWalked = 0L
    var keysPresent = 0L
    var nodeRequests: Array[Long] = Array.emptyLongArray
    def simMs(k: Int): Double = simMsSum(k) / queries(k)
  }

  /** Every version once (Q1), every key once (Q3), and seeded samples of Q2
    * and point queries: checks each answer, sums `CostModel` times and, in
    * the traced run, counts chunk requests against the answer records. Then
    * warms the query paths up.
    */
  private def fixedPass(l: Layout, ref: Reference, mix: QueryMix): Fixed = {
    val f = new Fixed
    val spec = l.ds.spec
    val store = l.qp.kvs match { case t: TracingStore => Some(t); case _ => None }
    val nodes0 = l.kvs.requestsPerNode.toArray
    def chunkOf(ck: Long): Long = l.assignment.itemChunk(l.sc.recordSc(l.ds.itemOf(ck))).toLong
    def one(q: Query): Unit = {
      val k = q.kind
      f.queries(k) += 1
      store.foreach(_.takeRequested())
      val o = checked(l, ref, q)
      if (o != null) {
        f.simMsSum(k) += costModel.timeMs(o.cost.queries, o.cost.bytes)
        f.requests(k) += o.cost.queries
        f.bytes(k) += o.cost.bytes
        o.answer.foreach(ck => f.answerBytes(k) += RecordModel.size(ck, spec))
        store.foreach { s =>
          val holding = o.answer.iterator.map(chunkOf).toSet
          f.emptyChunks(k) += s.takeRequested().count(c => !holding.contains(c))
        }
      }
      q match {
        case Q2(_, lo, hi) => f.keysWalked += hi - lo + 1; f.keysPresent += ref.keysIn(lo, hi)
        case _ =>
      }
    }
    val wasEnabled = tr.enabled
    tr.enabled = false
    try {
      (0 until l.ds.tree.size).foreach(v => one(Q1(v)))
      ref.allKeys.foreach(key => one(Q3(key)))
      mix.q2Grid(FixedQ2).foreach(one)
      (1 to FixedPoints).foreach(_ => one(mix.point()))
      f.nodeRequests = l.kvs.requestsPerNode.toArray.zip(nodes0).map { case (a, b) => a - b }
      // warm-up: Q1, Q3 and point run WarmUpPerKind times in all before
      // timing starts (Q2's key walk is already hot), so the first timed
      // segment does not run while the JIT is still compiling them
      val keys = ref.allKeys
      for (i <- f.queries(0).toInt until WarmUpPerKind) checked(l, ref, Q1(i % l.ds.tree.size))
      for (i <- f.queries(2).toInt until WarmUpPerKind) checked(l, ref, Q3(keys(i % keys.length)))
      for (_ <- f.queries(3).toInt until WarmUpPerKind) checked(l, ref, mix.point())
    } finally tr.enabled = wasEnabled
    f
  }

  /** Executes one untimed query and checks its answer; null on an exception. */
  private def checked(l: Layout, ref: Reference, q: Query): Query.Outcome = {
    attempted += 1
    val o = try Query.execute(l.qp, q) catch { case NonFatal(e) => System.err.println(s"$q failed: $e"); null }
    if (o == null || !Query.correct(ref, q, o)) failed += 1
    o
  }

  /** Per-layer figures from the traced ingests, the untimed pass and the
    * traced query segments.
    */
  private def layerMetrics(ms: MetricSet, l: Layout, ingests: Seq[(Double, Int)], f: Fixed): Unit = {
    val spans = tr.spans
    def byName(n: String) = spans.iterator.filter(_.name == n)
    def medianOf(xs: Iterator[Double]): Double = { val s = xs.toSeq; if (s.isEmpty) 0.0 else Stats.median(s) }
    // per ingest rep: the layer span with this name (at most one per rep)
    def layer(root: Int, n: String): Option[Span] = tr.children(root).find(_.name == n)
    def layerMedian(n: String, g: Span => Double): Double =
      medianOf(ingests.iterator.map { case (_, root) => layer(root, n).map(g).getOrElse(0.0) })

    ms.measured("data.generate_s", medianOf(byName("data.generate").map(_.durNs / 1e9)), "s")
    // online.* figures only on the online workload; the others would report 0
    val online = w.layouter == OnlineLayout
    val jvmLayers = Seq("dataset.materialize", "dataset.members_items", "subchunker.build",
      "partition.bottomup", "partition.shingle", "online.run", "index.build").filter(n => online || n != "online.run")
    (jvmLayers :+ "kvs.populate").foreach(n => ms.measured(s"${n}_s", layerMedian(n, _.durNs / 1e9), "s"))
    ms.measured("ingest.traced_s", medianOf(ingests.iterator.map(_._1)), "s")
    ms.measured("ingest.span_coverage", medianOf(ingests.iterator.map { case (wall, root) =>
      tr.children(root).map(_.durNs).sum / 1e9 / wall }), "ratio")

    ms.measured("dataset.membership_entries", l.ds.members.iterator.map(_.length.toLong).sum.toDouble, "count")
    ms.measured("subchunker.subchunks", l.sc.numSubChunks.toDouble, "count")
    ms.model("subchunker.compression_ratio", l.sc.compressionRatio, "ratio")
    if (online) ms.measured("online.chunks", l.onlineChunks.toDouble, "count")

    val cap = Workload.Capacity.toDouble
    val fill = l.qp.indexes.chunkBytes.map(b => (b / cap * 1e6).toLong).sorted
    ms.measured("partition.chunks", l.assignment.numChunks.toDouble, "count")
    ms.model("partition.fill_p10", Stats.percentile(fill, 0.10) / 1e6, "ratio")
    ms.model("partition.fill_p50", Stats.percentile(fill, 0.50) / 1e6, "ratio")
    ms.model("partition.over_capacity", l.qp.indexes.chunkBytes.count(_ > Workload.Capacity).toDouble, "count")
    val lowerBound = l.sc.scMembersOrig.iterator.map { scs =>
      val b = scs.iterator.map(l.sc.scSizes(_)).sum
      (b + Workload.Capacity - 1) / Workload.Capacity
    }.sum
    ms.model("partition.span_lb_ratio", l.totalSpan.toDouble / lowerBound, "ratio")

    ms.model("index.version_index_bytes", l.qp.indexes.versionIndexBytes.toDouble, "bytes")
    ms.model("index.key_index_bytes", l.qp.indexes.keyIndexBytes.toDouble, "bytes")

    // traced query loop: each query span and its kvs.get children
    val querySpans = spans.iterator.filter(s => s.parent == -1 && s.name.startsWith("query.")).toArray
    val kvsNs = new Array[Long](spans.length)
    spans.iterator.filter(_.name == "kvs.get").foreach(s => kvsNs(s.parent) += s.durNs)
    def p50us(xs: Iterator[Long]): Double = {
      val a = xs.toArray; java.util.Arrays.sort(a)
      if (a.isEmpty) 0.0 else Stats.percentile(a, 0.5) / 1e3
    }
    ms.measured("kvs.get_us", p50us(querySpans.iterator.map(s => kvsNs(s.id))), "us")
    // per query of the mix: the mean over the four kinds, each 25 % of the mix
    def mixMean(x: Array[Long]): Double = (0 until 4).map(k => Stats.ratio(x(k), f.queries(k))).sum / 4
    ms.model("kvs.requests", mixMean(f.requests), "count/query")
    ms.model("kvs.bytes", mixMean(f.bytes), "bytes/query")
    ms.measured("kvs.node_skew", Stats.ratio(f.nodeRequests.max, f.nodeRequests.sum.toDouble / f.nodeRequests.length), "ratio")
    for (k <- 0 until 4) {
      val n = Bench.SpanNames(k)
      ms.measured(s"$n.self_us", p50us(querySpans.iterator.filter(_.name == n).map(s => s.durNs - kvsNs(s.id))), "us")
    }
    for (k <- 0 until 4) ms.measured(s"${Bench.SpanNames(k)}.chunks", Stats.ratio(f.requests(k), f.queries(k)), "count/query")
    for (k <- Seq(1, 3))
      ms.measured(s"${Bench.SpanNames(k)}.empty_chunk_ratio", Stats.ratio(f.emptyChunks(k), f.requests(k)), "ratio")
    for (k <- 0 until 3)
      ms.model(s"${Bench.SpanNames(k)}.read_amp", Stats.ratio(f.bytes(k), f.answerBytes(k)), "ratio")
    ms.measured("query.q2.keys_walked", Stats.ratio(f.keysWalked, f.queries(1)), "count/query")
    ms.measured("query.q2.keys_present", Stats.ratio(f.keysPresent, f.queries(1)), "count/query")

    // JVM counters: median over ingest reps per layer; per 1000 queries for the loop
    jvmLayers.foreach { n =>
      ms.measured(s"$n.alloc_mb", layerMedian(n, _.allocBytes / 1048576.0), "MB")
      ms.measured(s"$n.gc_ms", layerMedian(n, _.gcMs.toDouble), "ms")
    }
    val perK = 1000.0 / math.max(1, querySpans.length)
    ms.measured("query.alloc_mb", querySpans.iterator.map(_.allocBytes).sum / 1048576.0 * perK, "MB/1000q")
    ms.measured("query.gc_ms", querySpans.iterator.map(_.gcMs).sum * perK, "ms/1000q")
  }

  private def runRecord(l: Layout, timedQueries: Array[Int], fixedQueries: Array[Long]): String = {
    val rt = java.lang.management.ManagementFactory.getRuntimeMXBean
    val xmx = rt.getInputArguments.toArray.map(_.toString).filter(_.startsWith("-Xmx")).lastOption.getOrElse("(default)")
    val st = l.ds.stats
    val sparkFields = spark match {
      case Some(s) => Seq("spark_master" -> Json.str(s.sparkContext.master),
        "spark_default_parallelism" -> s.sparkContext.defaultParallelism.toString,
        "spark_shuffle_partitions" -> Json.str(s.conf.get("spark.sql.shuffle.partitions")))
      case None => Seq("spark_master" -> "null")
    }
    Json.obj(Seq(
      "workload" -> Json.str(w.name),
      "seed" -> args.seed.toString,
      "trace" -> args.trace.toString,
      "seconds" -> Json.num(args.seconds),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "xmx" -> Json.str(xmx),
      "max_heap_mb" -> Json.num(Runtime.getRuntime.maxMemory / 1048576.0),
      "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"),
    ) ++ sparkFields ++ Seq(
      "capacity_bytes" -> Workload.Capacity.toString,
      "kvs_nodes" -> Workload.Nodes.toString,
      "k" -> w.k.toString,
      "generate_reps" -> GenReps.toString,
      "ingest_reps" -> w.ingestReps.toString,
      "dataset" -> Json.obj(Seq(
        "spec" -> Json.str(l.ds.spec.toString),
        "versions" -> st.nVersions.toString,
        "avg_depth" -> Json.num(st.avgDepth),
        "records_per_version" -> Json.num(st.avgRecordsPerVersion),
        "unique_records" -> st.uniqueRecords.toString,
        "keys" -> Json.num(l.ds.uniqueCks.iterator.map(Ck.key).distinct.size.toDouble))),
      "untimed_queries" -> fixedQueries.mkString("[", ", ", "]"),
      "timed_queries" -> timedQueries.mkString("[", ", ", "]"),
    ))
  }
}

object Bench {
  val SpanNames: Array[String] = Query.Kinds.map(k => s"query.$k")
  /** Spark's local thread count: at most 4, never above the cores available. */
  def SparkThreads: Int = math.min(4, Runtime.getRuntime.availableProcessors)
}
