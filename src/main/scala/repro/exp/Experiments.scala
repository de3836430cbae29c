package repro.exp

import repro.core._
import repro.data.{DatasetSpec, RecordModel, VersionedDataGen}
import repro.index.ChunkIndexes
import repro.kvs.{Blob, CostModel, SimulatedKVS}
import repro.online.OnlinePartitioner
import repro.query.QueryProcessor

import scala.collection.mutable
import scala.util.Random

/** One function per table of the paper's evaluation; shared by the `jobs/`
  * entrypoints and the `bench/` suites. Paper-vs-measured values are
  * recorded in EXPERIMENTS.md.
  */
object Experiments {

  /** Scaled analogue of the paper's 1 MB chunk (DESIGN.md §5). */
  val DefaultCapacity: Long = 32 * 1024

  /** A dataset cache so benches sharing a spec generate it once. */
  private val cache = mutable.HashMap.empty[DatasetSpec, VersionedDataset]
  def dataset(spec: DatasetSpec): VersionedDataset =
    cache.synchronized(cache.getOrElseUpdate(spec, VersionedDataGen.generate(spec)))

  def partitioners: Seq[Partitioner] = Seq(
    new BottomUpPartitioner(),
    new ShinglePartitioner(),
    TraversalPartitioner.dfs,
    TraversalPartitioner.bfs,
  )

  // -------------------------------------------------------------------------
  // §2.3 — the "too many queries" microbenchmark
  // -------------------------------------------------------------------------

  final case class TooManyQueriesRow(chunkRecords: Int, chunksFetched: Long, secs: Double)

  /** Reconstruct one version (a `versionRecords`-sized random subset of
    * `totalRecords` unit records) from a KVS holding chunks of
    * `chunkRecords` records each, under *random* record→chunk assignment
    * (the paper's §2.3 setup, scaled ×1/10).
    */
  def tooManyQueries(
      chunkSizes: Seq[Int] = Seq(1, 10, 100, 1000, 10000),
      totalRecords: Int = 100000,
      versionRecords: Int = 10000,
      recordBytes: Int = 100,
      seed: Long = 17L): Seq[TooManyQueriesRow] = {
    val rnd = new Random(seed)
    val versionSet = rnd.shuffle((0 until totalRecords).toVector).take(versionRecords)
    chunkSizes.map { c =>
      val perm = rnd.shuffle((0 until totalRecords).toVector) // random assignment
      val chunkOf = new Array[Int](totalRecords)
      perm.zipWithIndex.foreach { case (rec, pos) => chunkOf(rec) = pos / c }
      val kvs = new SimulatedKVS(1, CostModel())
      val numChunks = (totalRecords + c - 1) / c
      (0 until numChunks).foreach { id =>
        val recs = math.min(c, totalRecords - id * c)
        kvs.put(id.toLong, Blob(recs.toLong * recordBytes))
      }
      val needed = versionSet.map(chunkOf).distinct
      kvs.multiGet(needed.map(_.toLong))
      TooManyQueriesRow(c, needed.size.toLong, kvs.timeSecs(kvs.tally))
    }
  }

  // -------------------------------------------------------------------------
  // Table 1 — analytical cost comparison, measured
  // -------------------------------------------------------------------------

  final case class CostRow(
      approach: String,
      storage: Long, storageFormula: Double,
      versionBytes: Long, versionQueries: Long,
      versionBytesFormula: Double, versionQueriesFormula: Double,
      pointBytes: Long, pointQueries: Long)

  /** Measure the Table-1 costs on a pure-update chain and evaluate the
    * paper's closed-form expressions on the same parameters.
    */
  def costTable(
      n: Int = 60, m: Int = 2000, d: Double = 0.05,
      meanSize: Int = 256, capacity: Long = DefaultCapacity,
      seed: Long = 11L): Seq[CostRow] = {
    // pure-update chain: every change is a modification (Table 1's model)
    val spec = DatasetSpec("T1chain", n, m, d, skewed = false, numBranches = 1,
      meanRecordSize = meanSize, seed = seed)
    val ds = chainPureUpdates(spec)
    val s = ds.itemSizes.sum.toDouble / ds.uniqueCks.length // measured avg record size
    val mv = m.toDouble
    // measured compression: avg diff size / avg record size
    val modified = ds.uniqueCks.filter(ds.parentOf(_) >= 0)
    val c = modified.map(RecordModel.diffSize(_, spec)).sum.toDouble / math.max(1, modified.length) / s
    val rnd = new Random(seed)
    val versions = Seq.fill(20)(rnd.nextInt(n))
    val points = versions.map { v =>
      val live = ds.members(v)
      (v, Ck.key(live(rnd.nextInt(live.length))))
    }
    def avg(xs: Seq[Long]): Long = xs.sum / xs.length

    // each layout with its closed forms: storage, version bytes, version queries
    Seq(
      new IndependentChunkedLayout(ds, capacity) -> (n * mv * s, mv * s, mv * s / capacity),
      new DeltaLayout(ds, capacity) ->
        (mv * s + c * d * (n - 1) * mv * s, mv * s + c * d * (n - 1) * mv * s / 2, n / 2.0),
      new SubChunkLayout(ds) -> (mv * s + c * d * (n - 1) * mv * s, mv * (s + c * d * (n - 1) * s), mv),
      new SingleAddressLayout(ds) -> (mv * s + d * (n - 1) * mv * s, mv * s, mv * s),
    ).map { case (l, (storageF, versionBytesF, versionQueriesF)) =>
      val vc = versions.map(l.versionCost)
      val pc = points.map { case (v, key) => l.pointCost(v, key) }
      CostRow(l.name, l.storageBytes, storageF, avg(vc.map(_.bytes)), avg(vc.map(_.queries)),
        versionBytesF, versionQueriesF, avg(pc.map(_.bytes)), avg(pc.map(_.queries)))
    }
  }

  /** A chain where every change is a modification (no inserts/deletes) —
    * matches Table 1's simplifying assumptions exactly.
    */
  def chainPureUpdates(spec: DatasetSpec): VersionedDataset = {
    val tree = VersionTree.chain(spec.nVersions)
    val rnd = new Random(spec.seed)
    val deltas = new Array[Delta](spec.nVersions)
    // per add, in delta order: its lineage parent's origin version, or -1
    val parents = new mutable.ArrayBuilder.ofInt
    deltas(0) = Delta(Array.tabulate(spec.rootRecords)(k => Ck.pack(k.toLong, 0)), Array.emptyLongArray)
    parents.addAll(Array.fill(spec.rootRecords)(-1))
    var cur = deltas(0).adds
    for (v <- 1 until spec.nVersions) {
      val nMod = math.max(1, math.round(spec.updateFrac * cur.length).toInt)
      // one record per key, so sorting the victims sorts their successors
      val victims = rnd.shuffle(cur.toVector).take(nMod).sorted.toArray
      deltas(v) = Delta(victims.map(old => Ck.pack(Ck.key(old), v)), victims)
      victims.foreach(old => parents.addOne(Ck.version(old)))
      cur = deltas(v).applyTo(cur)
    }
    new VersionedDataset(spec, tree, deltas, Lineage(deltas, parents.result()))
  }

  // -------------------------------------------------------------------------
  // Table 2 — dataset descriptions
  // -------------------------------------------------------------------------

  def datasetsTable(specs: Seq[DatasetSpec] = DatasetSpec.table2): Seq[DatasetStats] =
    specs.map(s => dataset(s).stats)

  // -------------------------------------------------------------------------
  // Fig 8 — total version span without compression (also a table here)
  // -------------------------------------------------------------------------

  final case class SpanRow(datasetName: String, algorithm: String, totalSpan: Long)

  def spanComparison(specs: Seq[DatasetSpec], capacity: Long = DefaultCapacity): Seq[SpanRow] =
    specs.flatMap { spec =>
      val ds = dataset(spec)
      val in = PartitionInput(ds.tree, ds.membersItems, ds.itemSizes)
      val algoRows = partitioners.map { p =>
        SpanRow(spec.name, p.name, Span.total(in.members, p.partition(in, capacity)))
      }
      algoRows :+ SpanRow(spec.name, "Delta", new DeltaLayout(ds, capacity).totalVersionSpan)
    }

  // -------------------------------------------------------------------------
  // Fig 9 — β sweep for BOTTOM-UP
  // -------------------------------------------------------------------------

  final case class BetaRow(beta: Int, totalSpan: Long, wallSecs: Double)

  def betaSweep(spec: DatasetSpec, betas: Seq[Int],
                capacity: Long = DefaultCapacity): Seq[BetaRow] = {
    val ds = dataset(spec)
    val in = PartitionInput(ds.tree, ds.membersItems, ds.itemSizes)
    betas.map { b =>
      val p = new BottomUpPartitioner(b)
      val t0 = System.nanoTime()
      val a = p.partition(in, capacity)
      val secs = (System.nanoTime() - t0) / 1e9
      BetaRow(b, Span.total(in.members, a), secs)
    }
  }

  // -------------------------------------------------------------------------
  // Fig 10 — compression sweep (span + compression ratio vs sub-chunk size)
  // -------------------------------------------------------------------------

  final case class CompressionRow(datasetName: String, pdPct: Int, k: Int,
                                  algorithm: String, totalSpan: Long, ratio: Double)

  def compressionSweep(base: DatasetSpec,
                       pds: Seq[Double] = Seq(0.10, 0.05, 0.01),
                       ks: Seq[Int] = Seq(1, 5, 10, 25, 50),
                       capacity: Long = DefaultCapacity): Seq[CompressionRow] =
    for {
      pd <- pds
      spec = base.withPd(pd)
      ds = dataset(spec)
      k <- ks
      sub = SubChunker.build(ds, k)
      p <- partitioners.filterNot(_.name == "BreadthFirst")
    } yield {
      val a = p.partition(sub.input, capacity)
      CompressionRow(base.name, (pd * 100).toInt, k, p.name,
        Span.total(sub.scMembersOrig, a), sub.compressionRatio)
    }

  // -------------------------------------------------------------------------
  // Fig 11 — query processing performance (simulated seconds)
  // -------------------------------------------------------------------------

  /** One Fig 11 cell; `k` is the sub-chunk size, which a baseline has none of. */
  final case class QueryPerfRow(datasetName: String, query: String, k: Option[Int],
                                algorithm: String, secs: Double)

  /** Total simulated seconds of a sequence of queries. */
  private def secs(cost: CostModel, costs: Seq[RetrievalCost]): Double =
    costs.map(c => cost.timeSecs(c.queries, c.bytes)).sum

  def queryPerf(spec: DatasetSpec,
                ks: Seq[Int] = Seq(1, 5, 10, 25, 50),
                capacity: Long = DefaultCapacity,
                nQ1: Int = 50, nQ3: Int = 100, seed: Long = 23L): Seq[QueryPerfRow] = {
    val ds = dataset(spec)
    val rnd = new Random(seed)
    val qVersions = Seq.fill(nQ1)(rnd.nextInt(ds.tree.size))
    val allKeys = ds.uniqueCks.map(Ck.key).distinct
    val qKeys = Seq.fill(nQ3)(allKeys(rnd.nextInt(allKeys.length)))
    val keySpanRange = math.max(1L, (allKeys.max - allKeys.min) / 10)
    val qRanges = qVersions.map { v =>
      val lo = allKeys.min + (rnd.nextDouble() * (allKeys.max - allKeys.min - keySpanRange)).toLong
      (v, lo, lo + keySpanRange)
    }
    val cost = CostModel()
    def rows(algorithm: String, k: Option[Int], l: RangeCostLayout, q3Secs: Double): Seq[QueryPerfRow] =
      Seq("Q1" -> secs(cost, qVersions.map(l.versionCost)),
        "Q2" -> secs(cost, qRanges.map { case (v, lo, hi) => l.rangeCost(v, lo, hi) }),
        "Q3" -> q3Secs).map { case (q, t) => QueryPerfRow(spec.name, q, k, algorithm, t) }

    val rstore = for (k <- ks; p <- partitioners.filterNot(_.name == "BreadthFirst")) yield {
      val sub = SubChunker.build(ds, k)
      val qp = new QueryProcessor(ds, sub, p.partition(sub.input, capacity), new SimulatedKVS(1, cost))
      qp.populate()
      rows(p.name, Some(k), qp, secs(cost, qKeys.map(qp.evolutionCost)))
    }
    val delta = new DeltaLayout(ds, capacity)
    val subL = new SubChunkLayout(ds)
    rstore.flatten ++
      // DELTA's Q3 is charged one average version reconstruction per key,
      // although `evolutionCost` models reconstructing every version
      rows(delta.name, None, delta, qKeys.length * secs(cost, Seq(delta.evolutionCost)) / ds.tree.size) ++
      rows(subL.name, None, subL, secs(cost, qKeys.map(subL.evolutionCost)))
  }

  // -------------------------------------------------------------------------
  // Fig 12 — weak scalability
  // -------------------------------------------------------------------------

  final case class ScalabilityRow(datasetName: String, nodes: Int,
                                  q1Secs: Double, avgVersionSpan: Double,
                                  q3Secs: Double, avgKeySpan: Double)

  def scalability(gOrH: Int => DatasetSpec, nodes: Seq[Int] = Seq(1, 2, 4, 8, 12, 16),
                  capacity: Long = DefaultCapacity,
                  nQueries: Int = 40, seed: Long = 31L): Seq[ScalabilityRow] =
    nodes.map { nn =>
      val spec = gOrH(nn)
      val ds = dataset(spec)
      val sub = SubChunker.build(ds, 1)
      val a = new BottomUpPartitioner().partition(sub.input, capacity)
      val kvs = new SimulatedKVS(nn, CostModel())
      val qp = new QueryProcessor(ds, sub, a, kvs)
      qp.populate()
      val rnd = new Random(seed)
      val qVersions = Seq.fill(nQueries)(rnd.nextInt(ds.tree.size))
      val allKeys = ds.uniqueCks.map(Ck.key).distinct
      val qKeys = Seq.fill(nQueries)(allKeys(rnd.nextInt(allKeys.length)))
      ScalabilityRow(spec.name, nn,
        secs(kvs.cost, qVersions.map(qp.versionCost)) / nQueries,
        qVersions.map(qp.versionSpan(_).toDouble).sum / nQueries,
        secs(kvs.cost, qKeys.map(qp.evolutionCost)) / nQueries,
        qKeys.map(qp.keySpan(_).toDouble).sum / nQueries)
    }

  // -------------------------------------------------------------------------
  // Fig 13 — online partitioning quality
  // -------------------------------------------------------------------------

  final case class OnlineRow(datasetName: String, batchSize: Int, versions: Int, ratio: Double)

  def onlineQuality(spec: DatasetSpec, batchSizes: Seq[Int], checkpoints: Seq[Int],
                    capacity: Long = DefaultCapacity): Seq[OnlineRow] = {
    val ds = dataset(spec)
    val prefixes = checkpoints.map(n => n -> ds.prefix(n)).toMap
    // offline packs records by the same stored (k = 1 sub-chunk) sizes as online
    val offline = prefixes.map { case (n, pre) =>
      val sizes = pre.uniqueCks.map(RecordModel.subChunkCompressedSize(_, Nil, spec))
      val in = PartitionInput(pre.tree, pre.membersItems, sizes)
      n -> Span.total(in.members, new BottomUpPartitioner().partition(in, capacity))
    }
    for {
      b <- batchSizes
      n <- checkpoints
      if n >= b
    } yield {
      val st = new OnlinePartitioner(ds, capacity, b).run(n)
      val pre = prefixes(n)
      val online = Span.total(pre.membersItems, Assignment(pre.uniqueCks.map(st.ckChunk), st.numChunks))
      OnlineRow(spec.name, b, n, online.toDouble / offline(n))
    }
  }

  // -------------------------------------------------------------------------
  // Layout fingerprints — pins "same layout" across refactors
  // -------------------------------------------------------------------------

  final case class FingerprintRow(datasetName: String, algorithm: String, k: Int,
                                  numChunks: Int, totalSpan: Long, hash: Long)

  /** The fingerprinted datasets, each with its chunk capacity: three small
    * generated ones, A0, C0, and a DAG-converted one.
    */
  def fingerprintDatasets: Seq[(VersionedDataset, Long)] = {
    val small = Seq(
      DatasetSpec.tiny("t1", 20, 100, skewed = false, 1, seed = 1),
      DatasetSpec.tiny("t2", 30, 120, skewed = true, 3, seed = 2),
      DatasetSpec.tiny("t3", 40, 80, skewed = false, 5, seed = 3),
    ).map(s => (dataset(s), 1024L))
    val base = dataset(DatasetSpec.tiny("dag", 60, 150, skewed = false, 4, seed = 4))
    val (dag, members) = mergedDag(base, every = 5)
    small ++ Seq((dataset(DatasetSpec.A0), DefaultCapacity), (dataset(DatasetSpec.C0), DefaultCapacity),
      (DagToTree.convert(dag, members, base.spec), 1024L))
  }

  /** `ds` as a version DAG: every `every`-th version whose tree parent is
    * not the version just before it also merges that version, taking its
    * records of the keys it lacks.
    */
  def mergedDag(ds: VersionedDataset, every: Int): (VersionDag, Array[Array[Long]]) = {
    val n = ds.tree.size
    val parents = Array.tabulate(n) { v =>
      if (v == 0) Nil
      else if (v % every == 0 && ds.tree.parent(v) != v - 1) List(ds.tree.parent(v), v - 1)
      else List(ds.tree.parent(v))
    }
    val members = Array.tabulate(n) { v =>
      if (parents(v).length < 2) ds.members(v)
      else {
        val own = ds.members(v).map(Ck.key).toSet
        (ds.members(v) ++ ds.members(v - 1).filterNot(ck => own(Ck.key(ck)))).sorted
      }
    }
    (new VersionDag(parents), members)
  }

  /** Order-sensitive hash of an item→chunk map. */
  def fingerprint(itemChunk: Array[Int]): Long = {
    var h = 0L
    var i = 0
    while (i < itemChunk.length) { h = Hash64(itemChunk(i).toLong, h); i += 1 }
    h
  }

  final case class SubChunkRow(datasetName: String, k: Int, numSubChunks: Int, treeSize: Int, hash: Long)

  /** Sub-chunk count, transformed-tree size and a hash over `recordSc`,
    * `scRepCk` and `scSizes` of `SubChunker.build` at k ∈ {3, 10} on every
    * fingerprinted dataset.
    */
  def subChunkFingerprints: Seq[SubChunkRow] =
    for ((ds, _) <- fingerprintDatasets; k <- Seq(3, 10)) yield {
      val sc = SubChunker.build(ds, k)
      var h = fingerprint(sc.recordSc)
      for (x <- sc.scRepCk ++ sc.scSizes) h = Hash64(x, h)
      SubChunkRow(ds.spec.name, k, sc.numSubChunks, sc.input.tree.size, h)
    }

  /** Chunk count, total span and `itemChunk` hash of every partitioner
    * (BottomUp at β = ∞ and 20, Shingle, DFS, BFS) at k ∈ {1, 3} on every
    * fingerprinted dataset.
    */
  def layoutFingerprints: Seq[FingerprintRow] = {
    val ps = partitioners.patch(1, Seq(new BottomUpPartitioner(20)), 0)
    for {
      (ds, capacity) <- fingerprintDatasets
      k <- Seq(1, 3)
      sc = SubChunker.build(ds, k)
      p <- ps
    } yield {
      val a = p.partition(sc.input, capacity)
      FingerprintRow(ds.spec.name, p.name, k, a.numChunks, Span.total(sc.scMembersOrig, a),
        fingerprint(a.itemChunk))
    }
  }
}
