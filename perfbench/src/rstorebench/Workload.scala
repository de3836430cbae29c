package rstorebench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.{DatasetSpec, VersionedDataGen}
import repro.kvs.{CostModel, KeyValueStore, SimulatedKVS}
import repro.online.OnlinePartitioner
import repro.query.QueryProcessor

/** How a workload turns a materialised dataset into a chunk assignment. */
sealed trait Layouter
case object BottomUpLayout extends Layouter
case object ShingleLayout extends Layouter
case object OnlineLayout extends Layouter

/** One benchmark workload: the generator spec (as a function of the seed),
  * the sub-chunk size k, the partitioning path, and how many fresh ingests
  * a run times (`ingest_s` is their median).
  */
final case class Workload(name: String, spec: Long => DatasetSpec, k: Int, layouter: Layouter,
                          ingestReps: Int) {
  def usesSpark: Boolean = layouter == ShingleLayout
}

object Workload {
  /** 32 KB chunks, the repo's scaled analogue of the paper's 1 MB. */
  val Capacity: Long = 32 * 1024
  val Nodes: Int = 4
  val OnlineBatch: Int = 100

  /** C-family shape scaled up: 4 000 versions, 1 000 root records,
    * d = 10 % uniform, 480 branches (average leaf depth ≈ 33).
    */
  def bushy(seed: Long): DatasetSpec =
    DatasetSpec("bushy", 4000, 1000, 0.10, skewed = false, numBranches = 480, seed = seed)

  /** B-family shape: 300 versions, 3 000 root records, d = 5 % skewed,
    * 9 branches (average leaf depth ≈ 63).
    */
  def branched(seed: Long): DatasetSpec =
    DatasetSpec("branched", 300, 3000, 0.05, skewed = true, numBranches = 9, seed = seed)

  // The Spark ingest takes about twice as long as the others, so it is
  // repeated fewer times to keep a run within its time budget.
  // online-batches is not listed in BENCHMARK.json: OnlinePartitioner packs
  // records by RecordModel.size, but the k = 1 sub-chunks that store them add
  // 16 B of framing each, so every run has chunks above 1.25·C and fails the
  // layout check. It stays runnable to show that, and for the Fig 13 ratio.
  val all: Seq[Workload] = Seq(
    Workload("bushy-bottomup", bushy, 1, BottomUpLayout, ingestReps = 5),
    Workload("branched-shingle-k10", branched, 10, ShingleLayout, ingestReps = 3),
    Workload("online-batches", bushy, 1, OnlineLayout, ingestReps = 5),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

/** The generated version history: what RStore is given to ingest. */
final case class History(spec: DatasetSpec, tree: VersionTree, deltas: Array[Delta],
                         lineage: collection.Map[Long, Long])

object History {
  def generate(spec: DatasetSpec): History = {
    val g = VersionedDataGen.generate(spec)
    History(spec, g.tree, g.deltas, g.lineageMap)
  }
}

/** A populated, queryable layout. */
final case class Layout(ds: VersionedDataset, sc: SubChunking, assignment: Assignment,
                        kvs: SimulatedKVS, qp: QueryProcessor, onlineChunks: Int) {
  def totalSpan: Long = qp.indexes.versionToChunks.iterator.map(_.length.toLong).sum
  def storageRatio: Double = kvs.storedBytes.toDouble / ds.itemSizes.sum
}

object Ingest {

  /** History → materialised dataset → sub-chunks → partition → indexes →
    * populated `SimulatedKVS`. Every step starts from fresh objects: a new
    * `VersionedDataset` is built from the history, so its lazy members are
    * paid for on every call. `wrap` decides which store the
    * `QueryProcessor` talks to.
    */
  def run(w: Workload, h: History, spark: Option[SparkSession], tr: Tracer,
          wrap: SimulatedKVS => KeyValueStore): Layout = {
    val ds = tr.span("dataset.materialize")(new VersionedDataset(h.spec, h.tree, h.deltas, h.lineage))
    tr.span("dataset.members_items")(ds.membersItems)
    val (sc, a, onlineChunks) = w.layouter match {
      case BottomUpLayout =>
        val sc = tr.span("subchunker.build")(SubChunker.build(ds, w.k))
        (sc, tr.span("partition.bottomup")(new BottomUpPartitioner().partition(sc.input, Workload.Capacity)), 0)
      case ShingleLayout =>
        val sc = tr.span("subchunker.build")(SubChunker.build(ds, w.k))
        val p = new ShinglePartitioner(spark.getOrElse(sys.error("Shingle needs a Spark session")))
        (sc, tr.span("partition.shingle")(p.partition(sc.input, Workload.Capacity)), 0)
      case OnlineLayout =>
        val st = tr.span("online.run") {
          new OnlinePartitioner(ds, Workload.Capacity, Workload.OnlineBatch).run(ds.tree.size)
        }
        val sc = tr.span("subchunker.build")(SubChunker.build(ds, 1))
        // k = 1: sub-chunk s is the single record scRepCk(s)
        (sc, Assignment(sc.scRepCk.map(st.ckChunk), st.numChunks), st.numChunks)
    }
    val kvs = new SimulatedKVS(Workload.Nodes, CostModel())
    val qp = tr.span("index.build")(new QueryProcessor(ds, sc, a, wrap(kvs)))
    tr.span("kvs.populate")(qp.populate())
    Layout(ds, sc, a, kvs, qp, onlineChunks)
  }

  /** Layout invariants; returns one message per violation. */
  def violations(l: Layout): Seq[String] = {
    val out = Seq.newBuilder[String]
    val a = l.assignment
    if (a.itemChunk.length != l.sc.numSubChunks)
      out += s"assignment covers ${a.itemChunk.length} of ${l.sc.numSubChunks} items"
    if (l.sc.recordSc.exists(_ < 0)) out += "a record has no sub-chunk"
    val limit = Workload.Capacity + Workload.Capacity / 4
    val over = l.qp.indexes.chunkBytes.count(_ > limit)
    if (over > 0) out += s"$over chunks exceed 1.25*C = $limit bytes (largest ${l.qp.indexes.chunkBytes.max})"
    val span = Span.total(l.sc.scMembersOrig, a)
    if (span != l.totalSpan) out += s"index span ${l.totalSpan} != Span.total $span"
    out.result()
  }
}
