package repro.data

import repro.core.Ck

/** Parameters of one synthetic versioned dataset (§5.1, Table 2).
  *
  * The paper's datasets are 30 GB–1 TB; we reproduce their *shape* at
  * laptop scale (see DESIGN.md §5): versions ÷10, records/version ÷50,
  * record size ÷4 (≈256 B), chunk capacity 32 KB (scaled analogue of 1 MB,
  * preserving records-per-chunk ≈ 10⁻²·m′).
  *
  * @param nVersions      total number of versions (incl. the root `V_0`)
  * @param rootRecords    number of records in the root version (≈ m′, kept
  *                       roughly constant by balancing inserts and deletes)
  * @param updateFrac     `d` — fraction of a version's records changed per
  *                       commit; split 80 % modifications / 10 % deletes /
  *                       10 % inserts
  * @param skewed         record-selection distribution for updates/deletes:
  *                       `false` = uniform ("Random"), `true` = power-biased
  *                       towards the oldest keys ("Skewed"/Zipf)
  * @param numBranches    number of branches grown by the generator; 1 gives
  *                       a linear chain (datasets A*), larger values give
  *                       bushier trees with smaller average depth
  * @param meanRecordSize mean record size in bytes (sizes are uniform in
  *                       [mean/2, 3·mean/2), deterministic per record)
  * @param pd             `P_d` — bound on the fraction of a record changed
  *                       by one modification; drives delta/compressed sizes
  * @param seed           RNG seed; generation is deterministic in the spec
  */
final case class DatasetSpec(
    name: String,
    nVersions: Int,
    rootRecords: Int,
    updateFrac: Double,
    skewed: Boolean,
    numBranches: Int,
    meanRecordSize: Int = 256,
    pd: Double = 0.1,
    seed: Long = 42L,
) {
  require(nVersions >= 1 && rootRecords >= 1 && numBranches >= 1)
  require(nVersions <= Ck.MaxVersions,
    s"$nVersions versions exceed the limit of ${Ck.MaxVersions} (2^${Ck.VersionBits}) a composite key can address")
  require(updateFrac >= 0 && updateFrac <= 1 && pd > 0 && pd <= 1)

  def updateType: String = if (skewed) "Skewed" else "Random"

  def withPd(p: Double): DatasetSpec = copy(pd = p, name = f"$name/pd=${(p * 100).toInt}%d%%")
}

/** Scaled analogues of the paper's datasets (Table 2) plus the scalability
  * datasets G/H (§5.5). Branch counts were tuned so the measured average
  * depth ratio (depth / versions) tracks the paper's.
  */
object DatasetSpec {
  // Paper A*: 300 versions, chain (avg depth 300), 100K records
  val A0: DatasetSpec = DatasetSpec("A0", 60, 2000, 0.50, skewed = false, numBranches = 1)
  val A1: DatasetSpec = DatasetSpec("A1", 60, 2000, 0.05, skewed = true, numBranches = 1)
  val A2: DatasetSpec = DatasetSpec("A2", 60, 2000, 0.05, skewed = false, numBranches = 1)
  // Paper B*: 1001 versions, avg depth 293.5 (ratio 0.293), 100K records
  val B0: DatasetSpec = DatasetSpec("B0", 200, 2000, 0.05, skewed = true, numBranches = 6)
  val B1: DatasetSpec = DatasetSpec("B1", 200, 2000, 0.05, skewed = false, numBranches = 6)
  val B2: DatasetSpec = DatasetSpec("B2", 200, 2000, 0.10, skewed = false, numBranches = 6)
  // Paper C*: 10001 versions, avg depth 143 (ratio 0.0143), 20K records
  val C0: DatasetSpec = DatasetSpec("C0", 1000, 400, 0.10, skewed = false, numBranches = 120)
  val C1: DatasetSpec = DatasetSpec("C1", 1000, 400, 0.01, skewed = false, numBranches = 120)
  val C2: DatasetSpec = DatasetSpec("C2", 1000, 400, 0.05, skewed = true, numBranches = 120)
  // Paper D*: 10002 versions, avg depth 94.4 (ratio 0.0094), 20K records
  val D0: DatasetSpec = DatasetSpec("D0", 1000, 400, 0.10, skewed = false, numBranches = 170)
  val D1: DatasetSpec = DatasetSpec("D1", 1000, 400, 0.01, skewed = false, numBranches = 170)
  val D2: DatasetSpec = DatasetSpec("D2", 1000, 400, 0.05, skewed = true, numBranches = 170)
  // Paper E: C0 shape with ~5x record size (78.96 GB unique)
  val E: DatasetSpec =
    DatasetSpec("E", 1000, 400, 0.10, skewed = false, numBranches = 13, meanRecordSize = 1280)
  // Paper F: 1001 versions, avg depth 56 (ratio 0.056), 100K records, 20% update, ~5x size
  val F: DatasetSpec =
    DatasetSpec("F", 200, 2000, 0.20, skewed = false, numBranches = 6, meanRecordSize = 1280)

  /** All Table-2 datasets, in the paper's order. */
  val table2: Seq[DatasetSpec] = Seq(A0, A1, A2, B0, B1, B2, C0, C1, C2, D0, D1, D2, E, F)

  /** Scalability dataset G (§5.5): data doubles with the cluster; at 16
    * nodes the paper has 10K versions × ~50K records. Scaled: 100 versions
    * per node × 1000 records.
    */
  def G(nodes: Int): DatasetSpec =
    DatasetSpec(s"G$nodes", 100 * nodes, 1000, 0.10, skewed = false,
      numBranches = math.max(1, 5 * nodes), seed = 7L)

  /** Scalability dataset H (§5.5): fewer, larger versions (2K versions ×
    * 100K records at 16 nodes in the paper). Scaled: 25 versions per node ×
    * 2000 records, larger records.
    */
  def H(nodes: Int): DatasetSpec =
    DatasetSpec(s"H$nodes", 25 * nodes, 2000, 0.10, skewed = false,
      numBranches = math.max(1, nodes), meanRecordSize = 512, seed = 8L)

  /** Unit-test sized dataset: fast to generate, still branched. */
  def tiny(name: String = "tiny", versions: Int = 20, records: Int = 100,
           skewed: Boolean = false, branches: Int = 3, seed: Long = 1L): DatasetSpec =
    DatasetSpec(name, versions, records, 0.20, skewed, branches,
      meanRecordSize = 64, seed = seed)
}
