package repro.data

import repro.core.{Ck, Hash64}

/** Deterministic model of record sizes, delta sizes, and JSON payloads.
  *
  * Both the driver-side algorithms and the DuckDB oracle's checks must
  * agree on record properties, so everything here is a pure function of the
  * packed composite key and the dataset spec.
  *
  * Sizes drive all storage/retrieval accounting at bench scale; payloads are
  * materialized only in correctness tests (the payload column of the
  * oracle's chunk relation, read back through a query's fetched chunks).
  */
object RecordModel {
  private val SizeSeed = 0x5eedL

  /** Size in bytes of the record with composite key `ck`:
    * uniform in [mean/2, 3·mean/2), deterministic.
    */
  def size(ck: Long, spec: DatasetSpec): Long = {
    val mean = spec.meanRecordSize.toLong
    mean / 2 + Hash64.nonNeg(ck, SizeSeed + spec.seed) % mean
  }

  /** Size of the delta encoding of a *modified* record against its lineage
    * parent. A modification changes at most a `P_d` fraction of the record
    * (§5.3), plus a small fixed framing overhead.
    */
  def diffSize(ck: Long, spec: DatasetSpec): Long = diffSizeOf(size(ck, spec), spec)

  /** `diffSize` of a record whose `size` is `recordSize`. */
  def diffSizeOf(recordSize: Long, spec: DatasetSpec): Long =
    math.max(4L, math.ceil(spec.pd * recordSize).toLong)

  /** Bytes to encode a deletion in a delta (just the composite key). */
  val TombstoneSize: Long = 16L

  // ---- JSON payloads (correctness tests only) -------------------------------

  /** Number of JSON fields for a record of the given size (≈16 B/field). */
  def numFields(ck: Long, spec: DatasetSpec): Int =
    math.max(2, (size(ck, spec) / 16L).toInt)

  /** Whether field `f` of record `ck` was rewritten relative to the lineage
    * parent. Deterministic; on average `P_d·numFields` fields change.
    */
  def fieldChanged(ck: Long, f: Int, spec: DatasetSpec): Boolean =
    f == 0 || (Hash64.nonNeg(ck * 1315423911L + f, spec.seed) % 1000000L) < (spec.pd * 1000000L).toLong

  /** Value of field `f` for record `ck`, following lineage: unchanged fields
    * carry the parent record's value, changed fields get a fresh value.
    * `parentOf` maps a modified record to its parent record, and any other
    * record to -1.
    */
  def fieldValue(ck: Long, f: Int, spec: DatasetSpec, parentOf: Long => Long): String = {
    var cur = ck
    var p = parentOf(cur)
    // walk up lineage until this field was (re)written; roots always write
    while (p >= 0 && !fieldChanged(cur, f, spec)) { cur = p; p = parentOf(cur) }
    f"${Hash64(cur * 2654435761L + f, spec.seed ^ 0xfaceL)}%016x"
  }

  /** Full JSON payload of the record — `{"k":…,"v":…,"f0":"…",…}`. */
  def payload(ck: Long, spec: DatasetSpec, parentOf: Long => Long): String = {
    val n = numFields(ck, spec)
    val fields = (0 until n)
      .map(f => s""""f$f":"${fieldValue(ck, f, spec, parentOf)}"""")
      .mkString(",")
    s"""{"k":${Ck.key(ck)},"v":${Ck.version(ck)},$fields}"""
  }

  /** Compressed size of a sub-chunk: the root-most record stored in full,
    * every other record delta-encoded against its (in-group) lineage parent,
    * plus fixed per-record framing (§3.4, Fig 10's compression model).
    */
  def subChunkCompressedSize(rootCk: Long, others: Seq[Long], spec: DatasetSpec): Long =
    if (others.isEmpty) size(rootCk, spec) + 16L // k = 1: no closure per record
    else size(rootCk, spec) + others.map(diffSize(_, spec)).sum + 16L * (1 + others.size)
}
