package repro.data

import repro.core.{Ck, Delta, VersionedDataset, VersionTree}

import scala.collection.mutable
import scala.util.Random

/** Synthetic versioned-dataset generator (§5.1).
  *
  * Follows the paper's recipe: generate a version tree first (branch-head
  * model mimicking the real-life version graphs of [4]), then derive each
  * version from its parent by modifying/deleting existing records and
  * inserting new ones. Per commit, `d·m′` records change, split
  * 80 % modifications / 10 % deletes / 10 % inserts so version sizes stay
  * roughly constant. Victim selection is uniform ("Random") or power-biased
  * towards old keys ("Skewed", the paper's Zipf updates).
  *
  * Deterministic in the spec (including the seed).
  */
object VersionedDataGen {

  /** Grow the version tree with `spec.numBranches` branch heads: most
    * commits extend a random head; at a fixed cadence a new branch is forked
    * from a uniformly random existing version.
    */
  def genTree(spec: DatasetSpec): VersionTree = {
    val n = spec.nVersions
    val rnd = new Random(spec.seed * 31 + 1)
    val parent = new Array[Int](n)
    parent(0) = -1
    val heads = mutable.ArrayBuffer(0)
    val forkEvery = math.max(1, n / spec.numBranches)
    var v = 1
    while (v < n) {
      if (heads.size < spec.numBranches && v % forkEvery == 0) {
        parent(v) = rnd.nextInt(v) // fork a new branch off a random version
        heads += v
      } else {
        val h = rnd.nextInt(heads.size) // extend a random branch
        parent(v) = heads(h)
        heads(h) = v
      }
      v += 1
    }
    new VersionTree(parent)
  }

  /** Pick `count` distinct indices in `[0, len)`. Skewed selection draws
    * `⌊len·U³⌋`, concentrating changes on the oldest (lowest) keys.
    */
  private def pickVictims(len: Int, count: Int, skewed: Boolean, rnd: Random): Array[Int] = {
    require(count <= len, s"cannot pick $count of $len")
    val seen = mutable.LinkedHashSet.empty[Int]
    if (count > len / 2 && !skewed) {
      // dense uniform case: permute instead of rejection-sampling
      rnd.shuffle((0 until len).toVector).take(count).foreach(seen += _)
    } else {
      var guard = 0
      while (seen.size < count && guard < 100 * count + 1000) {
        val u = rnd.nextDouble()
        val idx = if (skewed) (len * u * u * u).toInt else (len * u).toInt
        seen += math.min(idx, len - 1)
        guard += 1
      }
      var fill = 0 // pathological skew fallback: take lowest unused indices
      while (seen.size < count) { if (!seen.contains(fill)) seen += fill; fill += 1 }
    }
    seen.toArray
  }

  def generate(spec: DatasetSpec): VersionedDataset = {
    val tree = genTree(spec)
    val n = tree.size
    val rnd = new Random(spec.seed)
    val deltas = new Array[Delta](n)
    val lineage = mutable.LongMap.empty[Long]
    val members = new Array[Array[Long]](n)

    deltas(0) = Delta(Array.tabulate(spec.rootRecords)(k => Ck.pack(k.toLong, 0)),
                      Array.emptyLongArray)
    members(0) = deltas(0).adds
    var nextKey = spec.rootRecords.toLong

    var v = 1
    while (v < n) {
      val pm = members(tree.parent(v))
      val changes = math.max(1, math.round(spec.updateFrac * pm.length).toInt)
      val nMod = math.max(1, (changes * 0.8).toInt)
      val nDel = math.min((changes * 0.1).toInt, pm.length - nMod)
      val nIns = math.max(0, changes - nMod - nDel)
      // modifications follow the spec's distribution (the "hot set" under
      // skew); deletions are always uniform — otherwise skewed deletes would
      // eat the hot keys and the bias could not persist across versions
      val modVictims = pickVictims(pm.length, nMod, spec.skewed, rnd)
      val modSet = modVictims.toSet
      val delVictims = {
        val out = scala.collection.mutable.LinkedHashSet.empty[Int]
        var guard = 0
        while (out.size < nDel && guard < 100 * nDel + 1000) {
          val i = rnd.nextInt(pm.length)
          if (!modSet.contains(i)) out += i
          guard += 1
        }
        out.toArray
      }

      val adds = new mutable.ArrayBuilder.ofLong
      val dels = new mutable.ArrayBuilder.ofLong
      modVictims.foreach { idx => // modifications: new record, lineage to the old one
        val old = pm(idx)
        val neu = Ck.pack(Ck.key(old), v)
        lineage(neu) = old
        adds.addOne(neu)
        dels.addOne(old)
      }
      delVictims.foreach(idx => dels.addOne(pm(idx))) // deletions
      var j = 0
      while (j < nIns) { adds.addOne(Ck.pack(nextKey, v)); nextKey += 1; j += 1 }

      val d = Delta(adds.result().sorted, dels.result().sorted)
      deltas(v) = d
      members(v) = d.applyTo(pm)
      v += 1
    }

    // VersionedDataset replays the deltas when its membership is first
    // used; the local `members` array only served victim selection here.
    new VersionedDataset(spec, tree, deltas, lineage)
  }
}
