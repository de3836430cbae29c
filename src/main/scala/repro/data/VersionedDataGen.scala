package repro.data

import repro.core.{Ck, Delta, Lineage, VersionedDataset, VersionTree}

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

  /** Pick `count` distinct indices in `[0, len)`, in the order drawn, and
    * set `mark` to `stamp` at each (`mark` holds no `stamp` on entry).
    * Skewed selection draws `⌊len·U³⌋`, concentrating changes on the oldest
    * (lowest) keys.
    */
  private def pickVictims(len: Int, count: Int, skewed: Boolean, rnd: Random,
                          mark: Array[Int], stamp: Int): Array[Int] = {
    require(count <= len, s"cannot pick $count of $len")
    val out = new mutable.ArrayBuilder.ofInt
    def take(i: Int): Unit = if (mark(i) != stamp) { mark(i) = stamp; out.addOne(i) }
    if (count > len / 2 && !skewed) {
      // dense uniform case: permute instead of rejection-sampling
      rnd.shuffle((0 until len).toVector).take(count).foreach(take)
    } else {
      var guard = 0
      while (out.length < count && guard < 100 * count + 1000) {
        val u = rnd.nextDouble()
        val idx = if (skewed) (len * u * u * u).toInt else (len * u).toInt
        take(math.min(idx, len - 1))
        guard += 1
      }
      var fill = 0 // pathological skew fallback: take lowest unused indices
      while (out.length < count) { take(fill); fill += 1 }
    }
    out.result()
  }

  def generate(spec: DatasetSpec): VersionedDataset = {
    val tree = genTree(spec)
    val n = tree.size
    val rnd = new Random(spec.seed)
    val deltas = new Array[Delta](n)
    // per add, in delta order: its lineage parent's origin version, or -1
    val parents = new mutable.ArrayBuilder.ofInt
    val members = new Array[Array[Long]](n)
    // per index of the parent's row: the stamp of the last pick that took it
    var mark = new Array[Int](spec.rootRecords)

    deltas(0) = Delta(Array.tabulate(spec.rootRecords)(k => Ck.pack(k.toLong, 0)),
                      Array.emptyLongArray)
    members(0) = deltas(0).adds
    parents.addAll(Array.fill(spec.rootRecords)(-1))
    var nextKey = spec.rootRecords.toLong

    var v = 1
    while (v < n) {
      val pm = members(tree.parent(v))
      val changes = math.max(1, math.round(spec.updateFrac * pm.length).toInt)
      val nMod = math.max(1, (changes * 0.8).toInt)
      val nDel = math.min((changes * 0.1).toInt, pm.length - nMod)
      val nIns = math.max(0, changes - nMod - nDel)
      if (mark.length < pm.length) mark = java.util.Arrays.copyOf(mark, 2 * pm.length)
      val modStamp = 2 * v
      val delStamp = 2 * v + 1
      // modifications follow the spec's distribution (the "hot set" under
      // skew); deletions are always uniform — otherwise skewed deletes would
      // eat the hot keys and the bias could not persist across versions
      val modVictims = pickVictims(pm.length, nMod, spec.skewed, rnd, mark, modStamp)
      val delVictims = {
        val out = new mutable.ArrayBuilder.ofInt
        var guard = 0
        while (out.length < nDel && guard < 100 * nDel + 1000) {
          val i = rnd.nextInt(pm.length)
          if (mark(i) != modStamp && mark(i) != delStamp) { mark(i) = delStamp; out.addOne(i) }
          guard += 1
        }
        out.result()
      }

      // `pm` is sorted with one record per key, so its modified records in
      // index order are sorted by key, and so are the records replacing
      // them; inserts take fresh keys above every existing one, so `adds`
      // is sorted as built and `parents` stays aligned with it
      java.util.Arrays.sort(modVictims)
      val adds = new Array[Long](nMod + nIns)
      val dels = new Array[Long](nMod + delVictims.length)
      var j = 0
      while (j < nMod) { // modifications: new record, lineage to the old one
        val old = pm(modVictims(j))
        adds(j) = Ck.pack(Ck.key(old), v)
        parents.addOne(Ck.version(old))
        dels(j) = old
        j += 1
      }
      j = 0
      while (j < delVictims.length) { dels(nMod + j) = pm(delVictims(j)); j += 1 } // deletions
      java.util.Arrays.sort(dels)
      j = 0
      while (j < nIns) { adds(nMod + j) = Ck.pack(nextKey, v); parents.addOne(-1); nextKey += 1; j += 1 }

      val d = Delta(adds, dels)
      deltas(v) = d
      members(v) = d.applyTo(pm)
      v += 1
    }

    // VersionedDataset replays the deltas when its membership is first
    // used; the local `members` array only served victim selection here.
    new VersionedDataset(spec, tree, deltas, Lineage(deltas, parents.result()))
  }
}
