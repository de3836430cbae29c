package repro.core

import scala.collection.mutable

/** A version *tree*: every version except the root has exactly one parent.
  *
  * Version ids are dense ints `0 until size` with `0` as the root (matching
  * the paper's `V_0`). The partitioning algorithms (§3) all operate on trees;
  * DAGs with merges are first converted via [[VersionDag.toTree]] (Fig 4).
  *
  * @param parent `parent(v)` for v>0; `parent(0) == -1`
  */
final class VersionTree(val parent: Array[Int]) {
  require(parent.nonEmpty && parent(0) == -1, "root must be version 0 with parent -1")
  parent.zipWithIndex.drop(1).foreach { case (p, v) =>
    require(p >= 0 && p < v, s"parent($v)=$p must be an earlier version")
  }

  val size: Int = parent.length

  /** Children lists, in increasing version-id order. */
  val children: Array[List[Int]] = {
    val cs = Array.fill(size)(List.empty[Int])
    var v = size - 1
    while (v >= 1) { cs(parent(v)) ::= v; v -= 1 }
    cs
  }

  /** Depth of each version; the root has depth 1 (a chain of n has depth n). */
  val depth: Array[Int] = {
    val d = new Array[Int](size)
    d(0) = 1
    var v = 1
    while (v < size) { d(v) = d(parent(v)) + 1; v += 1 }
    d
  }

  /** Mean depth over all versions. */
  def avgDepth: Double = depth.map(_.toLong).sum.toDouble / size

  /** Mean depth over leaf versions (branch tips) — the paper's Table-2
    * "Avg. depth": a 300-version chain reports 300, so the figure is the
    * average depth of the branch ends, not of all versions.
    */
  def avgLeafDepth: Double = {
    val leaves = (0 until size).filter(isLeaf)
    leaves.map(depth(_).toLong).sum.toDouble / leaves.length
  }

  def isLeaf(v: Int): Boolean = children(v).isEmpty

  /** Versions in breadth-first order from the root. */
  def bfsOrder: Array[Int] = {
    val out = new Array[Int](size)
    val q = mutable.Queue(0)
    var i = 0
    while (q.nonEmpty) {
      val v = q.dequeue(); out(i) = v; i += 1
      children(v).foreach(q.enqueue)
    }
    out
  }

  /** Versions in depth-first (pre-order) order from the root.
    * Children are visited in increasing version-id order, matching
    * `getNextChild` determinism needed by Algorithm 4.
    */
  def dfsOrder: Array[Int] = {
    val out = new Array[Int](size)
    val stack = mutable.Stack(0)
    var i = 0
    while (stack.nonEmpty) {
      val v = stack.pop(); out(i) = v; i += 1
      // push in reverse so the smallest child is visited first
      children(v).reverse.foreach(stack.push)
    }
    out
  }

  /** Post-order (all children before the parent) — the BOTTOM-UP visit order. */
  def postOrder: Array[Int] = {
    val out = new Array[Int](size)
    var i = size - 1
    // reverse of pre-order with children pushed smallest-last gives a valid
    // post-order for trees when filled back-to-front
    val stack = mutable.Stack(0)
    while (stack.nonEmpty) {
      val v = stack.pop(); out(i) = v; i -= 1
      children(v).foreach(stack.push)
    }
    out
  }

  /** Path from the root to `v`, inclusive. */
  def pathFromRoot(v: Int): List[Int] = {
    var cur = v
    var acc = List.empty[Int]
    while (cur != -1) { acc ::= cur; cur = parent(cur) }
    acc
  }
}

object VersionTree {
  /** A linear chain `V_0 → V_1 → … → V_{n-1}`. */
  def chain(n: Int): VersionTree = {
    val p = Array.tabulate(n)(i => i - 1)
    new VersionTree(p)
  }

  def apply(parent: Int*): VersionTree = new VersionTree(parent.toArray)
}

/** A version DAG: versions may have several parents (merge commits).
  *
  * Used only as generator output / conversion input; all partitioning runs
  * on the converted tree (§2.5, Fig 4). `parents(0)` must be empty.
  */
final class VersionDag(val parents: Array[List[Int]]) {
  require(parents.nonEmpty && parents(0).isEmpty, "root must have no parents")
  parents.zipWithIndex.drop(1).foreach { case (ps, v) =>
    require(ps.nonEmpty && ps.forall(p => p >= 0 && p < v), s"bad parents for $v")
  }
  val size: Int = parents.length

  /** Convert to a tree by keeping, for each merge version, exactly one parent
    * edge (the first-listed parent, mirroring the paper's arbitrary choice of
    * `V_6` in Fig 4) and dropping the rest. Records that arrived exclusively
    * through a dropped edge are renamed by the caller to appear as fresh
    * inserts in the merge version — see `DagToTree.convert`.
    *
    * @return the tree plus, for each version, the dropped parent list
    */
  def toTree: (VersionTree, Array[List[Int]]) = {
    val kept = Array.tabulate(size)(v => if (v == 0) -1 else parents(v).head)
    val dropped = Array.tabulate(size)(v => if (v == 0) Nil else parents(v).tail)
    (new VersionTree(kept), dropped)
  }
}
