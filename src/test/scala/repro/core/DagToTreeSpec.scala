package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.DatasetSpec

class DagToTreeSpec extends AnyFunSuite {
  private def ck(k: Int, v: Int) = Ck.pack(k.toLong, v)
  private val spec = DatasetSpec("dag", 4, 2, 0.5, skewed = false, 2)

  /** V3 merges V1 (kept) and V2: record K1 originated in V2 and arrives in
    * V3 exclusively through the dropped edge.
    */
  private def mergeDag: (VersionDag, Array[Array[Long]]) = {
    val dag = new VersionDag(Array(Nil, List(0), List(0), List(1, 2)))
    val members = Array(
      Array(ck(0, 0)),
      Array(ck(0, 0), ck(2, 1)).sorted,
      Array(ck(0, 0), ck(1, 2)).sorted,
      Array(ck(0, 0), ck(1, 2), ck(2, 1)).sorted, // merge keeps everything
    )
    (dag, members)
  }

  test("record from the dropped branch is renamed to the merge version") {
    val (dag, members) = mergeDag
    val ds = DagToTree.convert(dag, members, spec)
    assert(ds.tree.parent.toSeq == Seq(-1, 0, 0, 1))
    // K1 originated in V2 (the dropped parent) → appears as <K1,V3> in V3
    assert(ds.members(3).contains(ck(1, 3)))
    assert(!ds.members(3).contains(ck(1, 2)))
  }

  test("records from the kept parent keep their composite keys") {
    val (dag, members) = mergeDag
    val ds = DagToTree.convert(dag, members, spec)
    assert(ds.members(3).contains(ck(0, 0)))
    assert(ds.members(3).contains(ck(2, 1)))
  }

  test("non-merge versions are untouched") {
    val (dag, members) = mergeDag
    val ds = DagToTree.convert(dag, members, spec)
    assert(ds.members(1).toSeq == members(1).toSeq)
    assert(ds.members(2).toSeq == members(2).toSeq)
  }

  test("renaming is stable below the merge version") {
    // V3 merges, V4 extends V3 keeping the foreign record
    val dag = new VersionDag(Array(Nil, List(0), List(0), List(1, 2), List(3)))
    val members = Array(
      Array(ck(0, 0)),
      Array(ck(0, 0), ck(2, 1)).sorted,
      Array(ck(0, 0), ck(1, 2)).sorted,
      Array(ck(0, 0), ck(1, 2), ck(2, 1)).sorted,
      Array(ck(0, 0), ck(1, 2), ck(2, 1)).sorted,
    )
    val ds = DagToTree.convert(dag, members, DatasetSpec("dag5", 5, 2, 0.5, skewed = false, 2))
    assert(ds.members(3).contains(ck(1, 3)))
    assert(ds.members(4).contains(ck(1, 3))) // same renamed key downstream
    // deltas between V3 and V4 should be empty (nothing changed)
    assert(ds.deltas(4).numChanges == 0)
  }

  test("a record the kept path lost is renamed when a merge brings it back") {
    // V1 deletes <K1,V0>, V2 keeps it, V3 merges V1 (kept) with V2 and V4
    // extends V3: <K1,V0> reaches V3 only through the dropped edge
    val dag = new VersionDag(Array(Nil, List(0), List(0), List(1, 2), List(3)))
    val members = Array(
      Array(ck(0, 0), ck(1, 0)),
      Array(ck(0, 0)),
      Array(ck(0, 0), ck(1, 0)),
      Array(ck(0, 0), ck(1, 0)),
      Array(ck(0, 0), ck(1, 0)),
    )
    val ds = DagToTree.convert(dag, members, DatasetSpec("dag5", 5, 2, 0.5, skewed = false, 2))
    assert(ds.uniqueCks.toSeq == Seq(ck(0, 0), ck(1, 0), ck(1, 3)))
    assert(ds.members(3).toSeq == Seq(ck(0, 0), ck(1, 3)))
    assert(ds.members(4).toSeq == Seq(ck(0, 0), ck(1, 3)))
    assert(ds.members(2).toSeq == members(2).toSeq)
    assert(ds.deltas(4).numChanges == 0)
  }

  test("converted dataset satisfies the connectivity invariant") {
    val (dag, members) = mergeDag
    val ds = DagToTree.convert(dag, members, spec)
    (0 until ds.tree.size).foreach { v =>
      val anc = ds.tree.pathFromRoot(v).toSet
      ds.members(v).foreach(c => assert(anc.contains(Ck.version(c))))
    }
  }
}
