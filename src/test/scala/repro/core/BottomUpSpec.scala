package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{DatasetSpec, VersionedDataGen}

class BottomUpSpec extends AnyFunSuite {

  /** Example 3's data (the Example 2 version graph): with 2-record chunks,
    * the paper's partitioning P1 retrieves 0.6 fewer chunks per version on
    * average than P0.
    */
  test("example 3: P1 has lower average version span than P0") {
    def ck(k: Int, v: Int) = Ck.pack(k.toLong, v)
    val order = Seq(ck(0, 0), ck(1, 0), ck(2, 0), ck(3, 0), ck(3, 1), ck(3, 2),
      ck(4, 1), ck(5, 2), ck(3, 4)).sorted
    val id = order.zipWithIndex.toMap
    val members: Array[Array[Int]] = Array(
      Array(ck(0, 0), ck(1, 0), ck(2, 0), ck(3, 0)),
      Array(ck(0, 0), ck(1, 0), ck(2, 0), ck(3, 1), ck(4, 1)),
      Array(ck(0, 0), ck(1, 0), ck(3, 2), ck(5, 2)),
      Array(ck(0, 0), ck(1, 0), ck(3, 1), ck(4, 1)),
      Array(ck(0, 0), ck(1, 0), ck(3, 4), ck(5, 2)),
    ).map(_.map(id).sorted)
    def assignmentOf(chunks: Seq[Seq[Long]]): Assignment = {
      val itemChunk = new Array[Int](order.length)
      chunks.zipWithIndex.foreach { case (cs, i) => cs.foreach(c => itemChunk(id(c)) = i) }
      Assignment(itemChunk, chunks.length)
    }
    val p0 = assignmentOf(Seq(
      Seq(ck(0, 0), ck(1, 0)), Seq(ck(2, 0), ck(3, 0)), Seq(ck(3, 1), ck(3, 2)),
      Seq(ck(4, 1), ck(5, 2)), Seq(ck(3, 4))))
    val p1 = assignmentOf(Seq(
      Seq(ck(0, 0), ck(1, 0)), Seq(ck(2, 0), ck(3, 0)), Seq(ck(3, 1), ck(4, 1)),
      Seq(ck(3, 2), ck(5, 2)), Seq(ck(3, 4))))
    val s0 = Span.total(members, p0)
    val s1 = Span.total(members, p1)
    // paper: P1 reduces the average span per version by 0.6 (= 3 over 5 versions)
    assert(s0 - s1 == 3, s"s0=$s0 s1=$s1")
    // reconstructing V1 takes 4 chunks under P0 and 3 under P1
    assert(Span.perVersion(members, p0)(1) == 4)
    assert(Span.perVersion(members, p1)(1) == 3)
  }

  test("on a chain, records surviving together are chunked together") {
    // 3-version chain; records r0,r1 live in all versions; r2 only in V0;
    // r3 only in V2. BottomUp must not mix r2/r3 with r0/r1 when capacity
    // allows separation.
    val tree = VersionTree.chain(3)
    val members = Array(Array(0, 1, 2), Array(0, 1), Array(0, 1, 3))
    val sizes = Array(10L, 10L, 10L, 10L)
    val a = new BottomUpPartitioner().partition(PartitionInput(tree, members, sizes), 20)
    assert(a.itemChunk(0) == a.itemChunk(1), "all-version survivors share a chunk")
    assert(a.itemChunk(2) != a.itemChunk(0), "records dying early are separated")
  }

  test("longest-surviving records are finalized at the root with highest priority") {
    // chain of 4: item 0 in all, items 1..3 die progressively
    val tree = VersionTree.chain(4)
    val members = Array(Array(0, 1), Array(0, 1, 2), Array(0, 1, 2, 3), Array(0, 1, 2, 3))
    val sizes = Array(10L, 10L, 10L, 10L)
    val a = new BottomUpPartitioner().partition(PartitionInput(tree, members, sizes), 20)
    // items 0 and 1 survive to the root (present in V0); 2 and 3 die below
    assert(a.itemChunk(0) == a.itemChunk(1))
    assert(a.itemChunk(2) == a.itemChunk(3))
    assert(a.itemChunk(0) != a.itemChunk(2))
  }

  test("alpha sets are disjoint on linear chains (Lemma 1)") {
    // every record is finalized exactly once — the partitioner would throw
    // on double assignment otherwise; verify on random chains
    for (seed <- 1 to 10) {
      val spec = DatasetSpec.tiny(s"lemma$seed", 20, 60, skewed = false, 1, seed = seed)
      val ds = VersionedDataGen.generate(spec)
      val in = PartitionInput(ds.tree, ds.membersItems, ds.itemSizes)
      val a = new BottomUpPartitioner().partition(in, 1024)
      assert(a.itemChunk.forall(_ >= 0))
    }
  }

  test("beta limiting preserves completeness on branched trees") {
    for (beta <- Seq(1, 2, 3, 5, 10)) {
      val spec = DatasetSpec.tiny("betads", 40, 80, skewed = false, 5, seed = 31)
      val ds = VersionedDataGen.generate(spec)
      val in = PartitionInput(ds.tree, ds.membersItems, ds.itemSizes)
      val a = new BottomUpPartitioner(beta).partition(in, 1024)
      assert(a.itemChunk.forall(_ >= 0))
      assert(a.itemChunk.length == in.numItems)
    }
  }

  test("smaller beta does not improve span (quality degrades or stays)") {
    val spec = DatasetSpec.tiny("betaq", 60, 150, skewed = false, 4, seed = 32)
    val ds = VersionedDataGen.generate(spec)
    val in = PartitionInput(ds.tree, ds.membersItems, ds.itemSizes)
    val unrestricted = Span.total(in.members, new BottomUpPartitioner().partition(in, 1024))
    val restricted = Span.total(in.members, new BottomUpPartitioner(1).partition(in, 1024))
    assert(restricted >= unrestricted,
      s"beta=1 span $restricted should be >= unrestricted $unrestricted")
  }

  test("bottom-up span is competitive with DFS across shapes") {
    for ((branches, seed) <- Seq((1, 41), (3, 42), (6, 43))) {
      val spec = DatasetSpec.tiny(s"cmp$branches", 40, 150, skewed = false, branches, seed = seed)
      val ds = VersionedDataGen.generate(spec)
      val in = PartitionInput(ds.tree, ds.membersItems, ds.itemSizes)
      val bu = Span.total(in.members, new BottomUpPartitioner().partition(in, 2048))
      val dfs = Span.total(in.members, TraversalPartitioner.dfs.partition(in, 2048))
      assert(bu <= dfs * 1.4, s"branches=$branches bu=$bu dfs=$dfs")
    }
  }

  // With C equal to the item size every item fills its own chunk, so chunk
  // ids follow BottomUp's emission order.
  private def emissionOrder(tree: VersionTree, members: Array[Array[Int]], beta: Int = Int.MaxValue): Seq[Int] = {
    val sizes = Array.fill(members.flatten.max + 1)(10L)
    new BottomUpPartitioner(beta).partition(PartitionInput(tree, members, sizes), 10).itemChunk.toSeq
  }

  test("a record dying at the root from two children sums its runs") {
    // item 0 lives in both leaves (run 1 + 1), item 1 in one (run 1); by
    // origin alone item 1 (origin V1) would precede item 0 (origin V2)
    assert(emissionOrder(VersionTree(-1, 0, 0), Array(Array(), Array(0, 1), Array(0))) == Seq(0, 1))
  }

  test("beta = 1 resolves a chained merge") {
    // root runs: item 0 → 2, items 1,2 → 1, items 3..5 → 3. β = 1 merges
    // count 2 into 1, then 1 into 3: item 0 must follow the chain to 3
    val members = Array(Array(0, 1, 2, 3, 4, 5), Array(0, 3, 4, 5), Array(3, 4, 5))
    assert(emissionOrder(VersionTree(-1, 0, 0), members, beta = 1) == Seq(0, 1, 2, 3, 4, 5))
  }

  test("at the root a dying record precedes a surviving record of equal run") {
    // item 1 (V1, V2) dies at the root with run 2; item 0 (V0, V1) survives
    // with run 2; by origin alone item 0 would go first
    assert(emissionOrder(VersionTree(-1, 0, 1), Array(Array(0), Array(0, 1), Array(1))) == Seq(1, 0))
  }

  test("single-version dataset forms minimal chunks") {
    val tree = VersionTree.chain(1)
    val members = Array(Array(0, 1, 2, 3))
    val sizes = Array(10L, 10L, 10L, 10L)
    val a = new BottomUpPartitioner().partition(PartitionInput(tree, members, sizes), 40)
    assert(a.numChunks == 1)
    assert(Span.total(members, a) == 1)
  }
}
