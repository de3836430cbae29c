package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{DatasetSpec, VersionedDataGen}

/** Shared behaviour checks: every partitioning algorithm × several dataset
  * shapes must produce a complete, capacity-respecting, deterministic
  * assignment whose span is sane.
  */
class PartitionerBehaviorSpec extends AnyFunSuite {

  private val capacity = 2048L

  private lazy val algos: Seq[Partitioner] = Seq(
    new BottomUpPartitioner(),
    new BottomUpPartitioner(beta = 4),
    new ShinglePartitioner(),
    TraversalPartitioner.dfs,
    TraversalPartitioner.bfs,
  )

  private val specs = Seq(
    DatasetSpec.tiny("chain", 25, 120, skewed = false, 1, seed = 11),
    DatasetSpec.tiny("branchy", 30, 100, skewed = false, 6, seed = 12),
    DatasetSpec.tiny("skewed", 25, 120, skewed = true, 3, seed = 13),
    DatasetSpec.tiny("deep", 50, 60, skewed = false, 2, seed = 14),
  )

  for (spec <- specs) {
    lazy val ds = VersionedDataGen.generate(spec)
    lazy val in = PartitionInput(ds.tree, ds.membersItems, ds.itemSizes)

    for (algoIdx <- algos.indices) {
      def algo = algos(algoIdx)

      test(s"${spec.name}: algo #$algoIdx assigns every item exactly once") {
        val a = algo.partition(in, capacity)
        assert(a.itemChunk.length == in.numItems)
        assert(a.itemChunk.forall(c => c >= 0 && c < a.numChunks))
      }

      test(s"${spec.name}: algo #$algoIdx respects the chunk size bound") {
        val a = algo.partition(in, capacity)
        val maxItem = in.itemSizes.max
        a.chunkBytes(in.itemSizes).foreach { b =>
          assert(b <= capacity + math.max(capacity / 4, maxItem),
            s"${algo.name} chunk of $b bytes exceeds bound")
        }
      }

      test(s"${spec.name}: algo #$algoIdx uses no more chunks than worst-case bound") {
        val a = algo.partition(in, capacity)
        val total = in.itemSizes.sum
        // chunks may fill up to ~1.25·capacity, so the count can dip below
        // ⌈total/capacity⌉; the true lower bound divides by the max fill
        val maxFill = capacity + math.max(capacity / 4, in.itemSizes.max)
        assert(a.numChunks >= math.max(1L, total / maxFill))
        assert(a.numChunks <= 2 * (total / capacity) + in.tree.size)
      }

      test(s"${spec.name}: algo #$algoIdx span is at least the size lower bound") {
        val a = algo.partition(in, capacity)
        val spans = Span.perVersion(in.members, a)
        (0 until in.tree.size).foreach { v =>
          val bytes = in.members(v).map(in.itemSizes(_)).sum
          val lb = ((bytes + capacity + capacity / 4 - 1) / (capacity + capacity / 4)).toInt
          assert(spans(v) >= math.max(1, lb))
        }
      }

      test(s"${spec.name}: algo #$algoIdx is deterministic") {
        val a1 = algo.partition(in, capacity)
        val a2 = algo.partition(in, capacity)
        assert(a1.itemChunk.toSeq == a2.itemChunk.toSeq)
        assert(a1.numChunks == a2.numChunks)
      }
    }

    test(s"${spec.name}: structure-aware algorithms beat random assignment on span") {
      val a = new BottomUpPartitioner().partition(in, capacity)
      val rnd = new scala.util.Random(99)
      // random assignment with the same chunk count
      val randomChunks = Array.fill(in.numItems)(rnd.nextInt(a.numChunks))
      val randomA = Assignment(randomChunks, a.numChunks)
      assert(Span.total(in.members, a) < Span.total(in.members, randomA))
    }
  }

  // Large sub-chunks (1280 B records, P_d = 20 %, k = 50) at C = 32 KB: an
  // item can no longer be assumed ≪ C, yet no stored chunk may pass 1.25·C.
  private lazy val largeItems = {
    val ds = VersionedDataGen.generate(DatasetSpec.E.withPd(0.2))
    SubChunker.build(ds, 50)
  }

  for (algoIdx <- algos.indices) {
    test(s"E at P_d=20%, k=50: algo #$algoIdx keeps every stored chunk within 1.25·C") {
      val c = 32 * 1024L
      val a = algos(algoIdx).partition(largeItems.input, c)
      val over = a.chunkBytes(largeItems.scSizes).filter(_ > c + c / 4)
      assert(over.isEmpty, s"${algos(algoIdx).name}: ${over.length} chunks over ${c + c / 4} B, largest ${over.maxOption}")
    }
  }

  test("DFS beats BFS on branched trees") {
    val spec = DatasetSpec.tiny("branchcmp", 60, 200, skewed = false, 6, seed = 21)
    val ds = VersionedDataGen.generate(spec)
    val in = PartitionInput(ds.tree, ds.membersItems, ds.itemSizes)
    val dfs = Span.total(in.members, TraversalPartitioner.dfs.partition(in, capacity))
    val bfs = Span.total(in.members, TraversalPartitioner.bfs.partition(in, capacity))
    assert(dfs <= bfs, s"dfs=$dfs bfs=$bfs")
  }

  test("DFS and BFS coincide on linear chains") {
    val spec = DatasetSpec.tiny("chaineq", 30, 100, skewed = false, 1, seed = 22)
    val ds = VersionedDataGen.generate(spec)
    val in = PartitionInput(ds.tree, ds.membersItems, ds.itemSizes)
    val dfs = TraversalPartitioner.dfs.partition(in, capacity)
    val bfs = TraversalPartitioner.bfs.partition(in, capacity)
    assert(dfs.itemChunk.toSeq == bfs.itemChunk.toSeq)
  }
}
