package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{DatasetSpec, RecordModel, VersionedDataGen}

import scala.collection.mutable

class SubChunkerSpec extends AnyFunSuite {

  private def ck(k: Int, v: Int) = Ck.pack(k.toLong, v)

  /** Fig 7's K1 situation: records of one key at V0 (root) with two
    * branch modifications at V3 and V5; k=3 must group all three together
    * (never ⟨K1,V3⟩ + ⟨K1,V5⟩ without their common ancestor ⟨K1,V0⟩).
    */
  test("fig 7 constraint: branch siblings group only with their common ancestor") {
    val tree = new VersionTree(Array(-1, 0, 0, 1, 2, 2)) // V3 under V1; V4,V5 under V2
    val deltas = Array(
      Delta(Array(ck(1, 0)), Array.emptyLongArray),
      Delta.empty, Delta.empty,
      Delta(Array(ck(1, 3)), Array(ck(1, 0))),
      Delta.empty,
      Delta(Array(ck(1, 5)), Array(ck(1, 0))),
    )
    val lineage = mutable.LongMap(ck(1, 3).toLong -> ck(1, 0), ck(1, 5).toLong -> ck(1, 0))
    val ds = new VersionedDataset(
      DatasetSpec("fig7k1", 6, 1, 0.5, skewed = false, 2), tree, deltas, lineage)
    val sub = SubChunker.build(ds, 3)
    assert(sub.numSubChunks == 1)
    assert(sub.scRepCk(0) == ck(1, 0), "representative is the root-most record")
  }

  test("fig 7 constraint: with k=2 the ancestor pairs with one branch, the other stands alone") {
    val tree = new VersionTree(Array(-1, 0, 0, 1, 2, 2))
    val deltas = Array(
      Delta(Array(ck(1, 0)), Array.emptyLongArray),
      Delta.empty, Delta.empty,
      Delta(Array(ck(1, 3)), Array(ck(1, 0))),
      Delta.empty,
      Delta(Array(ck(1, 5)), Array(ck(1, 0))),
    )
    val lineage = mutable.LongMap(ck(1, 3).toLong -> ck(1, 0), ck(1, 5).toLong -> ck(1, 0))
    val ds = new VersionedDataset(
      DatasetSpec("fig7k2", 6, 1, 0.5, skewed = false, 2), tree, deltas, lineage)
    val sub = SubChunker.build(ds, 2)
    assert(sub.numSubChunks == 2)
    // the two branch records may not share a sub-chunk (not connected)
    val sc3 = sub.recordSc(ds.itemOf(ck(1, 3)))
    val sc5 = sub.recordSc(ds.itemOf(ck(1, 5)))
    assert(sc3 != sc5)
  }

  private val specs = Seq(
    DatasetSpec.tiny("sc-chain", 25, 80, skewed = false, 1, seed = 51),
    DatasetSpec.tiny("sc-branchy", 30, 80, skewed = false, 5, seed = 52),
    DatasetSpec.tiny("sc-skew", 25, 80, skewed = true, 2, seed = 53),
  )

  for (spec <- specs; k <- Seq(1, 2, 3, 5, 10)) {
    lazy val ds = VersionedDataGen.generate(spec)
    lazy val sub = SubChunker.build(ds, k)

    test(s"${spec.name} k=$k: every record is in exactly one sub-chunk of ≤k records") {
      assert(sub.recordSc.forall(_ >= 0))
      val counts = sub.recordSc.groupBy(identity).view.mapValues(_.length)
      counts.values.foreach(c => assert(c <= k))
    }

    test(s"${spec.name} k=$k: sub-chunks are single-key and version-connected") {
      val bySc = ds.uniqueCks.indices.groupBy(sub.recordSc)
      bySc.foreach { case (_, items) =>
        val cks = items.map(ds.uniqueCks(_))
        assert(cks.map(Ck.key).distinct.size == 1, "sub-chunk mixes primary keys")
        // connectivity: every non-root-most member's lineage parent is in-group
        val set = cks.toSet
        val rootMost = cks.minBy(c => ds.tree.depth(Ck.version(c)))
        cks.filterNot(_ == rootMost).foreach { c =>
          assert(ds.lineage(c).exists(set.contains), s"${Ck.show(c)} disconnected")
        }
      }
    }

    test(s"${spec.name} k=$k: representative is the root-most member") {
      val bySc = ds.uniqueCks.indices.groupBy(sub.recordSc)
      bySc.foreach { case (sc, items) =>
        val cks = items.map(ds.uniqueCks(_))
        assert(sub.scRepCk(sc) == cks.minBy(c => (ds.tree.depth(Ck.version(c)), c)))
      }
    }

    test(s"${spec.name} k=$k: original-version sub-chunk membership is exact") {
      (0 until ds.tree.size).foreach { v =>
        val expected = ds.membersItems(v).map(sub.recordSc).distinct.sorted
        assert(sub.scMembersOrig(v).toSeq == expected.toSeq)
      }
    }

    test(s"${spec.name} k=$k: transformed tree drops only duplicate versions") {
      val in = sub.input
      // sibling-to-parent set equality never survives in the transformed tree
      (1 until in.tree.size).foreach { v =>
        assert(!java.util.Arrays.equals(in.members(v), in.members(in.tree.parent(v))))
      }
      // every distinct sub-chunk set of the original appears in the transformed tree
      val origSets = sub.scMembersOrig.map(_.toSeq).toSet
      val transSets = in.members.map(_.toSeq).toSet
      assert(transSets.subsetOf(origSets))
    }

    test(s"${spec.name} k=$k: compressed bytes match the per-group model") {
      val bySc = ds.uniqueCks.indices.groupBy(sub.recordSc)
      bySc.foreach { case (sc, items) =>
        val cks = items.map(ds.uniqueCks(_))
        val root = cks.minBy(c => (ds.tree.depth(Ck.version(c)), c))
        val expect = RecordModel.subChunkCompressedSize(root, cks.filterNot(_ == root), ds.spec)
        assert(sub.scSizes(sc) == expect)
      }
    }
  }

  for (spec <- specs) {
    test(s"${spec.name}: k=1 is the identity sub-chunking") {
      val ds = VersionedDataGen.generate(spec)
      val sub = SubChunker.build(ds, 1)
      assert(sub.numSubChunks == ds.uniqueCks.length)
      assert(sub.scRepCk.toSeq == ds.uniqueCks.toSeq)
    }

    test(s"${spec.name}: k=1 shares the dataset's item rows") {
      val ds = VersionedDataGen.generate(spec)
      val sub = SubChunker.build(ds, 1)
      (0 until ds.tree.size).foreach(v => assert(sub.scMembersOrig(v) eq ds.membersItems(v), s"v=$v"))
    }

    test(s"${spec.name}: compression ratio improves with k") {
      val ds = VersionedDataGen.generate(spec)
      val r1 = SubChunker.build(ds, 1).compressionRatio
      val r5 = SubChunker.build(ds, 5).compressionRatio
      val r10 = SubChunker.build(ds, 10).compressionRatio
      assert(r5 >= r1 * 0.99)
      assert(r10 >= r5 * 0.99)
    }

    test(s"${spec.name}: smaller P_d compresses better at the same k") {
      val big = spec.copy(meanRecordSize = 2048) // large records so the diff floor is negligible
      val hi = SubChunker.build(VersionedDataGen.generate(big.withPd(0.10)), 5).compressionRatio
      val lo = SubChunker.build(VersionedDataGen.generate(big.withPd(0.01)), 5).compressionRatio
      assert(lo > hi)
    }
  }
}
