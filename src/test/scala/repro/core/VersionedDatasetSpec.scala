package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{DatasetSpec, VersionedDataGen}

import scala.collection.mutable

/** Tests over the dataset model, including the paper's Example 2. */
class VersionedDatasetSpec extends AnyFunSuite {

  /** Example 2 / Fig 1: five versions, nine distinct records. */
  def example2: VersionedDataset = {
    val tree = VersionTree(-1, 0, 0, 1, 2) // V1,V2 from V0; V3 from V1; V4 from V2
    def ck(k: Int, v: Int) = Ck.pack(k.toLong, v)
    val deltas = Array(
      Delta(Array(ck(0, 0), ck(1, 0), ck(2, 0), ck(3, 0)), Array.emptyLongArray),
      Delta(Array(ck(3, 1), ck(4, 1)).sorted, Array(ck(3, 0))),
      Delta(Array(ck(3, 2), ck(5, 2)).sorted, Array(ck(2, 0), ck(3, 0)).sorted),
      Delta(Array.emptyLongArray, Array(ck(2, 0))),
      Delta(Array(ck(3, 4)), Array(ck(3, 2))),
    )
    val lineage = mutable.LongMap(
      ck(3, 1).toLong -> ck(3, 0), ck(3, 2).toLong -> ck(3, 0), ck(3, 4).toLong -> ck(3, 2))
    new VersionedDataset(DatasetSpec("ex2", 5, 4, 0.3, skewed = false, 2), tree, deltas, lineage)
  }

  test("example 2: nine distinct records") {
    assert(example2.uniqueCks.length == 9)
  }

  test("example 2: version memberships match Fig 1") {
    val ds = example2
    def ck(k: Int, v: Int) = Ck.pack(k.toLong, v)
    assert(ds.members(0).toSet == Set(ck(0, 0), ck(1, 0), ck(2, 0), ck(3, 0)))
    assert(ds.members(1).toSet == Set(ck(0, 0), ck(1, 0), ck(2, 0), ck(3, 1), ck(4, 1)))
    assert(ds.members(2).toSet == Set(ck(0, 0), ck(1, 0), ck(3, 2), ck(5, 2)))
    assert(ds.members(3).toSet == Set(ck(0, 0), ck(1, 0), ck(3, 1), ck(4, 1)))
    assert(ds.members(4).toSet == Set(ck(0, 0), ck(1, 0), ck(3, 4), ck(5, 2)))
  }

  test("example 2: version-to-record lookup finds <K3,V1> for K3 in V3") {
    assert(example2.originOf(3, 3L) == 1)
  }

  test("example 2: record retrieval must not just use <K,V> (K3 originated earlier)") {
    val ds = example2
    assert(ds.originOf(4, 3L) == 4)
    assert(ds.originOf(2, 3L) == 2)
    assert(ds.originOf(0, 3L) == 0)
    assert(!ds.isLive(2, 2L)) // K2 deleted in V2
    assert(ds.isLive(1, 2L))
  }

  test("example 2: evolution of K3 has four records") {
    val ds = example2
    assert(ds.recordsOfKey(3L).map(Ck.version).toSeq == Seq(0, 1, 2, 4))
  }

  test("recordsOfKey equals a filter over uniqueCks for present, absent and out-of-range keys") {
    def ck(k: Int, v: Int) = Ck.pack(k.toLong, v)
    // keys 1, 4 and 9: 0 and 2 are absent inside the range, 10 is past it
    val gapped = new VersionedDataset(DatasetSpec("gapped", 2, 3, 0.5, skewed = false, 1), VersionTree.chain(2),
      Array(Delta(Array(ck(1, 0), ck(4, 0), ck(9, 0)), Array.emptyLongArray),
        Delta(Array(ck(4, 1)), Array(ck(4, 0)))), Map.empty)
    for (ds <- Seq(VersionedDataGen.generate(DatasetSpec.tiny("q3", 30, 120, skewed = true, 3, seed = 2)), gapped)) {
      val keys = ds.uniqueCks.map(Ck.key).distinct
      val absent = (0L to keys.max + 1).find(!keys.contains(_)).get
      for (key <- keys.toSeq ++ Seq(0L, 2L, absent, keys.max + 1, Ck.KeyLimit - 1, Ck.KeyLimit, -1L))
        assert(ds.recordsOfKey(key).toSeq == ds.uniqueCks.filter(Ck.key(_) == key).toSeq, s"${ds.spec.name} key $key")
    }
  }

  val specs: Seq[DatasetSpec] = Seq(
    DatasetSpec.tiny("t1", 20, 100, skewed = false, 1, seed = 1),
    DatasetSpec.tiny("t2", 30, 120, skewed = true, 3, seed = 2),
    DatasetSpec.tiny("t3", 40, 80, skewed = false, 5, seed = 3),
  )

  for (spec <- specs) {
    val ds = VersionedDataGen.generate(spec)

    test(s"${spec.name}: generation is deterministic") {
      val ds2 = VersionedDataGen.generate(spec)
      assert(ds.uniqueCks.toSeq == ds2.uniqueCks.toSeq)
      assert(ds.members.map(_.toSeq).toSeq == ds2.members.map(_.toSeq).toSeq)
      assert(ds.tree.parent.toSeq == ds2.tree.parent.toSeq)
    }

    test(s"${spec.name}: every version has at most one record per key") {
      ds.members.foreach { m =>
        val keys = m.map(Ck.key)
        assert(keys.distinct.length == keys.length)
      }
    }

    test(s"${spec.name}: record origins are ancestors of the containing version") {
      (0 until ds.tree.size).foreach { v =>
        val anc = ds.tree.pathFromRoot(v).toSet
        ds.members(v).foreach(ck => assert(anc.contains(Ck.version(ck))))
      }
    }

    test(s"${spec.name}: every record appears in its origin version") {
      ds.uniqueCks.foreach { ck =>
        assert(java.util.Arrays.binarySearch(ds.members(Ck.version(ck)), ck) >= 0)
      }
    }

    test(s"${spec.name}: record presence is connected toward the origin") {
      // if ck is in v, it is in every version on the path origin→v
      (0 until ds.tree.size).foreach { v =>
        ds.members(v).foreach { ck =>
          var u = v
          while (u != Ck.version(ck)) {
            u = ds.tree.parent(u)
            assert(java.util.Arrays.binarySearch(ds.members(u), ck) >= 0,
              s"${Ck.show(ck)} in $v but missing at $u")
          }
        }
      }
    }

    test(s"${spec.name}: unique records = all delta additions") {
      assert(ds.uniqueCks.length == ds.deltas.map(_.adds.length).sum)
    }

    test(s"${spec.name}: deltas are consistent") {
      ds.deltas.foreach(d => assert(d.isConsistent))
    }

    test(s"${spec.name}: lineage points to a record of the same key in the parent version") {
      ds.lineageMap.foreach { case (ck, parentCk) =>
        assert(Ck.key(ck) == Ck.key(parentCk))
        assert(Ck.version(parentCk) < Ck.version(ck))
      }
    }

    test(s"${spec.name}: version sizes stay near the root size") {
      val sizes = ds.members.map(_.length)
      assert(sizes.min > spec.rootRecords / 2)
      assert(sizes.max < spec.rootRecords * 2)
    }

    test(s"${spec.name}: stats are internally consistent") {
      val st = ds.stats
      assert(st.uniqueRecords == ds.uniqueCks.length)
      assert(st.totalBytes >= st.uniqueBytes)
      assert(st.nVersions == spec.nVersions)
      assert(math.abs(st.avgDepth - ds.tree.avgLeafDepth) < 1e-9)
    }

    test(s"${spec.name}: itemVersionCounts sums to total membership") {
      assert(ds.itemVersionCounts.map(_.toLong).sum == ds.members.map(_.length.toLong).sum)
    }

    test(s"${spec.name}: prefix is a consistent sub-dataset") {
      val pre = ds.prefix(spec.nVersions / 2)
      assert(pre.tree.size == spec.nVersions / 2)
      (0 until pre.tree.size).foreach { v =>
        assert(pre.members(v).toSeq == ds.members(v).toSeq)
      }
    }
  }

  /** `members(v)` is the replay of the deltas on the path to `v`, and
    * `membersItems(v)` is `members(v)` mapped through `itemOf`.
    */
  private def assertItemsAligned(ds: VersionedDataset): Unit = {
    val replay = new Array[Array[Long]](ds.tree.size)
    (0 until ds.tree.size).foreach { v =>
      val p = ds.tree.parent(v)
      replay(v) = ds.deltas(v).applyTo(if (p == -1) Array.emptyLongArray else replay(p))
      assert(ds.members(v).toSeq == replay(v).toSeq, s"${ds.spec.name} v=$v")
      assert(ds.membersItems(v).toSeq == replay(v).map(ds.itemOf).toSeq, s"${ds.spec.name} v=$v")
    }
  }

  test("membersItems matches itemOf on every version of generated datasets and prefixes") {
    for (spec <- specs ++ Seq(DatasetSpec.A0, DatasetSpec.C0)) {
      val ds = VersionedDataGen.generate(spec)
      assertItemsAligned(ds)
      Seq(1, 2, spec.nVersions / 3, spec.nVersions - 1).foreach(n => assertItemsAligned(ds.prefix(n)))
    }
  }

  test("membersItems matches itemOf on example 2 and a DAG-converted dataset") {
    assertItemsAligned(example2)
    def ck(k: Int, v: Int) = Ck.pack(k.toLong, v)
    // V1 drops <K1,V0> and V2 keeps it; V3 merges V1 (kept) with V2, so
    // <K1,V0> and <K3,V2> are renamed there; V4 extends V3
    val dag = new VersionDag(Array(Nil, List(0), List(0), List(1, 2), List(3)))
    val members = Array(
      Array(ck(0, 0), ck(1, 0)),
      Array(ck(0, 0), ck(2, 1)),
      Array(ck(0, 0), ck(1, 0), ck(3, 2)),
      Array(ck(0, 0), ck(1, 0), ck(2, 1), ck(3, 2)),
      Array(ck(0, 0), ck(1, 0), ck(3, 2), ck(4, 4)),
    )
    assertItemsAligned(DagToTree.convert(dag, members, DatasetSpec("dag", 5, 2, 0.5, skewed = false, 2)))
  }

  test("membersItems matches itemOf on the layout fingerprints' DAG-converted dataset") {
    val base = VersionedDataGen.generate(DatasetSpec.tiny("dag", 60, 150, skewed = false, 4, seed = 4))
    val (dag, members) = repro.exp.Experiments.mergedDag(base, every = 5)
    val ds = DagToTree.convert(dag, members, base.spec)
    assertItemsAligned(ds)
    Seq(1, 7, 30).foreach(n => assertItemsAligned(ds.prefix(n)))
  }

  test("generation leaves the membership walk unforced; either view forces both") {
    val ds = VersionedDataGen.generate(specs.head)
    assert(!ds.isWalked)
    ds.uniqueCks
    ds.tree.size
    assert(!ds.isWalked)
    ds.membersItems
    assert(ds.isWalked)
    val again = VersionedDataGen.generate(specs.head)
    again.members
    assert(again.isWalked)
  }

  test("a delta deleting a record its parent lacks is rejected") {
    def ck(k: Int, v: Int) = Ck.pack(k.toLong, v)
    val deltas = Array(
      Delta(Array(ck(0, 0), ck(1, 0)), Array.emptyLongArray),
      Delta(Array(ck(2, 1)), Array(ck(1, 0), ck(5, 0))),
    )
    val ds = new VersionedDataset(
      DatasetSpec("lacking", 2, 2, 0.5, skewed = false, 1), VersionTree.chain(2), deltas, Map.empty)
    val e = intercept[IllegalArgumentException](ds.members)
    assert(e.getMessage.contains("version 1"), e.getMessage)
  }

  test("a record added by a delta other than its origin version's is rejected") {
    def ck(k: Int, v: Int) = Ck.pack(k.toLong, v)
    val deltas = Array(
      Delta(Array(ck(0, 0)), Array.emptyLongArray),
      Delta(Array(ck(1, 0)), Array.emptyLongArray),
    )
    val ds = new VersionedDataset(
      DatasetSpec("misplaced", 2, 1, 0.5, skewed = false, 1), VersionTree.chain(2), deltas, Map.empty)
    val e = intercept[IllegalArgumentException](ds.membersItems)
    assert(e.getMessage.contains("<K1,V0>"), e.getMessage)
  }

  test("a Lineage over the same deltas is shared, a prefix keeps its versions' pairs, another map converts equal") {
    val g = VersionedDataGen.generate(specs.head)
    assert(new VersionedDataset(g.spec, g.tree, g.deltas, g.lineageMap).lineageMap eq g.lineageMap)
    val pre = g.prefix(7)
    assert(pre.lineageMap == g.lineageMap.filter(kv => Ck.version(kv._1) < 7))
    val copied = new VersionedDataset(g.spec, g.tree, g.deltas, mutable.LongMap.from(g.lineageMap))
    assert(copied.lineageMap ne g.lineageMap)
    assert(copied.lineageMap == g.lineageMap)
    g.uniqueCks.foreach(ck => assert(copied.parentOf(ck) == g.parentOf(ck)))
    assert(example2.lineageMap == Map(
      Ck.pack(3, 1) -> Ck.pack(3, 0), Ck.pack(3, 2) -> Ck.pack(3, 0), Ck.pack(3, 4) -> Ck.pack(3, 2)))
    assert(example2.lineageMap - Ck.pack(3, 2) + (Ck.pack(5, 2) -> Ck.pack(5, 0)) == Map(
      Ck.pack(3, 1) -> Ck.pack(3, 0), Ck.pack(3, 4) -> Ck.pack(3, 2), Ck.pack(5, 2) -> Ck.pack(5, 0)))
    assert(example2.parentOf(Ck.pack(3, 0)) == -1 && example2.parentOf(Ck.pack(3, 9)) == -1)
  }

  test("a lineage child that its origin version's delta does not add is rejected, naming the record") {
    def ck(k: Int, v: Int) = Ck.pack(k.toLong, v)
    val deltas = Array(
      Delta(Array(ck(0, 0), ck(1, 0)), Array.emptyLongArray),
      Delta(Array(ck(1, 1)), Array(ck(1, 0))),
    )
    val spec = DatasetSpec("stray", 2, 2, 0.5, skewed = false, 1)
    for (child <- Seq(ck(0, 1), ck(1, 2))) { // version 1 adds only K1; there is no version 2
      val e = intercept[IllegalArgumentException](
        new VersionedDataset(spec, VersionTree.chain(2), deltas, Map(child -> ck(Ck.key(child).toInt, 0))))
      assert(e.getMessage.contains(Ck.show(child)), e.getMessage)
    }
  }

  test("a lineage parent of another primary key is rejected, naming the record") {
    def ck(k: Int, v: Int) = Ck.pack(k.toLong, v)
    val deltas = Array(
      Delta(Array(ck(0, 0), ck(1, 0)), Array.emptyLongArray),
      Delta(Array(ck(1, 1)), Array(ck(1, 0))),
    )
    val e = intercept[IllegalArgumentException](new VersionedDataset(
      DatasetSpec("rekeyed", 2, 2, 0.5, skewed = false, 1), VersionTree.chain(2), deltas,
      mutable.LongMap(ck(1, 1).toLong -> ck(0, 0))))
    assert(e.getMessage.contains("<K1,V1>"), e.getMessage)
  }

  test("a lineage parent that does not originate in an earlier version is rejected, naming the record") {
    def ck(k: Int, v: Int) = Ck.pack(k.toLong, v)
    val deltas = Array(
      Delta(Array(ck(0, 0), ck(1, 0)), Array.emptyLongArray),
      Delta(Array(ck(1, 1)), Array(ck(1, 0))),
    )
    val spec = DatasetSpec("cyclic", 2, 2, 0.5, skewed = false, 1)
    // a record its own parent: the payload's walk up the lineage would not end
    for (parent <- Seq(ck(1, 1), ck(1, 2))) {
      val e = intercept[IllegalArgumentException](
        new VersionedDataset(spec, VersionTree.chain(2), deltas, Map(ck(1, 1) -> parent)))
      assert(e.getMessage.contains("<K1,V1>"), e.getMessage)
    }
  }

  test("more than 2^20 versions are rejected up front, naming the limit") {
    val e = intercept[IllegalArgumentException](
      DatasetSpec("huge", Ck.MaxVersions + 1, 10, 0.1, skewed = false, 1))
    assert(e.getMessage.contains("1048576"), e.getMessage)
    assert(DatasetSpec("max", Ck.MaxVersions, 10, 0.1, skewed = false, 1).nVersions == Ck.MaxVersions)
  }

  test("a record added by two deltas is rejected, naming the record") {
    def ck(k: Int, v: Int) = Ck.pack(k.toLong, v)
    val deltas = Array(
      Delta(Array(ck(0, 0), ck(1, 0)), Array.emptyLongArray),
      Delta(Array.emptyLongArray, Array(ck(1, 0))),
      Delta(Array(ck(1, 0)), Array.emptyLongArray),
    )
    val e = intercept[IllegalArgumentException](new VersionedDataset(
      DatasetSpec("dup", 3, 2, 0.5, skewed = false, 1), VersionTree.chain(3), deltas, Map.empty))
    assert(e.getMessage.contains("<K1,V0>"), e.getMessage)
  }

  test("chains have avg depth (n+1)/2") {
    val ds = VersionedDataGen.generate(DatasetSpec.tiny("chain", 21, 50, skewed = false, 1))
    assert(ds.tree.avgDepth == 11.0)
  }

  test("skewed updates concentrate on low keys") {
    val spec = DatasetSpec.tiny("skewcheck", 40, 200, skewed = true, 1, seed = 5)
    val ds = VersionedDataGen.generate(spec)
    // iterate entries (not .keys, which is a Set) to count modification events
    val modKeys = ds.lineageMap.iterator.map(kv => Ck.key(kv._1)).toSeq
    val lowHalf = modKeys.count(_ < 100)
    assert(lowHalf > modKeys.size * 6 / 10, s"expected low-key bias, got $lowHalf/${modKeys.size}")
  }
}
