package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Ck, VersionedDataset}

class RecordModelSpec extends AnyFunSuite {
  private val spec = DatasetSpec.tiny("rm", 10, 50, skewed = false, 1, seed = 4)
  private val ds: VersionedDataset = VersionedDataGen.generate(spec)

  test("sizes are within [mean/2, 3·mean/2)") {
    ds.uniqueCks.foreach { ck =>
      val s = RecordModel.size(ck, spec)
      assert(s >= spec.meanRecordSize / 2 && s < spec.meanRecordSize * 3 / 2)
    }
  }

  test("mean size is close to the spec mean") {
    val avg = ds.itemSizes.sum.toDouble / ds.uniqueCks.length
    assert(math.abs(avg - spec.meanRecordSize) < spec.meanRecordSize * 0.15)
  }

  test("diff size is bounded below and far below full size") {
    ds.uniqueCks.foreach { ck =>
      val d = RecordModel.diffSize(ck, spec)
      assert(d >= 4)
      assert(d <= math.max(4, RecordModel.size(ck, spec) / 2))
    }
  }

  test("payload is valid-looking JSON with key and version") {
    val ck = ds.uniqueCks.head
    val p = ds.payload(ck)
    assert(p.startsWith(s"""{"k":${Ck.key(ck)},"v":${Ck.version(ck)},"""))
    assert(p.endsWith("}"))
  }

  test("payload size tracks the modeled record size") {
    ds.uniqueCks.take(50).foreach { ck =>
      val p = ds.payload(ck)
      val modeled = RecordModel.size(ck, spec)
      assert(math.abs(p.length - modeled) < modeled, s"payload ${p.length} vs modeled $modeled")
    }
  }

  test("modified records share most fields with their lineage parent") {
    val mods = ds.uniqueCks.filter(ds.lineage(_).isDefined).take(100)
    assert(mods.nonEmpty)
    var shared = 0L
    var compared = 0L
    mods.foreach { ck =>
      val parent = ds.lineage(ck).get
      val n = math.min(RecordModel.numFields(ck, spec), RecordModel.numFields(parent, spec))
      shared += (1 until n).count { f =>
        RecordModel.fieldValue(ck, f, spec, ds.parentOf) ==
          RecordModel.fieldValue(parent, f, spec, ds.parentOf)
      }
      compared += n - 1
    }
    // in aggregate a P_d fraction of fields changes per modification
    assert(shared > compared * (1 - 3 * spec.pd), s"only $shared/$compared fields shared")
  }

  test("changed-field fraction is near P_d") {
    val mods = ds.uniqueCks.filter(ds.lineage(_).isDefined)
    val fracs = mods.take(200).map { ck =>
      val n = RecordModel.numFields(ck, spec)
      (1 until n).count(RecordModel.fieldChanged(ck, _, spec)).toDouble / (n - 1)
    }
    val avg = fracs.sum / fracs.length
    assert(math.abs(avg - spec.pd) < spec.pd, s"avg changed fraction $avg vs pd ${spec.pd}")
  }

  test("field 0 always changes (every record is distinct)") {
    ds.uniqueCks.take(20).foreach(ck => assert(RecordModel.fieldChanged(ck, 0, spec)))
  }

  test("sub-chunk compressed size is head + diffs + framing") {
    val mods = ds.uniqueCks.filter(ds.lineage(_).isDefined)
    val ck = mods.head
    val parent = ds.lineage(ck).get
    val expected = RecordModel.size(parent, spec) + RecordModel.diffSize(ck, spec) + 32
    assert(RecordModel.subChunkCompressedSize(parent, Seq(ck), spec) == expected)
  }

  test("compression shrinks storage for lineage groups") {
    val mods = ds.uniqueCks.filter(ds.lineage(_).isDefined)
    val ck = mods.head
    val parent = ds.lineage(ck).get
    val compressed = RecordModel.subChunkCompressedSize(parent, Seq(ck), spec)
    val raw = RecordModel.size(parent, spec) + RecordModel.size(ck, spec)
    assert(compressed < raw)
  }
}
