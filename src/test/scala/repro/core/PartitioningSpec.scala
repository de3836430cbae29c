package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class PartitioningSpec extends AnyFunSuite {

  test("ChunkBuilder fills sequentially and respects capacity") {
    val cb = new ChunkBuilder(100, 10)
    (0 until 10).foreach(i => cb.add(i, 30))
    val a = cb.result()
    // 30+30+30+30 -> 120 ≥ 100 closes after 4th item
    assert(a.itemChunk.toSeq == Seq(0, 0, 0, 0, 1, 1, 1, 1, 2, 2))
    assert(a.numChunks == 3)
  }

  test("ChunkBuilder keeps a chunk within 1.25·C and rejects larger items") {
    val cb = new ChunkBuilder(100, 3)
    cb.add(0, 90); cb.add(1, 40) // 130 > 125: item 1 opens a new chunk
    cb.add(2, 125)
    assert(cb.result().itemChunk.toSeq == Seq(0, 1, 2))
    intercept[IllegalArgumentException](new ChunkBuilder(100, 1).add(0, 126))
  }

  test("ChunkBuilder rejects double assignment") {
    val cb = new ChunkBuilder(100, 2)
    cb.add(0, 10)
    intercept[IllegalArgumentException](cb.add(0, 10))
  }

  test("ChunkBuilder result fails on unassigned items") {
    val cb = new ChunkBuilder(100, 2)
    cb.add(0, 10)
    intercept[IllegalArgumentException](cb.result())
  }

  test("chunk bytes never exceed capacity + largest item") {
    val rnd = new Random(3)
    val sizes = Array.fill(500)(rnd.nextLong(400) + 1)
    val cb = new ChunkBuilder(1000, 500)
    sizes.indices.foreach(i => cb.add(i, sizes(i)))
    val a = cb.result()
    a.chunkBytes(sizes).foreach(b => assert(b < 1000 + 400))
  }

  test("sealPartial returns the open partial chunk and starts fresh") {
    val cb = new ChunkBuilder(100, 4)
    cb.add(0, 40); cb.add(1, 40)
    val p = cb.sealPartial()
    assert(p.contains((0, 80L)))
    cb.add(2, 10); cb.add(3, 10)
    val a = cb.result()
    assert(a.itemChunk.toSeq == Seq(0, 0, 1, 1))
  }

  test("sealPartial on a full chunk returns nothing") {
    val cb = new ChunkBuilder(100, 2)
    cb.add(0, 60); cb.add(1, 60) // 120 ≥ capacity
    assert(cb.sealPartial().isEmpty)
  }

  test("mergePartialsAndResult combines small partials within slack") {
    val cb = new ChunkBuilder(100, 6)
    cb.add(0, 40); val p0 = cb.sealPartial().get
    cb.add(1, 40); val p1 = cb.sealPartial().get
    cb.add(2, 30); val p2 = cb.sealPartial().get
    cb.add(3, 100); cb.add(4, 10); cb.add(5, 10)
    val a = cb.mergePartialsAndResult(Seq(p0, p1, p2))
    // partials 40+40+30=110 ≤ 125 merge into one chunk
    assert(a.itemChunk(0) == a.itemChunk(1) && a.itemChunk(1) == a.itemChunk(2))
    assert(a.itemChunk(3) != a.itemChunk(0))
    val sizes = Array(40L, 40L, 30L, 100L, 10L, 10L)
    a.chunkBytes(sizes).foreach(b => assert(b <= 125))
  }

  test("mergePartials respects the 25% slack bound and creation order") {
    val cb = new ChunkBuilder(100, 4)
    cb.add(0, 70); val p0 = cb.sealPartial().get
    cb.add(1, 70); val p1 = cb.sealPartial().get
    cb.add(2, 40); val p2 = cb.sealPartial().get
    cb.add(3, 40); val p3 = cb.sealPartial().get
    val a = cb.mergePartialsAndResult(Seq(p0, p1, p2, p3))
    val sizes = Array(70L, 70L, 40L, 40L)
    a.chunkBytes(sizes).foreach(b => assert(b <= 125))
    // consecutive merging: [70], [70+40], [40] — neighbours only, never a
    // size-sorted repacking that would mix distant versions
    assert(a.numChunks == 3)
    assert(a.itemChunk(1) == a.itemChunk(2))
    assert(a.itemChunk(0) != a.itemChunk(1))
  }

  test("Span.perVersion matches a brute-force computation") {
    val rnd = new Random(5)
    val members = Array.fill(20)(Array.fill(30)(rnd.nextInt(100)).distinct.sorted)
    val itemChunk = Array.fill(100)(rnd.nextInt(12))
    val a = Assignment(itemChunk, 12)
    val spans = Span.perVersion(members, a)
    members.indices.foreach { v =>
      assert(spans(v) == members(v).map(itemChunk).distinct.length)
    }
    assert(Span.total(members, a) == spans.map(_.toLong).sum)
  }

  test("PartitionInput.adds computes delta additions") {
    val tree = VersionTree(-1, 0, 1)
    val members = Array(Array(0, 1), Array(0, 1, 2), Array(1, 2, 3))
    val in = PartitionInput(tree, members, Array(1L, 1L, 1L, 1L))
    assert(in.adds(0).toSeq == Seq(0, 1))
    assert(in.adds(1).toSeq == Seq(2))
    assert(in.adds(2).toSeq == Seq(3))
  }

  test("Assignment rejects dangling chunk ids") {
    intercept[IllegalArgumentException](Assignment(Array(0, 5), 2))
  }
}
