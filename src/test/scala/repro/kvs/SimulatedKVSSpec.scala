package repro.kvs

import org.scalatest.funsuite.AnyFunSuite

class SimulatedKVSSpec extends AnyFunSuite {

  test("get returns the stored blob and tallies traffic") {
    val kvs = new SimulatedKVS(4)
    kvs.put(1L, Blob(100))
    kvs.put(2L, Blob(250))
    assert(kvs.get(1L).size == 100)
    assert(kvs.tally.requests == 1)
    assert(kvs.tally.bytes == 100)
    kvs.get(2L)
    assert(kvs.tally.requests == 2)
    assert(kvs.tally.bytes == 350)
  }

  test("get on a missing key fails") {
    val kvs = new SimulatedKVS(1)
    intercept[NoSuchElementException](kvs.get(7L))
  }

  test("multiGet tallies every request") {
    val kvs = new SimulatedKVS(2)
    (0 until 10).foreach(i => kvs.put(i.toLong, Blob(10)))
    kvs.multiGet((0 until 10).map(_.toLong))
    assert(kvs.tally.requests == 10)
    assert(kvs.tally.bytes == 100)
  }

  test("fetch over a sub-range tallies like multiGet of the same ids") {
    val ids = Array(7, 3, 3, 12, 0, 5, 9, 1)
    val (a, b) = (new SimulatedKVS(3), new SimulatedKVS(3))
    for (kvs <- Seq(a, b); i <- 0 until 16) kvs.put(i.toLong, Blob(10L + i))
    a.fetch(ids, 1, 6)
    b.multiGet(ids.slice(1, 6).map(_.toLong).toSeq)
    assert(a.tally.requests == 5)
    assert((a.tally.requests, a.tally.bytes) == (b.tally.requests, b.tally.bytes))
    assert(a.requestsPerNode == b.requestsPerNode)
  }

  test("fetch over an empty range is a no-op") {
    val kvs = new SimulatedKVS(2)
    kvs.put(1L, Blob(10))
    kvs.fetch(Array(1, 1), 1, 1)
    kvs.fetch(Array.emptyIntArray, 0, 0)
    assert(kvs.tally.requests == 0 && kvs.tally.bytes == 0)
    assert(kvs.requestsPerNode.sum == 0)
  }

  test("fetch of a missing id fails") {
    val kvs = new SimulatedKVS(1)
    kvs.put(1L, Blob(10))
    intercept[NoSuchElementException](kvs.fetch(Array(1, 4), 0, 2))
  }

  test("get and fetch of an id never put fail, inside or past the grown range") {
    val kvs = new SimulatedKVS(2)
    kvs.put(0L, Blob(10))
    kvs.put(5L, Blob(20))
    intercept[NoSuchElementException](kvs.get(3L))
    intercept[NoSuchElementException](kvs.fetch(Array(0, 3), 0, 2))
    intercept[NoSuchElementException](kvs.get(6L))
    intercept[NoSuchElementException](kvs.fetch(Array(6), 0, 1))
    intercept[NoSuchElementException](kvs.get(-1L))
    intercept[NoSuchElementException](kvs.fetch(Array(-1), 0, 1))
    kvs.fetch(Array(5, 0), 0, 2)
    assert(kvs.tally.bytes == 30)
  }

  test("put of a key outside [0, Int.MaxValue) fails, naming the key") {
    val kvs = new SimulatedKVS(2)
    for (key <- Seq(-1L, Int.MaxValue.toLong + 1)) {
      val e = intercept[IllegalArgumentException](kvs.put(key, Blob(1)))
      assert(e.getMessage.contains(key.toString))
    }
    assert(kvs.storedObjects == 0)
  }

  test("an empty blob is stored and fetched with 0 bytes") {
    val kvs = new SimulatedKVS(2)
    kvs.put(2L, Blob(0))
    assert(kvs.storedObjects == 1 && kvs.storedBytes == 0)
    kvs.fetch(Array(2), 0, 1)
    assert((kvs.tally.requests, kvs.tally.bytes) == (1L, 0L))
    assert(kvs.get(2L) == Blob(0))
  }

  test("an overwrite changes what fetch tallies and the stored bytes") {
    val kvs = new SimulatedKVS(3)
    kvs.put(4L, Blob(100))
    kvs.fetch(Array(4), 0, 1)
    kvs.put(4L, Blob(30))
    assert(kvs.storedObjects == 1 && kvs.storedBytes == 30)
    kvs.tally.reset()
    kvs.fetch(Array(4, 4), 0, 2)
    assert((kvs.tally.requests, kvs.tally.bytes) == (2L, 60L))
    assert(kvs.requestsPerNode.sum == 3)
  }

  test("placement is the key's hash modulo the node count") {
    val nodes = 8
    val kvs = new SimulatedKVS(nodes)
    (0 until 1000).foreach(i => kvs.put(i.toLong, Blob(1)))
    kvs.fetch(Array.range(0, 1000), 0, 1000)
    val expected = new Array[Long](nodes)
    for (i <- 0 until 1000)
      expected(((repro.core.Hash64(i.toLong, 0xdecaf) % nodes + nodes) % nodes).toInt) += 1
    assert(kvs.requestsPerNode == expected.toSeq)
  }

  test("the default fetch is one multiGet of the requested ids, in order") {
    val inner = new SimulatedKVS(2)
    (0 until 10).foreach(i => inner.put(i.toLong, Blob(1)))
    val rec = new RecordingStore(inner)
    rec.fetch(Array(9, 4, 0, 4, 6, 2), 1, 5)
    assert(rec.calls.toSeq == Seq(Seq(4L, 0L, 4L, 6L)))
    assert(inner.tally.requests == 4 && inner.tally.bytes == 4)
    rec.calls.clear()
    rec.fetch(Array(3), 0, 0)
    assert(rec.calls.toSeq == Seq(Seq.empty[Long]))
  }

  test("placement spreads keys across nodes") {
    val kvs = new SimulatedKVS(8)
    (0 until 1000).foreach(i => kvs.put(i.toLong, Blob(1)))
    kvs.multiGet((0 until 1000).map(_.toLong))
    val perNode = kvs.requestsPerNode
    assert(perNode.sum == 1000)
    assert(perNode.forall(_ > 50), s"imbalanced placement: $perNode")
  }

  test("stored stats reflect puts") {
    val kvs = new SimulatedKVS(1)
    kvs.put(1L, Blob(100))
    kvs.put(1L, Blob(200)) // overwrite
    kvs.put(2L, Blob(50))
    assert(kvs.storedObjects == 2)
    assert(kvs.storedBytes == 250)
  }

  test("cost model: request-dominated traffic matches rtt") {
    val cm = CostModel(rttMs = 0.65, bandwidthMBps = 1e9, scanMBps = 1e9)
    assert(math.abs(cm.timeSecs(100000, 0) - 65.0) < 1e-6)
  }

  test("cost model: byte-dominated traffic matches bandwidth+scan") {
    val cm = CostModel(rttMs = 0, bandwidthMBps = 100, scanMBps = 400)
    val bytes = 100L * 1048576 // 100 MB
    val expect = (1.0 + 0.25) * 1000 // seconds→ms: 1 s transfer + 0.25 s scan
    assert(math.abs(cm.timeMs(0, bytes) - expect) / expect < 0.01)
  }

  test("cost model is monotone in requests and bytes") {
    val cm = CostModel()
    assert(cm.timeMs(10, 100) < cm.timeMs(11, 100))
    assert(cm.timeMs(10, 100) < cm.timeMs(10, 200))
  }

  test("tally reset clears counters") {
    val t = new Tally
    t.add(5, 100)
    t.reset()
    assert(t.requests == 0 && t.bytes == 0)
  }
}
