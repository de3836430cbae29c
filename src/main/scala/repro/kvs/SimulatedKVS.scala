package repro.kvs

import scala.collection.mutable

/** In-memory stand-in for the paper's Cassandra cluster.
  *
  * Values are placed on `numNodes` nodes by key hash (Cassandra-style
  * consistent hashing collapsed to modulo — placement only matters for the
  * per-node request statistics). All traffic is tallied; wall-clock style
  * retrieval times come from the [[CostModel]], keeping benches
  * deterministic and independent of JVM noise.
  */
final class SimulatedKVS(val numNodes: Int = 1, val cost: CostModel = CostModel())
    extends KeyValueStore {
  require(numNodes >= 1)

  private val store = mutable.LongMap.empty[Blob]
  private val nodeRequests = new Array[Long](numNodes)
  override val tally: Tally = new Tally

  private def nodeOf(key: Long): Int =
    ((repro.core.Hash64(key, 0xdecaf) % numNodes + numNodes) % numNodes).toInt

  override def put(key: Long, value: Blob): Unit = store(key) = value

  private def stored(key: Long): Blob = {
    val b = store.getOrNull(key)
    if (b == null) throw new NoSuchElementException(s"no value for $key")
    b
  }

  override def get(key: Long): Blob = {
    val b = stored(key)
    nodeRequests(nodeOf(key)) += 1
    tally.add(1, b.size)
    b
  }

  override def multiGet(keys: Seq[Long]): Seq[Blob] = keys.map(get)

  override def fetch(ids: Array[Int], from: Int, until: Int): Unit = {
    var bytes = 0L
    var i = from
    while (i < until) {
      val key = ids(i).toLong
      bytes += stored(key).size
      nodeRequests(nodeOf(key)) += 1
      i += 1
    }
    tally.add(until - from, bytes)
  }

  def storedObjects: Int = store.size
  def storedBytes: Long = store.valuesIterator.map(_.size).sum
  def requestsPerNode: Seq[Long] = nodeRequests.toSeq

  /** Simulated time for the traffic recorded in `t`. */
  def timeSecs(t: Tally): Double = cost.timeSecs(t.requests, t.bytes)
}
