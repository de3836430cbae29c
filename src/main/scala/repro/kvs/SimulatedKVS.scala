package repro.kvs

/** In-memory stand-in for the paper's Cassandra cluster.
  *
  * Values are placed on `numNodes` nodes by key hash (Cassandra-style
  * consistent hashing collapsed to modulo — placement only matters for the
  * per-node request statistics). All traffic is tallied; wall-clock style
  * retrieval times come from the [[CostModel]], keeping benches
  * deterministic and independent of JVM noise.
  *
  * Keys are dense chunk ids, so the store is three arrays indexed by id:
  * the blob, its size and its node, which is hashed once, at `put`. A read
  * is two array loads and a node count, with no lookup and no hashing. A
  * key outside `[0, Int.MaxValue)` cannot be put; reading an id that was
  * never put, inside or past the grown range, throws
  * `NoSuchElementException`.
  */
final class SimulatedKVS(val numNodes: Int = 1, val cost: CostModel = CostModel())
    extends KeyValueStore {
  require(numNodes >= 1)

  private var blobs = new Array[Blob](0)
  private var sizes = new Array[Long](0)
  private var nodes = new Array[Int](0) // −1 where no value was put
  private val nodeRequests = new Array[Long](numNodes)
  override val tally: Tally = new Tally

  private def nodeOf(key: Long): Int =
    ((repro.core.Hash64(key, 0xdecaf) % numNodes + numNodes) % numNodes).toInt

  override def put(key: Long, value: Blob): Unit = {
    require(key >= 0 && key < Int.MaxValue, s"key $key is outside [0, ${Int.MaxValue})")
    val id = key.toInt
    if (id >= nodes.length) grow(id + 1)
    blobs(id) = value
    sizes(id) = value.size
    nodes(id) = nodeOf(key)
  }

  private def grow(min: Int): Unit = {
    val n = math.max(min, math.min(2L * nodes.length, Int.MaxValue).toInt)
    blobs = java.util.Arrays.copyOf(blobs, n)
    sizes = java.util.Arrays.copyOf(sizes, n)
    val old = nodes.length
    nodes = java.util.Arrays.copyOf(nodes, n)
    java.util.Arrays.fill(nodes, old, n, -1)
  }

  /** The index of `key`'s value; throws if no value was put under `key`. */
  private def slot(key: Long): Int = {
    if (key < 0 || key >= nodes.length || nodes(key.toInt) < 0)
      throw new NoSuchElementException(s"no value for $key")
    key.toInt
  }

  override def get(key: Long): Blob = {
    val id = slot(key)
    nodeRequests(nodes(id)) += 1
    tally.add(1, sizes(id))
    blobs(id)
  }

  override def multiGet(keys: Seq[Long]): Seq[Blob] = keys.map(get)

  override def fetch(ids: Array[Int], from: Int, until: Int): Unit = {
    var bytes = 0L
    var i = from
    while (i < until) {
      val id = slot(ids(i))
      bytes += sizes(id)
      nodeRequests(nodes(id)) += 1
      i += 1
    }
    tally.add(until - from, bytes)
  }

  def storedObjects: Int = nodes.count(_ >= 0)
  def storedBytes: Long = nodes.indices.iterator.filter(nodes(_) >= 0).map(sizes(_)).sum
  def requestsPerNode: Seq[Long] = nodeRequests.toSeq

  /** Simulated time for the traffic recorded in `t`. */
  def timeSecs(t: Tally): Double = cost.timeSecs(t.requests, t.bytes)
}
