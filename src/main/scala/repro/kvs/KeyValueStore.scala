package repro.kvs

import scala.collection.immutable.ArraySeq

/** Retrieval time model for the simulated distributed KVS.
  *
  * Calibrated against the paper's §2.3 microbenchmark on Cassandra: 100 K
  * unit gets took 65.42 s → ≈0.65 ms effective per sequential request. The
  * client processes retrieved chunks sequentially (the paper notes RSTORE
  * does exactly that, §5.5), so time is additive:
  *
  * {{{ t = requests·rtt + bytes/bandwidth + bytes/scanRate }}}
  *
  * @param rttMs          per-request round-trip overhead (ms)
  * @param bandwidthMBps  network transfer rate
  * @param scanMBps       client-side rate of scanning chunks to extract the
  *                       requested records
  */
final case class CostModel(
    rttMs: Double = 0.65,
    bandwidthMBps: Double = 100.0,
    scanMBps: Double = 400.0,
) {
  def timeMs(requests: Long, bytes: Long): Double =
    requests * rttMs + bytes / (bandwidthMBps * 1048.576) + bytes / (scanMBps * 1048.576)

  def timeSecs(requests: Long, bytes: Long): Double = timeMs(requests, bytes) / 1000.0
}

/** Running totals of backend traffic, kept per query or per session. */
final class Tally {
  var requests: Long = 0
  var bytes: Long = 0
  def add(reqs: Long, b: Long): Unit = { requests += reqs; bytes += b }
  def reset(): Unit = { requests = 0; bytes = 0 }
}

/** A stored value: a declared size plus (optionally) real bytes. Benches
  * only account sizes; correctness tests round-trip real payloads.
  */
final case class Blob(size: Long, data: Option[Array[Byte]] = None)

/** The narrow interface RStore assumes from the backend store (§2.4):
  * plain get/put of opaque values under opaque keys.
  */
trait KeyValueStore {
  def put(key: Long, value: Blob): Unit
  def get(key: Long): Blob
  def multiGet(keys: Seq[Long]): Seq[Blob]

  /** Fetch the values under `ids(from until until)`, in order, for their
    * traffic only (the query path's batch read). The ids are chunk ids:
    * dense and non-negative. By default one `multiGet` of the same ids as
    * `Long`s; a store on the query path overrides it with a loop that
    * boxes nothing (`SimulatedKVS` reads each id's size and node from
    * arrays indexed by id). An id with no value throws
    * `NoSuchElementException`.
    */
  def fetch(ids: Array[Int], from: Int, until: Int): Unit =
    multiGet(ArraySeq.unsafeWrapArray(ids.slice(from, until).map(_.toLong)))

  /** Traffic incurred so far (requests, bytes). */
  def tally: Tally
}
