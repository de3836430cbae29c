package repro.kvs

import scala.collection.mutable

/** A delegating store that implements only `get`/`put`/`multiGet`/`tally`,
  * so batch fetches take the trait's default path. It records the ids of
  * every read call, one entry per call, in request order.
  */
final class RecordingStore(inner: KeyValueStore) extends KeyValueStore {
  val calls: mutable.ArrayBuffer[Seq[Long]] = mutable.ArrayBuffer.empty

  override def put(key: Long, value: Blob): Unit = inner.put(key, value)

  override def get(key: Long): Blob = { calls += Seq(key); inner.get(key) }

  override def multiGet(keys: Seq[Long]): Seq[Blob] = { calls += keys.toList; inner.multiGet(keys) }

  override def tally: Tally = inner.tally

  /** The ids requested since the last call, in order, and clear them. */
  def take(): Seq[Long] = { val out = calls.flatten.toList; calls.clear(); out }
}
